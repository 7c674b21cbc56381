package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// benchmarkJSON mirrors the fields of ../BENCHMARK.json the program must
// agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONNamesTheWorkloads(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].Name || w.Why == "" {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, w.Name, workloads[i].Name)
		}
	}
}

// sameMetrics fails unless got has exactly the names and units of want.
func sameMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		var names []string
		for k := range got {
			names = append(names, k)
		}
		sort.Strings(names)
		t.Fatalf("program prints %d metrics %v, BENCHMARK.json lists %d", len(got), names, len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s is in BENCHMARK.json but not printed", m.Name)
		} else if g.Unit != m.Unit {
			t.Errorf("%s: printed unit %q, BENCHMARK.json %q", m.Name, g.Unit, m.Unit)
		}
	}
}

func TestEndToEndMetricsMatchBenchmarkJSON(t *testing.T) {
	in := &Inputs{W: workloads[0]}
	r := newRun(in, false)
	r.passEvents = 1
	r.passes = []passStat{{events: 1, busy: time.Second, cpu: time.Second}}
	r.setups = []float64{1}
	r.ack, r.control = seq(1000), seq(1000)
	m, err := r.endToEnd()
	if err != nil {
		t.Fatal(err)
	}
	sameMetrics(t, m, readBenchmarkJSON(t).EndToEnd)
}

func TestPerLayerMetricsMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for _, w := range workloads {
		in := &Inputs{W: w}
		r := newRun(in, true)
		ld := &ladder{rungs: map[string]rungResult{rungRuntime: {events: 1}}}
		sameMetrics(t, perLayer(in, newRun(in, false), r, ld).m, bj.PerLayer)
	}
}
