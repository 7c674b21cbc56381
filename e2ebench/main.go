// Command e2ebench is the end-to-end benchmark of the serving system. One
// invocation runs one workload for one seed:
//
//	e2ebench --workload rank-knn --seed 1 --seconds 20 --trace 0
//
// It generates the workload's inputs from the seed before any timing,
// replays them in passes until --seconds have elapsed, checks every answer
// against the ground-truth oracle at event-count barriers, and prints one
// JSON result as the last line of standard output. With --trace 0 the
// result carries the end-to-end metrics; with --trace 1 it carries the
// per-layer metrics of a traced run and its ladder replay, and the spans
// are written under .bench_build/spans. The exit code is non-zero when any
// answer violates its tolerance or any replay's Report.Text differs.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	gort "runtime"
	"sort"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: rank-knn | range-wire | composite-churn")
		seed    = flag.Int64("seed", 1, "input generation seed")
		seconds = flag.Int("seconds", 20, "how long the run measures")
		trace   = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		commit  = flag.String("commit", "unknown", "source commit, recorded in the descriptor")
		spans   = flag.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	)
	flag.Parse()
	if err := benchmain(*name, *seed, *seconds, *trace == 1, *commit, *spans); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func benchmain(name string, seed int64, seconds int, traced bool, commit, spanDir string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", seconds)
	}
	desc := describe(w, seed, seconds, traced, commit)
	line, err := json.Marshal(desc)
	if err != nil {
		return err
	}
	fmt.Printf("descriptor %s\n", line)
	fmt.Printf("workload %s: %s\n", w.Name, w.Why)

	in, err := Generate(w, seed)
	if err != nil {
		return err
	}
	var res result
	if traced {
		res, err = tracedRun(in, float64(seconds), desc, spanDir)
	} else {
		res, err = plainRun(in, float64(seconds))
	}
	if err != nil {
		return err
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("metric %-40s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
	return nil
}

// plainRun is the untraced run: the end-to-end metrics.
func plainRun(in *Inputs, seconds float64) (result, error) {
	r := newRun(in, false)
	if err := measure(seconds, r.p90Samples, r); err != nil {
		return result{}, err
	}
	if err := r.topUpSetups(); err != nil {
		return result{}, err
	}
	r.printChecks()
	m, err := r.endToEnd()
	if err != nil {
		return result{}, err
	}
	return result{Correct: r.correct(), Attempted: r.out.Attempted, Failed: r.out.failed(), Metrics: m}, nil
}

// printChecks reports the oracle and determinism outcome of a run.
func (r *run) printChecks() {
	fmt.Printf("oracle: %d checks, %d violations\n", r.checks, r.violations)
	for _, v := range r.firstViolations {
		fmt.Printf("  violation: %s\n", v)
	}
	for _, m := range r.mismatches {
		fmt.Printf("  mismatch: %s\n", m)
	}
}

// endToEnd computes every end-to-end metric of an untraced run.
func (r *run) endToEnd() (map[string]metric, error) {
	var cpu, heap []float64
	for _, p := range r.passes {
		cpu = append(cpu, float64(p.cpu.Microseconds())/float64(p.events))
		heap = append(heap, p.heapMB)
	}
	m := map[string]metric{
		"setup_s":               {median(append([]float64(nil), r.setups...)), "s"},
		"throughput_eps":        {throughput(r), "events/s"},
		"cpu_us_per_event":      {median(cpu), "us"},
		"peak_heap_mb":          {median(heap), "MB"},
		"maint_msgs_per_kevent": {1000 * float64(r.totals.Maintenance()) / float64(r.passEvents), "msgs"},
		"server_ops_per_event":  {float64(r.totals.ServerOps) / float64(r.passEvents), "ops"},
		"success_rate":          {1 - r.out.errorRate(), "ratio"},
		"answer_ok_rate":        {1 - float64(r.violations)/float64(max(r.checks, 1)), "ratio"},
	}
	for _, pc := range []struct {
		name    string
		samples []float64
		q       float64
	}{
		{"ack_p50_ms", r.ack, 0.50},
		{"ack_p90_ms", r.ack, 0.90},
		{"control_p50_ms", r.control, 0.50},
	} {
		v, err := windowedPercentile(pc.samples, pc.q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pc.name, err)
		}
		m[pc.name] = metric{v, "ms"}
	}
	return m, nil
}

// descriptor records the machine and configuration a result came from.
type descriptor struct {
	Benchmark    string   `json:"benchmark"`
	Workload     Workload `json:"workload"`
	Seed         int64    `json:"seed"`
	Seconds      int      `json:"seconds"`
	Traced       bool     `json:"traced"`
	NProc        int      `json:"nproc"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	CPUModel     string   `json:"cpu_model"`
	GoVersion    string   `json:"go_version"`
	Platform     string   `json:"platform"`
	Commit       string   `json:"commit"`
	SourceSHA256 string   `json:"source_sha256"`
}

func describe(w Workload, seed int64, seconds int, traced bool, commit string) descriptor {
	return descriptor{
		Benchmark: "e2ebench", Workload: w, Seed: seed, Seconds: seconds, Traced: traced,
		NProc: gort.NumCPU(), GOMAXPROCS: gort.GOMAXPROCS(0), CPUModel: cpuModel(),
		GoVersion: gort.Version(), Platform: gort.GOOS + "/" + gort.GOARCH,
		Commit: commit, SourceSHA256: sourceDigest("."),
	}
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod under root (skipping
// hidden and build directories), standing in for the commit where the
// checkout is not a git repository.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
