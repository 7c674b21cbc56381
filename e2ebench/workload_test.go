package main

import (
	"reflect"
	"testing"
)

// small returns workload name shrunk to a few control segments, for tests.
func small(t *testing.T, name string, events int) Workload {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.EventsPerTenant = events
	return w
}

func TestGenerateIsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			sw := small(t, w.Name, 600)
			a, err := Generate(sw, 7)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Generate(sw, 7)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatal("the same seed generated different inputs")
			}
			c, err := Generate(sw, 8)
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(a.Lanes, c.Lanes) {
				t.Fatal("different seeds generated identical events")
			}
			if reflect.DeepEqual(a.Tenants, c.Tenants) {
				t.Fatal("different seeds generated identical tenants")
			}
		})
	}
}

// Every tenant's events ride exactly one lane, in generation order, so a
// run's answers cannot depend on how lanes interleave.
func TestLanesKeepEachTenantOnOneLane(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			in, err := Generate(small(t, w.Name, 500), 3)
			if err != nil {
				t.Fatal(err)
			}
			count := make([]int, w.Tenants)
			for l, lane := range in.Lanes {
				for _, ev := range lane {
					if ev.Tenant%w.Lanes != l {
						t.Fatalf("tenant %d on lane %d", ev.Tenant, l)
					}
					count[ev.Tenant]++
				}
			}
			for i, n := range count {
				if n != 500 {
					t.Fatalf("tenant %d has %d events, want 500", i, n)
				}
			}
			if in.Seg*w.Lanes != w.ControlEvery || in.Seg%w.Batch != 0 {
				t.Fatalf("segment %d per lane does not split control_every %d into whole batches of %d", in.Seg, w.ControlEvery, w.Batch)
			}
		})
	}
}

func TestWorkloadsRecordWhy(t *testing.T) {
	for _, w := range workloads {
		if w.Why == "" || len(w.Why) > 200 || len(w.Loads) == 0 || len(w.Bypasses) == 0 {
			t.Errorf("%s: why, loads and bypasses must be set (why at most 200 characters)", w.Name)
		}
	}
}
