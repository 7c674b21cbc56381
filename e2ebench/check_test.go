package main

import (
	"math"
	"sort"
	"testing"

	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/multidim"
	"adaptivefilters/internal/protospec"
)

// worst returns size streams that answer s as badly as possible at t0: the
// farthest from a k-NN query point, the lowest for a top-k, or streams
// outside a range.
func worst(t *tenantDef, s protospec.Spec, size int) []int {
	n := t.streams()
	badness := make([]float64, n)
	for i := 0; i < n; i++ {
		switch {
		case t.Points != nil:
			badness[i] = multidim.Dist(t.Points[i], filter.Point{X: s.QX, Y: s.QY})
		case s.Protocol == "ft-nrp" || s.Protocol == "zt-nrp":
			if v := t.Initial[i]; v < s.Lo || v > s.Hi {
				badness[i] = math.Abs(v - (s.Lo+s.Hi)/2)
			}
		case s.Top:
			badness[i] = -t.Initial[i]
		default:
			badness[i] = math.Abs(t.Initial[i] - s.Q)
		}
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool { return badness[ids[a]] > badness[ids[b]] })
	return ids[:size]
}

// A correct t0 report checks clean, and replacing any one answer with a
// wrong one is counted as exactly one violation.
func TestInjectedWrongAnswerIsAViolation(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			in, err := Generate(small(t, w.Name, 100), 5)
			if err != nil {
				t.Fatal(err)
			}
			node, cancel, err := startNode(in, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer cancel()
			defer node.Stop()
			rep := node.Report()
			chk := newChecker(in)
			chk.check(rep)
			if chk.violations != 0 || chk.checks == 0 {
				t.Fatalf("clean report: %d checks, %d violations %v", chk.checks, chk.violations, chk.firstViolations)
			}
			for ti := range in.Tenants {
				def := &in.Tenants[ti]
				tr := &rep.Tenants[ti]
				answer, spec := &tr.Answer, def.Spec
				if len(def.Queries) > 0 {
					answer, spec = &tr.Queries[0].Answer, def.Queries[0]
				}
				saved := *answer
				*answer = worst(def, spec, max(len(saved), 5))
				before := chk.violations
				chk.check(rep)
				if chk.violations != before+1 {
					t.Errorf("tenant %d (%s): wrong answer gave %d violations, want 1", ti, spec.Protocol, chk.violations-before)
				}
				*answer = saved
			}
		})
	}
}

func TestPlanarOracleByHand(t *testing.T) {
	pts := []filter.Point{{X: 0, Y: 1}, {X: 0, Y: 2}, {X: 0, Y: 3}, {X: 0, Y: 4}, {X: 0, Y: 5}}
	checkPlanar := func(pts []filter.Point, answer []int, s protospec.Spec) error {
		dist, sorted := planarDistances(pts, s, nil, nil)
		return checkPlanar(dist, sorted, answer, s)
	}
	rtp := protospec.Spec{Protocol: "rtp2d", K: 2, R: 1}
	if err := checkPlanar(pts, []int{0, 2}, rtp); err != nil {
		t.Errorf("rank 3 is within k+r=3: %v", err)
	}
	if err := checkPlanar(pts, []int{0, 3}, rtp); err == nil {
		t.Error("rank 4 beyond k+r=3 was accepted")
	}
	if err := checkPlanar(pts, []int{0}, rtp); err == nil {
		t.Error("|A| != k was accepted")
	}
	ft := protospec.Spec{Protocol: "ft-rp2d", K: 4, EpsPlus: 0.25, EpsMinus: 0.25}
	if err := checkPlanar(pts, []int{0, 1, 2, 4}, ft); err != nil {
		t.Errorf("one false positive in four is within ε⁺=0.25: %v", err)
	}
	if err := checkPlanar(pts, []int{0, 1, 3, 4}, protospec.Spec{Protocol: "ft-rp2d", K: 4, EpsPlus: 0.2, EpsMinus: 0.5}); err == nil {
		t.Error("F⁺=0.25 > ε⁺=0.2 was accepted")
	}
}

func TestDistinctIDs(t *testing.T) {
	c := &checker{}
	if err := c.distinctIDs([]int{0, 1, 1}, 3); err == nil {
		t.Error("a duplicate id was accepted")
	}
	if err := c.distinctIDs([]int{3}, 3); err == nil {
		t.Error("an out-of-range id was accepted")
	}
	if err := c.distinctIDs([]int{2, 1, 0}, 3); err != nil {
		t.Errorf("distinct ids refused after earlier checks: %v", err)
	}
}

// One pass of every workload at a tiny size (range-wire's five segments
// open with one open-loop segment; composite-churn's four run one control
// op of each kind) answers within tolerance, and its ladder reproduces the
// pass's Report.Text on every rung.
func TestOnePassAndLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every plane")
	}
	sizes := map[string]int{"rank-knn": 2500, "range-wire": 2100, "composite-churn": 4096}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			in, err := Generate(small(t, w.Name, sizes[w.Name]), 9)
			if err != nil {
				t.Fatal(err)
			}
			r := newRun(in, true)
			if err := r.pass(r.newPlane()); err != nil {
				t.Fatal(err)
			}
			if !r.correct() {
				t.Fatalf("%d checks, %d violations %v, mismatches %v", r.checks, r.violations, r.firstViolations, r.mismatches)
			}
			ld, err := runLadder(in)
			if err != nil {
				t.Fatal(err)
			}
			if len(ld.mismatches) > 0 {
				t.Fatal(ld.mismatches)
			}
			if got := ld.rungs[rungRuntime].text; got != r.text {
				t.Fatal("runtime rung Report.Text differs from the pass")
			}
			if !ld.coreTotals {
				t.Error("core rung counters differ from the runtime rung")
			}
			if len(r.tr.all()) == 0 {
				t.Error("traced pass recorded no spans")
			}
		})
	}
}
