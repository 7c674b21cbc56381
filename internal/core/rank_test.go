package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"adaptivefilters/internal/query"
	"adaptivefilters/internal/rankorder"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/sim"
	"adaptivefilters/internal/stream"
)

// nanTableHost feeds the ranker a NaN distance: Table returns NaN, which
// the validated ingest and restore paths can never produce.
type nanTableHost struct{ server.Host }

func (nanTableHost) N() int                          { return 4 }
func (nanTableHost) Table(stream.ID) (float64, bool) { return math.NaN(), true }
func (nanTableHost) AddServerOps(int)                {}

// TestRankTablePanicsOnNaN is the 1-D twin of multidim's test of the same
// name: both planes share one ranker, and a NaN distance panics at the
// fill instead of sorting into an arbitrary order.
func TestRankTablePanicsOnNaN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NaN distance did not panic the rank table")
		}
	}()
	var o rankorder.Order
	rankByTable(&o, nanTableHost{}, query.At(0))
}

// fullSortPicks is FT-RP's silent-filter choice computed the way it was
// before ranking became lazy: sort the whole table by (distance, id), then
// pick from all of sorted[:k] and all of sorted[k:]. It returns both
// choices ascending.
func fullSortPicks(c server.Host, q query.Center, k, nPlus, nMinus int, sel Selection, rng *rand.Rand) (fp, fn []int) {
	n := c.N()
	order := keyedSorter{ids: make([]int, n), keys: make([]float64, n)}
	for i := 0; i < n; i++ {
		order.ids[i], order.keys[i] = i, tableDist(c, q, i)
	}
	sort.Sort(&order)
	r := midpoint(order.keys[k-1], order.keys[k])
	pick := func(ids []int, budget int, inside bool) []int {
		ids = append([]int(nil), ids...)
		keys := make([]float64, len(ids))
		for i, id := range ids {
			if d := tableDist(c, q, id); inside {
				keys[i] = r - d
			} else {
				keys[i] = d - r
			}
		}
		var ks keyedSorter
		out := append([]int(nil), sel.pickKeyed(&ks, ids, keys, budget, rng)...)
		sort.Ints(out)
		return out
	}
	fp = pick(order.ids[:k], nPlus, true)
	fn = pick(order.ids[k:], nMinus, false)
	return fp, fn
}

func sameIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFTRPPrefixRuleMatchesFullSort pins the boundary-nearest prefix rule
// against a full sort. In the rounding case R is 1 and the n⁻-th and
// (n⁻+1)-st outside candidates sit at 2^53+4 and 2^53+6: distinct
// distances whose keys d − R round to the same value, with the nearer one
// holding the larger id. Cutting the ranking at exactly k+n⁻ would pick
// id 9; a full sort by (d − R, id) picks id 4. In the infinite cases R is
// ±Inf, so keys past k are ±Inf or NaN and the pick needs every rank.
func TestFTRPPrefixRuleMatchesFullSort(t *testing.T) {
	big := math.Ldexp(1, 53)
	if !(big+4 < big+6) || (big+4)-1 != (big+6)-1 {
		t.Fatal("the tie this test relies on does not round as expected")
	}
	inf := math.Inf(1)
	cases := []struct {
		name      string
		vals      []float64
		q         query.Center
		k, nMinus int
		wantR     float64
		wantFN    []int // nil: only compared with the full sort
	}{
		// Inside: ids 0–3 at distance 0. Outside by distance: id 5 (2, so
		// R = midpoint(0, 2) = 1), id 6 (3), id 9 (2^53+4), id 4
		// (2^53+6), then ids 7 and 8 far away.
		{"rounding-tie", []float64{0, 0, 0, 0, big + 6, 2, 3, 1e17, 2e17, big + 4},
			query.At(0), 4, 3, 1, []int{4, 5, 6}},
		{"R=+inf", []float64{5, 1, inf, inf, inf, inf, inf}, query.At(0), 2, 2, inf, nil},
		{"R=-inf", []float64{inf, inf, inf, inf, 3, 2, 1}, query.Top(), 2, 2, -inf, nil},
	}
	for _, tc := range cases {
		c := server.NewCluster(tc.vals)
		p := NewFTRP(c, tc.q, tc.k, DefaultFTRPConfig(FractionTolerance{EpsPlus: 0.4, EpsMinus: 0.4}))
		p.nPlusBudget, p.nMinusBudget = 1, tc.nMinus
		c.SetProtocol(p)
		c.Initialize()
		if p.d != tc.wantR {
			t.Fatalf("%s: R = %v, want %v", tc.name, p.d, tc.wantR)
		}
		wantFP, wantFN := fullSortPicks(c, p.q, tc.k, 1, tc.nMinus, SelectBoundaryNearest, nil)
		if got := p.fn.sorted(); !sameIDs(got, wantFN) || (tc.wantFN != nil && !sameIDs(got, tc.wantFN)) {
			t.Fatalf("%s: false-negative holders = %v, full sort picks %v (want %v)", tc.name, got, wantFN, tc.wantFN)
		}
		if got := p.fp.sorted(); !sameIDs(got, wantFP) {
			t.Fatalf("%s: false-positive holders = %v, full sort picks %v", tc.name, got, wantFP)
		}
	}
}

// TestFTRPRandomSelectionTrajectory pins SelectRandom across rebuilds: the
// lazy ranker must still hand the selection every rank past k, so each
// rebuild shuffles the same slices and draws the same numbers as a full
// sort would, and the chosen sets and the RNG position stay identical.
func TestFTRPRandomSelectionTrajectory(t *testing.T) {
	const n, k = 300, 30
	rng := sim.NewRNG(5)
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Round(rng.Uniform(0, 1000)) // integer values: many distance ties
	}
	c := server.NewCluster(vals)
	cfg := DefaultFTRPConfig(FractionTolerance{EpsPlus: 0.3, EpsMinus: 0.3})
	cfg.Selection, cfg.Seed = SelectRandom, 9
	p := NewFTRP(c, query.At(500), k, cfg)
	if p.nPlusBudget == 0 || p.nMinusBudget == 0 {
		t.Fatalf("budgets (%d, %d) leave a pick unexercised", p.nPlusBudget, p.nMinusBudget)
	}
	c.SetProtocol(p)
	for round := 0; round < 5; round++ {
		// The reference draws from a copy of the selection stream at the
		// position this rebuild starts from (maintenance between rounds may
		// rebuild on its own and draw too).
		ref := sim.NewRNG(cfg.Seed).Split(ftrpSelStream)
		if round == 0 {
			c.Initialize()
		} else {
			for i := 0; i < 50; i++ {
				c.Deliver(rng.Intn(n), math.Round(rng.Uniform(0, 1000)))
			}
			p.valsBuf = c.ProbeAllInto(p.valsBuf)
			if err := ref.Skip(p.sel.Pos()); err != nil {
				t.Fatal(err)
			}
			p.rebuild()
		}
		wantFP, wantFN := fullSortPicks(c, p.q, k, p.nPlusBudget, p.nMinusBudget, SelectRandom, ref.Rand)
		if got := p.fp.sorted(); !sameIDs(got, wantFP) {
			t.Fatalf("round %d: false-positive holders = %v, full sort picks %v", round, got, wantFP)
		}
		if got := p.fn.sorted(); !sameIDs(got, wantFN) {
			t.Fatalf("round %d: false-negative holders = %v, full sort picks %v", round, got, wantFN)
		}
		if p.sel.Pos() != ref.Pos() {
			t.Fatalf("round %d: RNG at %d draws, full sort at %d", round, p.sel.Pos(), ref.Pos())
		}
	}
}

// TestWarmRankPathsAllocateNothing holds every 1-D ranker consumer to the
// §5.2 allocation policy: once warm, RTP's rebuild, replacement and
// expanding search, ZT-RP's rebuild and FT-RP's rebuild under both
// selection heuristics allocate nothing.
func TestWarmRankPathsAllocateNothing(t *testing.T) {
	const n = 500
	rng := sim.NewRNG(3)
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Uniform(0, 1000)
	}
	q := query.At(500)

	rc := server.NewCluster(vals)
	rtp := NewRTP(rc, q, RankTolerance{K: 5, R: 3})
	rc.SetProtocol(rtp)
	rc.Initialize()
	zc := server.NewCluster(vals)
	ztrp := NewZTRP(zc, q, 20)
	zc.SetProtocol(ztrp)
	zc.Initialize()
	ftrps := map[Selection]*FTRP{}
	for _, sel := range []Selection{SelectBoundaryNearest, SelectRandom} {
		fc := server.NewCluster(vals)
		cfg := DefaultFTRPConfig(FractionTolerance{EpsPlus: 0.3, EpsMinus: 0.3})
		cfg.Selection = sel
		ftrps[sel] = NewFTRP(fc, q, 30, cfg)
		fc.SetProtocol(ftrps[sel])
		fc.Initialize()
	}

	paths := []struct {
		name string
		run  func() bool
	}{
		{"rtp/rebuild", func() bool { rtp.rebuildFromRanking(); return true }},
		{"rtp/replace", func() bool {
			rtp.rebuildFromRanking()
			id, _ := rtp.inA.min()
			rtp.answerLeft(id) // X−A is non-empty: ranks the candidates
			return rtp.inA.len() == rtp.tol.K
		}},
		{"rtp/expand", func() bool {
			rtp.rebuildFromRanking()
			// Empty X−A, then lose an answer: Case 2 step 4.
			for x, in := range rtp.inX.bits {
				if in && !rtp.inA.has(x) {
					rtp.inX.remove(x)
				}
			}
			id, _ := rtp.inA.min()
			rtp.inA.remove(id)
			rtp.inX.remove(id)
			return rtp.expandSearch()
		}},
		{"zt-rp/rebuild", func() bool { ztrp.rebuild(); return true }},
		{"ft-rp/rebuild/boundary", func() bool { ftrps[SelectBoundaryNearest].rebuild(); return true }},
		{"ft-rp/rebuild/random", func() bool { ftrps[SelectRandom].rebuild(); return true }},
	}
	for _, path := range paths {
		ok := true
		allocs := testing.AllocsPerRun(20, func() { ok = path.run() && ok })
		if !ok {
			t.Errorf("%s: the path did not run as set up", path.name)
		}
		if allocs != 0 {
			t.Errorf("%s: %v allocs per warm run, want 0", path.name, allocs)
		}
	}
}
