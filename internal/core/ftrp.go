package core

import (
	"fmt"
	"math"

	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/rankorder"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/sim"
	"adaptivefilters/internal/stream"
)

// FTRPConfig parameterizes the fraction-based tolerance protocol for k-NN
// queries.
type FTRPConfig struct {
	// Tol is the user's fraction-based tolerance (ε⁺, ε⁻) for the k-NN
	// query. The protocol internally derives the FT-NRP tolerances
	// (ρ⁺, ρ⁻) on the Equation 16 frontier.
	Tol FractionTolerance
	// Lambda splits the Equation 16 budget between ρ⁺ (λ→1) and ρ⁻ (λ→0).
	// 0.5 by default-construction in NewFTRP when NaN/zero-value configs use
	// DefaultFTRPConfig.
	Lambda float64
	// Selection picks the silent-filter streams (boundary-nearest default).
	Selection Selection
	// Seed drives the random selection heuristic.
	Seed int64
	// Faithful mirrors FTNRPConfig.Faithful for the shared Fix_Error step.
	Faithful bool
}

// DefaultFTRPConfig returns the configuration used in the paper's Figure 15
// reproduction: balanced λ, boundary-nearest selection.
func DefaultFTRPConfig(tol FractionTolerance) FTRPConfig {
	return FTRPConfig{Tol: tol, Lambda: 0.5, Selection: SelectBoundaryNearest}
}

// FTRP is the fraction-based tolerance protocol for k-NN queries (paper
// §5.2.2–5.2.3). It transforms the k-NN query into a range query over the
// region R enclosing the k-th nearest neighbor and runs the FT-NRP machinery
// with derived tolerances (ρ⁺, ρ⁻) satisfying Equation 16, so the user's
// (ε⁺, ε⁻) hold despite rank-shuffle effects (Figure 8). Unlike ZT-RP, R is
// only recomputed when the answer size leaves the admissible window
// k(1−ε⁻) <= |A(t)| <= k/(1−ε⁺) (Equations 7 and 9).
type FTRP struct {
	c   server.Host
	q   query.Center
	k   int
	cfg FTRPConfig
	sel *sim.RNG

	rhoPlus, rhoMinus         float64
	nPlusBudget, nMinusBudget int
	minA, maxA                int

	ans   intSet // A(t): streams believed inside R
	fp    intSet // false-positive (WideOpen) filter holders
	fn    intSet // false-negative (Shut) filter holders
	count int

	d   float64
	cur filter.Constraint

	// Reusable scratch for the rebuild fan-out (ranking, probe table,
	// selection keys), so window-triggered recomputations on the
	// maintenance path allocate nothing once warm.
	rk      rankorder.Order
	valsBuf []float64
	keyBuf  []float64
	ks      keyedSorter

	// Recomputes counts full bound recomputations; exported for reports.
	Recomputes uint64
}

// NewFTRP returns the fraction-based k-NN protocol. It panics on an invalid
// tolerance or k.
func NewFTRP(c server.Host, q query.Center, k int, cfg FTRPConfig) *FTRP {
	if err := cfg.Tol.Validate(); err != nil {
		panic(err)
	}
	if k <= 0 || k >= c.N() {
		panic(fmt.Sprintf("core: ft-rp needs 1 <= k < n, got k=%d n=%d", k, c.N()))
	}
	p := &FTRP{
		c: c, q: q, k: k, cfg: cfg,
		sel: sim.NewRNG(cfg.Seed).Split(ftrpSelStream),
		ans: newIntSet(c.N()), fp: newIntSet(c.N()), fn: newIntSet(c.N()),
	}
	p.rhoPlus, p.rhoMinus = cfg.Tol.DeriveRho(cfg.Lambda)
	p.nPlusBudget = int(float64(k) * p.rhoPlus)
	p.nMinusBudget = int(float64(k) * p.rhoMinus)
	p.deriveWindow()
	return p
}

// deriveWindow computes the answer-size window jointly with the silent
// filter budgets. The paper derives the window k(1−ε⁻) <= |A| <= k/(1−ε⁺)
// (Equations 7 and 9) and the silent budgets ρ⁺, ρ⁻ (Equation 16)
// independently, but both spend the same error budget: a maximally loose R
// already contributes |A|−k structural false positives, so silent-filter
// errors on top of it would exceed ε⁺. We therefore shrink the window by
// the total silent budget s = n⁺+n⁻:
//
//	maxA = ⌊(k − s)/(1−ε⁺)⌋   (E⁺ <= (|A|+n⁻−k) + n⁺ <= ε⁺·|A|)
//	minA = ⌈k(1−ε⁻)⌉ + s      (E⁻ <= (k−|A|+n⁺) + n⁻ <= ε⁻·k)
//
// and, when no window containing k exists, shed silent filters first. This
// keeps Definition 3 verifiable by the oracle at every instant (see
// DESIGN.md §3 and the FT-RP property tests).
func (p *FTRP) deriveWindow() {
	eps := p.cfg.Tol
	for {
		s := p.nPlusBudget + p.nMinusBudget
		maxA := int(math.Floor(float64(p.k-s) / (1 - eps.EpsPlus)))
		minA := int(math.Ceil(float64(p.k)*(1-eps.EpsMinus))) + s
		if pm, pM := eps.AnswerBounds(p.k); minA < pm || maxA > pM {
			// Never exceed the paper's own window.
			if minA < pm {
				minA = pm
			}
			if maxA > pM {
				maxA = pM
			}
		}
		if (maxA >= p.k && minA <= p.k) || s == 0 {
			p.minA, p.maxA = minA, maxA
			return
		}
		if p.nMinusBudget >= p.nPlusBudget {
			p.nMinusBudget--
		} else {
			p.nPlusBudget--
		}
	}
}

// Name implements server.Protocol.
func (p *FTRP) Name() string {
	return fmt.Sprintf("ft-rp(k=%d,%v,λ=%g)", p.k, p.cfg.Tol, p.cfg.Lambda)
}

// Rho returns the derived (ρ⁺, ρ⁻) pair (tests).
func (p *FTRP) Rho() (rhoPlus, rhoMinus float64) { return p.rhoPlus, p.rhoMinus }

// Bound returns the deployed region (tests).
func (p *FTRP) Bound() filter.Constraint { return p.cur }

// NPlus returns the current number of false-positive filters.
func (p *FTRP) NPlus() int { return p.fp.len() }

// NMinus returns the current number of false-negative filters.
func (p *FTRP) NMinus() int { return p.fn.len() }

// Initialize probes everything and deploys R plus the silent filters.
func (p *FTRP) Initialize() {
	p.valsBuf = p.c.ProbeAllInto(p.valsBuf)
	p.rebuild()
}

// rebuild recomputes R around the k nearest per the server table, resets the
// answer to those k streams, and re-assigns silent filters with budgets
// floor(k·ρ⁺) and floor(k·ρ⁻).
func (p *FTRP) rebuild() {
	rankByTable(&p.rk, p.c, p.q)
	sorted := p.rk.Prefix(p.k + 1)
	p.ans.clear()
	p.fp.clear()
	p.fn.clear()
	p.count = 0
	inside := sorted[:p.k]
	for _, id := range inside {
		p.ans.add(id)
	}
	inner := tableDist(p.c, p.q, sorted[p.k-1])
	outer := tableDist(p.c, p.q, sorted[p.k])
	p.d = midpoint(inner, outer)
	p.cur = p.q.BallConstraint(p.d)

	// Boundary-nearest for a ball region: inside streams closest to the
	// boundary have the largest distance from q; outside streams closest to
	// the boundary have the smallest distance beyond it. The picks reorder
	// the settled ranks in place, inside first; the outside pick only reads
	// and settles ranks past k, and no rank is consulted again below.
	for _, id := range p.pickSilent(inside, p.nPlusBudget, true) {
		p.fp.add(id)
	}
	for _, id := range p.pickSilent(p.outsideCandidates(p.nMinusBudget), p.nMinusBudget, false) {
		p.fn.add(id)
	}

	for id := 0; id < p.c.N(); id++ {
		switch {
		case p.fp.has(id):
			p.c.Install(id, filter.WideOpen(), true)
		case p.fn.has(id):
			p.c.Install(id, filter.Shut(), false)
		default:
			v, _ := p.c.Table(id)
			p.c.Install(id, p.cur, p.cur.Contains(v))
		}
	}
	p.Recomputes++
}

// outsideCandidates returns the ranks past k, in (distance, id) order,
// from which pickSilent chooses n false-negative holders — as many of
// them as the choice can depend on, settling no more ranks than that.
//
// SelectRandom shuffles the whole candidate slice, so its RNG trajectory
// needs every rank past k. Boundary-nearest orders candidates by
// (d − R, id). Rounding keeps d − R monotone in d, so the (distance, id)
// order lists those keys non-decreasing, but it can map distinct
// distances to one key, which then breaks by id. The prefix therefore runs
// past the n-th candidate until the next key is strictly greater than the
// n-th key: every candidate tied with the n-th key is then in it, and
// pickSilent's (key, id) sort of the prefix chooses exactly the n a sort of
// all n−k candidates would. A non-finite R makes every key ±Inf or NaN,
// none strictly greater than another, so the prefix then runs to the last
// rank and the pick sees the same slice a full sort would hand it.
func (p *FTRP) outsideCandidates(n int) []int {
	total := p.rk.Len()
	end := total
	if p.cfg.Selection != SelectRandom {
		end = min(p.k+n, total)
		if end > p.k {
			_, d := p.rk.Rank(end - 1)
			last := d - p.d
			for ; end < total; end++ {
				if _, d := p.rk.Rank(end); d-p.d > last {
					break
				}
			}
		}
	}
	return p.rk.Prefix(end)[p.k:]
}

// pickSilent selects up to n silent-filter holders from ids (reordering
// them), scoring by distance to the ball boundary. All buffers are
// protocol-owned scratch, so a warmed call allocates nothing.
func (p *FTRP) pickSilent(ids []int, n int, insideRegion bool) []int {
	p.keyBuf = p.keyBuf[:0]
	for _, id := range ids {
		d := tableDist(p.c, p.q, id)
		if insideRegion {
			p.keyBuf = append(p.keyBuf, p.d-d)
		} else {
			p.keyBuf = append(p.keyBuf, d-p.d)
		}
	}
	return p.cfg.Selection.pickKeyed(&p.ks, ids, p.keyBuf, n, p.sel.Rand)
}

// HandleUpdate runs the FT-NRP maintenance machinery against the current R
// and recomputes R when the answer size leaves the admissible window.
func (p *FTRP) HandleUpdate(id stream.ID, v float64) {
	p.c.AddServerOps(1)
	if p.cur.Contains(v) {
		if !p.ans.has(id) {
			p.ans.add(id)
			p.count++
		}
	} else if p.ans.has(id) {
		p.ans.remove(id)
		if p.count > 0 {
			p.count--
		} else {
			p.fixError()
		}
	}
	p.checkWindow()
}

// fixError mirrors FT-NRP's Fix_Error with the range replaced by R.
func (p *FTRP) fixError() {
	if p.fp.len() > 0 {
		sy, _ := p.fp.min()
		vy := p.c.Probe(sy)
		if p.cur.Contains(vy) {
			p.ans.add(sy)
			p.c.Install(sy, p.cur, true)
			p.fp.remove(sy)
			return
		}
		p.ans.remove(sy)
		if !p.cfg.Faithful {
			p.c.Install(sy, p.cur, false)
			p.fp.remove(sy)
		}
	}
	if p.fn.len() > 0 {
		sz, _ := p.fn.min()
		vz := p.c.Probe(sz)
		inside := p.cur.Contains(vz)
		if inside {
			p.ans.add(sz)
		}
		p.c.Install(sz, p.cur, inside)
		p.fn.remove(sz)
	}
}

// checkWindow enforces §5.2.3(2): when |A(t)| exceeds k/(1−ε⁺) the region is
// too loose, when it drops below k(1−ε⁻) it is too tight; either way R must
// be recomputed around the current k nearest neighbors.
func (p *FTRP) checkWindow() {
	if n := p.ans.len(); n >= p.minA && n <= p.maxA {
		return
	}
	p.valsBuf = p.c.ProbeAllInto(p.valsBuf)
	p.rebuild()
}

// Answer implements server.Protocol.
func (p *FTRP) Answer() []stream.ID { return p.ans.sorted() }
