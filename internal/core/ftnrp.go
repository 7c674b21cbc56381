package core

import (
	"fmt"

	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/sim"
	"adaptivefilters/internal/stream"
)

// ReinitPolicy controls what FT-NRP does when both silent-filter pools are
// exhausted (the paper: "the protocol reduces to ZT-NRP. To exploit
// tolerance, the Initialization Phase of FT-NRP may be run again").
type ReinitPolicy int

const (
	// ReinitAlways re-runs the initialization phase as soon as both n⁺ and
	// n⁻ reach zero (and re-running would allocate at least one silent
	// filter). The re-initialization messages are charged to maintenance.
	ReinitAlways ReinitPolicy = iota
	// ReinitNever lets the protocol degrade to ZT-NRP permanently.
	ReinitNever
)

// String names the policy.
func (p ReinitPolicy) String() string {
	if p == ReinitNever {
		return "never"
	}
	return "always"
}

// FTNRPConfig parameterizes the fraction-based tolerance protocol for
// non-rank-based queries.
type FTNRPConfig struct {
	// Tol is the user's fraction-based tolerance (ε⁺, ε⁻).
	Tol FractionTolerance
	// Selection picks which streams get silent filters (default
	// boundary-nearest; Figure 14 compares against random).
	Selection Selection
	// Seed drives the random selection heuristic.
	Seed int64
	// Faithful reproduces the Figure 7 pseudocode exactly in Fix_Error step
	// 1(III): a probed false-positive stream found outside the range keeps
	// its [−∞,∞] filter and stays in the n⁺ pool. The default (strict)
	// variant installs [l,u] on it and retires the filter, which closes a
	// false-negative accounting leak (see DESIGN.md §3).
	Faithful bool
	// Reinit controls re-initialization on silent-filter depletion.
	Reinit ReinitPolicy
}

// FTNRP is the fraction-based tolerance protocol for range queries
// (paper §5.1.1, Figure 7). Out of the streams satisfying the query, up to
// Emax⁺ receive the [−∞,∞] false-positive filter; out of the rest, up to
// Emax⁻ receive the [∞,∞] false-negative filter. Both kinds are silent —
// the streams are effectively shut down (saving battery in the paper's
// sensor reading) — and the count/Fix_Error machinery keeps F⁺ <= ε⁺ and
// F⁻ <= ε⁻ at all times.
type FTNRP struct {
	c   server.Host
	rng query.Range
	cfg FTNRPConfig
	sel *sim.RNG

	ans   intSet // A(t)
	fp    intSet // streams currently holding false-positive filters
	fn    intSet // streams currently holding false-negative filters
	count int    // net insertions since the last baseline (Figure 7)

	// Reusable scratch for the (re-)initialization fan-out, so protocol
	// re-initializations triggered from the maintenance path allocate
	// nothing: the probe table, the candidate ids (inside the range first,
	// then outside), the selection keys and the selection sorter. The id
	// and key buffers are sized to the whole population on first use, so
	// no later answer-set size can outgrow them.
	valsBuf []float64
	partBuf []int
	keyBuf  []float64
	ks      keyedSorter

	// Reinits counts maintenance-phase re-initializations (for reports).
	Reinits uint64
}

// NewFTNRP returns the fraction-based range protocol. It panics on an
// invalid tolerance so misconfigurations fail loudly at setup.
func NewFTNRP(c server.Host, rng query.Range, cfg FTNRPConfig) *FTNRP {
	if err := cfg.Tol.Validate(); err != nil {
		panic(err)
	}
	return &FTNRP{
		c: c, rng: rng, cfg: cfg,
		sel: sim.NewRNG(cfg.Seed).Split(ftnrpSelStream),
		ans: newIntSet(c.N()), fp: newIntSet(c.N()), fn: newIntSet(c.N()),
	}
}

// Name implements server.Protocol.
func (p *FTNRP) Name() string { return fmt.Sprintf("ft-nrp(%v,%v)", p.cfg.Tol, p.cfg.Selection) }

// NPlus returns n⁺, the current number of false-positive filters.
func (p *FTNRP) NPlus() int { return p.fp.len() }

// NMinus returns n⁻, the current number of false-negative filters.
func (p *FTNRP) NMinus() int { return p.fn.len() }

// Count exposes the Figure 7 count variable (tests).
func (p *FTNRP) Count() int { return p.count }

// HasAnswer reports whether stream id is currently in A(t).
func (p *FTNRP) HasAnswer(id stream.ID) bool { return p.ans.has(id) }

// Initialize implements the Figure 7 Initialization phase.
func (p *FTNRP) Initialize() {
	p.valsBuf = p.c.ProbeAllInto(p.valsBuf)
	vals := p.valsBuf
	p.c.AddServerOps(len(vals))
	p.assignFromTable(vals)
	for id := range vals {
		cons, inside := p.filterFor(id, vals[id])
		p.c.Install(id, cons, inside)
	}
}

// assignFromTable computes the initial answer set and the silent-filter
// assignments from the given table snapshot without exchanging any
// messages; Initialize composes it with a ProbeAll and per-stream installs.
func (p *FTNRP) assignFromTable(vals []float64) {
	p.ans.clear()
	p.fp.clear()
	p.fn.clear()
	p.count = 0
	if cap(p.partBuf) < len(vals) {
		p.partBuf = make([]int, len(vals))
		p.keyBuf = make([]float64, 0, len(vals))
	}
	k := 0
	for _, v := range vals {
		if p.rng.Contains(v) {
			k++
		}
	}
	part := p.partBuf[:len(vals)]
	inside, outside := part[:0:k], part[k:k]
	for id, v := range vals {
		if p.rng.Contains(v) {
			p.ans.add(id)
			inside = append(inside, id)
		} else {
			outside = append(outside, id)
		}
	}
	nPlus := p.cfg.Tol.MaxFalsePositives(len(inside))
	nMinus := p.cfg.Tol.MaxFalseNegatives(len(inside))
	for _, id := range p.pickSilent(inside, vals, nPlus) {
		p.fp.add(id)
	}
	for _, id := range p.pickSilent(outside, vals, nMinus) {
		p.fn.add(id)
	}
}

// pickSilent selects up to n silent-filter holders from ids (reordering
// them), scoring by distance to the query boundary. All buffers are
// protocol-owned scratch, so a warmed call allocates nothing.
func (p *FTNRP) pickSilent(ids []int, vals []float64, n int) []int {
	p.keyBuf = p.keyBuf[:0]
	for _, id := range ids {
		p.keyBuf = append(p.keyBuf, p.rng.BoundaryDist(vals[id]))
	}
	return p.cfg.Selection.pickKeyed(&p.ks, ids, p.keyBuf, n, p.sel.Rand)
}

// filterFor returns the constraint this protocol wants installed at stream
// id given its table value v, plus the side of the constraint the server
// believes the stream is on: the silent [−∞,∞] / [∞,∞] filters for the
// selected tolerance holders, the query interval for everyone else.
func (p *FTNRP) filterFor(id stream.ID, v float64) (filter.Constraint, bool) {
	switch {
	case p.fp.has(id):
		return filter.WideOpen(), true
	case p.fn.has(id):
		return filter.Shut(), false
	default:
		return p.rng.Constraint(), p.rng.Contains(v)
	}
}

// HandleUpdate implements the Figure 7 Maintenance phase.
func (p *FTNRP) HandleUpdate(id stream.ID, v float64) {
	p.c.AddServerOps(1)
	if p.rng.Contains(v) {
		// Case 1: the stream entered the range and is now an answer.
		if !p.ans.has(id) {
			p.ans.add(id)
			p.count++
		}
		return
	}
	// Case 2: the stream left the range.
	if !p.ans.has(id) {
		return // e.g. an install-mismatch refresh from a non-answer stream
	}
	p.ans.remove(id)
	if p.count > 0 {
		p.count--
		return
	}
	p.fixError()
	p.maybeReinit()
}

// fixError is Figure 7's Fix_Error: consult one false-positive and (if
// needed) one false-negative stream to restore the error fractions.
func (p *FTNRP) fixError() {
	if p.fp.len() > 0 {
		sy, _ := p.fp.min()
		vy := p.c.Probe(sy)
		if p.rng.Contains(vy) {
			// Sy is a true positive: pin it with the real constraint and
			// retire the filter. Correctness restored; done. (Re-adding to
			// the answer matters only in faithful mode, where a previously
			// evicted stream can still hold a false-positive filter.)
			p.ans.add(sy)
			p.c.Install(sy, p.rng.Constraint(), true)
			p.fp.remove(sy)
			return
		}
		// Sy turned out to be a false positive: drop it from the answer.
		p.ans.remove(sy)
		if p.cfg.Faithful {
			// Pseudocode-faithful: Sy keeps [−∞,∞] and remains in the pool.
			// (It can silently re-enter the range later; see DESIGN.md §3.)
		} else {
			p.c.Install(sy, p.rng.Constraint(), false)
			p.fp.remove(sy)
		}
	}
	if p.fn.len() > 0 {
		sz, _ := p.fn.min()
		vz := p.c.Probe(sz)
		inside := p.rng.Contains(vz)
		if inside {
			p.ans.add(sz)
		}
		p.c.Install(sz, p.rng.Constraint(), inside)
		p.fn.remove(sz)
	}
}

// maybeReinit re-runs initialization when both silent pools are exhausted
// and the policy allows it. The messages are charged to the maintenance
// phase, faithfully pricing the re-acquisition of tolerance.
func (p *FTNRP) maybeReinit() {
	if p.cfg.Reinit != ReinitAlways || p.fp.len() > 0 || p.fn.len() > 0 {
		return
	}
	// Re-running only pays off if it would allocate at least one silent
	// filter; with ε = 0 the protocol is exactly ZT-NRP and must not loop.
	if p.cfg.Tol.MaxFalsePositives(p.ans.len()) == 0 &&
		p.cfg.Tol.MaxFalseNegatives(p.ans.len()) == 0 {
		return
	}
	p.Reinits++
	p.Initialize()
}

// Answer implements server.Protocol.
func (p *FTNRP) Answer() []stream.ID { return p.ans.sorted() }
