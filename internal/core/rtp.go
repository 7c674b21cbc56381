package core

import (
	"fmt"
	"math"

	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/rankorder"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/stream"
)

// RTP is the rank-based tolerance protocol for k-NN queries (paper §4,
// Figure 5). The server maintains a closed region R around the query point
// q that encloses at least the answer set and at most ε_k^r = k+r streams;
// R's boundary sits halfway between the (k+r)-th and (k+r+1)-st closest
// values known to the server. Every stream's filter is R, so the server only
// hears about streams crossing R, and Definition 1 correctness holds as long
// as A(t) ⊆ X(t) ⊆ {streams inside R}.
type RTP struct {
	c   server.Host
	q   query.Center
	tol RankTolerance

	inA intSet // A(t): the k answers
	inX intSet // X(t): streams the server believes inside R (A ⊆ X)
	d   float64
	cur filter.Constraint

	// Reusable scratch for the maintenance-phase repair paths (replacement
	// ranking, expanding search, X refresh), so steady-state event handling
	// allocates nothing once the buffers have grown to the stream count.
	rk       rankorder.Order
	valsBuf  []float64
	idBuf    []int  // replacement candidates / probe fan-out
	pendBuf  []int  // expanding search: candidates awaiting a reply
	spareBuf []int  // expanding search: ping-pong partner of pendBuf
	hitBuf   []int  // expanding search: conditional-probe hits, discovery order
	isHit    []bool // expanding search: dense hit membership

	// Deploys counts bound deployments; Reinits counts full
	// re-initializations from the expanding-search fallback (reports/tests).
	Deploys uint64
	Reinits uint64
}

// NewRTP returns the rank-based tolerance protocol for the k-NN query
// around q. It panics on an invalid tolerance.
func NewRTP(c server.Host, q query.Center, tol RankTolerance) *RTP {
	if err := tol.Validate(); err != nil {
		panic(err)
	}
	if tol.Eps() >= c.N() {
		panic(fmt.Sprintf("core: rank tolerance k+r=%d needs at least %d streams, have %d",
			tol.Eps(), tol.Eps()+1, c.N()))
	}
	return &RTP{c: c, q: q, tol: tol, inA: newIntSet(c.N()), inX: newIntSet(c.N())}
}

// Name implements server.Protocol.
func (p *RTP) Name() string { return fmt.Sprintf("rtp(k=%d,r=%d,%v)", p.tol.K, p.tol.R, p.q) }

// Bound returns the currently deployed region constraint (tests).
func (p *RTP) Bound() filter.Constraint { return p.cur }

// X returns X(t) as sorted ids (tests).
func (p *RTP) X() []int { return p.inX.sorted() }

// Initialize implements the Figure 5 Initialization phase: probe everything,
// seed A and X from the true ranking, deploy R.
func (p *RTP) Initialize() {
	p.valsBuf = p.c.ProbeAllInto(p.valsBuf)
	p.rebuildFromRanking()
}

// rebuildFromRanking recomputes A and X from the current server table and
// redeploys the bound (shared by Initialize and the Case 3 X refresh).
func (p *RTP) rebuildFromRanking() {
	rankByTable(&p.rk, p.c, p.q)
	e := p.tol.Eps()
	sorted := p.rk.Prefix(e + 1)
	p.inA.clear()
	p.inX.clear()
	for i, id := range sorted[:e] {
		if i < p.tol.K {
			p.inA.add(id)
		}
		p.inX.add(id)
	}
	p.deployBound(sorted)
}

// deployBound places R halfway between the ε_k^r-th and (ε_k^r+1)-st
// table distances and installs it on every stream (Figure 5 Deploy_bound).
// sorted holds at least the first ε_k^r+1 ranks.
func (p *RTP) deployBound(sorted []int) {
	e := p.tol.Eps()
	inner := tableDist(p.c, p.q, sorted[e-1])
	outer := tableDist(p.c, p.q, sorted[e])
	p.install(midpoint(inner, outer))
}

func (p *RTP) install(d float64) {
	p.d = d
	p.cur = p.q.BallConstraint(d)
	p.c.InstallAll(p.cur)
	p.Deploys++
}

// HandleUpdate implements the Figure 5 Maintenance phase.
func (p *RTP) HandleUpdate(id stream.ID, v float64) {
	p.c.AddServerOps(1)
	inside := p.cur.Contains(v)
	switch {
	case p.inA.has(id):
		if inside {
			return // stale-side refresh; still an answer
		}
		p.answerLeft(id)
	case p.inX.has(id):
		// Case 1: a non-answer member of X left R.
		if !inside {
			p.inX.remove(id)
		}
	default:
		// Case 3: a stream outside X reports; if it entered R it must be
		// tracked (otherwise it is a stale-side refresh and is ignored).
		if inside {
			p.entered(id)
		}
	}
}

// answerLeft is Figure 5 Case 2: an answer stream left R.
func (p *RTP) answerLeft(id stream.ID) {
	p.inA.remove(id)
	p.inX.remove(id)
	// Step 3: replace from X−A when possible — pick the member with the
	// highest rank (smallest table distance).
	if p.inX.len() > p.inA.len() {
		candidates := p.idBuf[:0]
		for x, in := range p.inX.bits {
			if in && !p.inA.has(x) {
				candidates = append(candidates, x)
			}
		}
		p.idBuf = candidates
		rankIDs(&p.rk, p.c, p.q, candidates)
		best, _ := p.rk.Rank(0)
		p.inA.add(best)
		return
	}
	// Step 4: X−A is empty; expand the search region outward using the old
	// ranking scores kept by the server.
	if p.expandSearch() {
		return
	}
	// Step 5: nothing found — re-run Initialization.
	p.Reinits++
	p.Initialize()
}

// expandSearch implements Figure 5 Case 2 step 4: grow a candidate region
// R' through the stale ranking, conditionally probing candidates until at
// least two respond, then rebuild A and X and redeploy the bound. The
// stale ranking is read lazily, one rank per expansion step, and may run
// to rank n. All working storage is protocol scratch; the hit bitmap is
// cleaned before every return.
func (p *RTP) expandSearch() bool {
	rankByTable(&p.rk, p.c, p.q)
	e := p.tol.Eps()
	n := p.rk.Len()
	if len(p.isHit) < n {
		p.isHit = make([]bool, n)
	}
	hits := p.hitBuf[:0] // conditional-probe hits, discovery order
	// pending holds every candidate covered by the current region that has
	// not replied yet: the non-answer streams whose stale rank is within
	// ε_k^r, plus one more stream per expansion step. Regions are nested, so
	// previous hits remain hits and only misses need re-probing.
	pending, spare := p.pendBuf[:0], p.spareBuf[:0]
	found := false
	for _, id := range p.rk.Prefix(e) {
		if !p.inA.has(id) {
			pending = append(pending, id)
		}
	}
	for j := e + 1; j <= n; j++ {
		next, _ := p.rk.Rank(j - 1)
		dPrime := tableDist(p.c, p.q, next)
		region := p.q.BallConstraint(dPrime)
		if !p.inA.has(next) {
			pending = append(pending, next)
		}
		spare = spare[:0]
		for _, cand := range pending {
			if p.isHit[cand] {
				continue
			}
			if _, ok := p.c.ProbeIf(cand, region); ok {
				// ProbeIf refreshed the table, so the hit's fresh value is
				// read back through it below.
				p.isHit[cand] = true
				hits = append(hits, cand)
			} else {
				spare = append(spare, cand)
			}
		}
		pending, spare = spare, pending
		if len(hits) < 2 {
			continue
		}
		// Found enough candidates: the closest joins A; X keeps up to r+1
		// of the closest hits alongside A. (The stale ranking is dead past
		// this point, so reusing its Order to rank the hits is safe.)
		limit := p.tol.R + 1
		if limit > len(hits) {
			limit = len(hits)
		}
		rankIDs(&p.rk, p.c, p.q, hits) // hits' table values are fresh
		u := p.rk.Prefix(limit + 1)
		p.inA.add(u[0])
		p.inX.clear()
		p.inX.addAll(&p.inA)
		for _, idm := range u[:limit] {
			p.inX.add(idm)
		}
		// Place the new bound between the farthest X member and the nearest
		// excluded candidate, capped by the probed region so conditional-
		// probe misses are guaranteed to lie outside the new R (see
		// DESIGN.md §3 on bound placement).
		inner := p.maxXDist()
		outer := dPrime
		if limit < len(u) {
			if d := tableDist(p.c, p.q, u[limit]); d < outer {
				outer = d
			}
		}
		if outer < inner {
			outer = inner
		}
		p.install(midpoint(inner, outer))
		found = true
		break
	}
	for _, h := range hits {
		p.isHit[h] = false
	}
	p.hitBuf, p.pendBuf, p.spareBuf = hits, pending, spare
	return found
}

func (p *RTP) maxXDist() float64 {
	max := math.Inf(-1)
	for x, in := range p.inX.bits {
		if !in {
			continue
		}
		if d := tableDist(p.c, p.q, x); d > max {
			max = d
		}
	}
	return max
}

// entered is Figure 5 Case 3: a stream outside X entered R.
func (p *RTP) entered(id stream.ID) {
	if p.inX.len() < p.tol.Eps() {
		// Step 6: room in X — just track it.
		p.inX.add(id)
		return
	}
	// Step 7: X is full; probe its members for fresh values and rebuild.
	p.idBuf = p.inX.appendMembers(p.idBuf[:0])
	p.c.ProbeBatch(p.idBuf)
	p.rebuildFromRanking()
}

// Answer implements server.Protocol.
func (p *RTP) Answer() []stream.ID { return p.inA.sorted() }
