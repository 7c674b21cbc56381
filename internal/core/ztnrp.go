package core

import (
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/stream"
)

// ZTNRP is the zero-tolerance protocol for non-rank-based (range) queries
// (paper §5.1): every stream filter is set to the query interval [l, u], so
// each filter evaluates the range query locally and reports only boundary
// crossings. The answer is always exact, but no tolerance is exploited.
type ZTNRP struct {
	c   server.Host
	rng query.Range
	ans intSet
}

// NewZTNRP returns the zero-tolerance range protocol.
func NewZTNRP(c server.Host, rng query.Range) *ZTNRP {
	return &ZTNRP{c: c, rng: rng, ans: newIntSet(c.N())}
}

// Name implements server.Protocol.
func (p *ZTNRP) Name() string { return "zt-nrp" }

// Initialize probes all streams, computes the exact answer and installs the
// query interval as every stream's filter constraint.
func (p *ZTNRP) Initialize() {
	vals := p.c.ProbeAll()
	for id, v := range vals {
		if p.rng.Contains(v) {
			p.ans.add(id)
		}
	}
	p.c.AddServerOps(len(vals))
	p.c.InstallAll(p.rng.Constraint())
}

// HandleUpdate processes a boundary crossing: the stream either entered or
// left the query range.
func (p *ZTNRP) HandleUpdate(id stream.ID, v float64) {
	if p.rng.Contains(v) {
		p.ans.add(id)
	} else {
		p.ans.remove(id)
	}
	p.c.AddServerOps(1)
}

// Answer implements server.Protocol.
func (p *ZTNRP) Answer() []stream.ID { return p.ans.sorted() }
