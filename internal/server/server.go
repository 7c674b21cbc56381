// Package server implements the central stream processor of the paper's
// Figure 3: it owns the stream sources' uplinks, the server-side value table,
// message accounting, and hosts a Protocol (the query processing unit plus
// constraint assignment unit).
//
// All communication primitives the protocols may use — probing a stream,
// conditionally probing, installing a filter, broadcasting a bound — live
// here so that every message is counted exactly once and protocols cannot
// accidentally peek at ground truth.
package server

import (
	"fmt"

	"adaptivefilters/internal/comm"
	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/sim"
	"adaptivefilters/internal/stream"
)

// Host is the narrow server-side surface a protocol programs against: the
// communication primitives (probes, installs), the server value table and
// the computation metric. A *Cluster is the canonical Host, but anything
// that can answer probes, deploy filters and account messages — a per-query
// view inside a Composite, a tenant slot inside runtime.Node, a mock in
// tests — can host a protocol. Every message a protocol can cause flows
// through this interface, so accounting stays exact no matter who hosts it.
type Host interface {
	// N returns the number of streams.
	N() int
	// Probe requests stream id's current value (one Probe plus one
	// ProbeReply message) and refreshes the server table.
	Probe(id stream.ID) float64
	// ProbeIf asks stream id to reply only when its value lies inside cons;
	// the probe is always counted, the reply only on a hit.
	ProbeIf(id stream.ID, cons filter.Constraint) (float64, bool)
	// ProbeAll probes every stream (2n messages) and returns the refreshed
	// table.
	ProbeAll() []float64
	// ProbeAllInto is ProbeAll writing into dst when its capacity suffices
	// (allocating only otherwise), so periodic re-initializations inside the
	// ingest hot path can reuse one buffer. The message accounting is
	// identical to ProbeAll.
	ProbeAllInto(dst []float64) []float64
	// ProbeBatch probes every listed stream (2·len(ids) messages, counted in
	// one batched counter update) and refreshes the table; callers read the
	// fresh values back through Table. It replaces per-stream Probe fan-out
	// loops on the maintenance path.
	ProbeBatch(ids []stream.ID)
	// Install deploys a filter constraint to one stream (one Install
	// message). expectInside is the side of the interval the server's table
	// implies.
	Install(id stream.ID, cons filter.Constraint, expectInside bool)
	// InstallAll deploys the same constraint to every stream.
	InstallAll(cons filter.Constraint)
	// Table returns the server's belief about stream id's value and whether
	// the stream has ever been heard from.
	Table(id stream.ID) (float64, bool)
	// TableValues returns a snapshot copy of the server value table.
	TableValues() []float64
	// AddServerOps records server-side ranking work (computation metric).
	AddServerOps(n int)
}

// Protocol is a filter-bound assignment protocol hosted by a Cluster: one of
// the paper's RTP, ZT-NRP, FT-NRP, ZT-RP, FT-RP or the no-filter baseline.
type Protocol interface {
	// Name identifies the protocol in reports.
	Name() string
	// Initialize performs the time-t0 Initialization Phase: probe streams,
	// compute the initial answer, deploy filter constraints.
	Initialize()
	// HandleUpdate is the Maintenance Phase entry point: the server received
	// an update (filter violation or unfiltered report) from stream id with
	// value v.
	HandleUpdate(id stream.ID, v float64)
	// Answer returns the current answer set A(t) as stream IDs, in
	// unspecified order.
	Answer() []stream.ID
}

// Config tunes cluster message accounting and fault injection.
type Config struct {
	// BroadcastInstall, when true, counts an InstallAll as a single message
	// instead of n. The paper charges one message per stream ("the new R has
	// to be announced to every stream"), which is the default; the broadcast
	// variant is an ablation (BenchmarkAblationBroadcast).
	BroadcastInstall bool
	// DropUpdateProb injects uplink loss: each stream→server update message
	// is lost in transit with this probability. The message is still counted
	// (the sensor transmitted it) but the server never sees it, so its value
	// table and the protocol's answer silently diverge — the paper assumes
	// reliable delivery, and the robustness tests quantify what that
	// assumption buys. Probe replies and installs are never dropped.
	DropUpdateProb float64
	// DropSeed makes the loss process reproducible.
	DropSeed int64
}

// lossSeedStream labels the uplink-loss RNG stream derived from
// Config.DropSeed via sim.DeriveSeed (cf. the selection-stream labels in
// internal/core).
const lossSeedStream int64 = 0x1CEB

type pendingUpdate struct {
	id stream.ID
	v  float64
}

// Cluster wires n stream sources to a hosted protocol and accounts every
// message. It is the canonical Host implementation.
type Cluster struct {
	cfg     Config
	sources []*stream.Source
	proto   Protocol

	// table is the server's last known value per stream (V̂): updated by
	// reports and probes. known marks streams heard from at least once.
	table []float64
	known []bool

	ctr comm.Counter
	// pending is a reusable FIFO of updates awaiting protocol handling:
	// receive appends at the tail, drain consumes via head and resets both
	// once empty, so the steady-state delivery path never reallocates it.
	pending  []pendingUpdate
	head     int
	draining bool
	lossRng  *sim.RNG
	// DroppedUpdates counts update messages lost to injected uplink loss.
	DroppedUpdates uint64
}

var _ Host = (*Cluster)(nil)

// NewCluster creates a cluster over the given initial true stream values.
// The server table starts unknown: protocols learn values by probing.
func NewCluster(initial []float64) *Cluster { return NewClusterWith(initial, Config{}) }

// NewClusterWith is NewCluster with explicit accounting configuration.
func NewClusterWith(initial []float64, cfg Config) *Cluster {
	c := &Cluster{
		cfg:   cfg,
		table: make([]float64, len(initial)),
		known: make([]bool, len(initial)),
	}
	if cfg.DropUpdateProb > 0 {
		c.lossRng = sim.NewRNG(sim.DeriveSeed(cfg.DropSeed, lossSeedStream))
	}
	c.sources = make([]*stream.Source, len(initial))
	for i, v := range initial {
		c.sources[i] = stream.New(i, v, c.receive)
	}
	return c
}

// N returns the number of streams.
func (c *Cluster) N() int { return len(c.sources) }

// SetProtocol installs the hosted protocol. It must be called exactly once
// before Initialize.
func (c *Cluster) SetProtocol(p Protocol) {
	if c.proto != nil {
		panic("server: protocol already set")
	}
	c.proto = p
}

// Protocol returns the hosted protocol.
func (c *Cluster) Protocol() Protocol { return c.proto }

// Counter exposes the message counter (read-mostly; the experiment harness
// switches phases through it).
func (c *Cluster) Counter() *comm.Counter { return &c.ctr }

// Initialize runs the protocol's initialization phase in the Init accounting
// bucket and then switches to Maintenance.
func (c *Cluster) Initialize() {
	if c.proto == nil {
		panic("server: Initialize without protocol")
	}
	c.ctr.SetPhase(comm.Init)
	c.proto.Initialize()
	c.drain()
	c.ctr.SetPhase(comm.Maintenance)
}

// receive is the uplink callback given to every source: counts the update,
// refreshes the table and queues the update for protocol handling.
func (c *Cluster) receive(id stream.ID, v float64) {
	c.ctr.Add(comm.Update, 1)
	if c.lossRng != nil && c.lossRng.Float64() < c.cfg.DropUpdateProb {
		// The sensor transmitted (and flipped its recorded side), but the
		// server never hears it: table and answers silently diverge.
		c.DroppedUpdates++
		return
	}
	c.table[id] = v
	c.known[id] = true
	c.pending = append(c.pending, pendingUpdate{id, v})
}

// Deliver applies a workload value change to stream id and then drains all
// resulting protocol work (including cascaded install-mismatch reports).
func (c *Cluster) Deliver(id stream.ID, v float64) {
	c.sources[id].Set(v)
	c.drain()
}

// drain feeds queued updates to the protocol one at a time. Updates that
// arrive while the protocol is handling one (e.g. mismatch reports caused by
// installs) are appended behind head and processed after the current handler
// returns, in order. The queue storage is reused across deliveries.
func (c *Cluster) drain() {
	if c.draining {
		return
	}
	c.draining = true
	defer func() { c.draining = false }()
	for c.head < len(c.pending) {
		u := c.pending[c.head]
		c.head++
		c.proto.HandleUpdate(u.id, u.v)
	}
	c.pending = c.pending[:0]
	c.head = 0
}

// --- primitives available to protocols -------------------------------------

// Probe requests the current value of stream id (one Probe plus one
// ProbeReply message) and refreshes the server table.
func (c *Cluster) Probe(id stream.ID) float64 {
	chargeProbes(&c.ctr, 1)
	v := c.sources[id].Probe()
	c.table[id] = v
	c.known[id] = true
	return v
}

// ProbeAll probes every stream (2n messages) and returns a copy of the
// refreshed table. This is the paper's "request all streams to send their
// values" initialization step.
func (c *Cluster) ProbeAll() []float64 { return c.ProbeAllInto(nil) }

// ProbeAllInto is ProbeAll writing into dst when cap(dst) >= n; protocols
// that re-initialize on the maintenance path pass a reusable buffer so the
// fan-out allocates nothing. The per-stream accounting is identical.
func (c *Cluster) ProbeAllInto(dst []float64) []float64 {
	n := c.N()
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range c.sources {
		dst[i] = c.Probe(i)
	}
	return dst
}

// ProbeBatch probes every listed stream, refreshing the table; the 2·len(ids)
// messages land on the counter in one batched update per kind.
func (c *Cluster) ProbeBatch(ids []stream.ID) {
	if len(ids) == 0 {
		return
	}
	chargeProbes(&c.ctr, uint64(len(ids)))
	for _, id := range ids {
		v := c.sources[id].Probe()
		c.table[id] = v
		c.known[id] = true
	}
}

// ProbeIf asks stream id to reply only when its current value lies inside
// cons (RTP step 4: "the server then queries the clients if their values are
// within the expanded region"). The probe message is always counted; the
// reply — and the table refresh — happen only on a hit.
func (c *Cluster) ProbeIf(id stream.ID, cons filter.Constraint) (float64, bool) {
	chargeProbeRequest(&c.ctr)
	v := c.sources[id].Probe() // the source evaluates the predicate locally
	if !cons.Contains(v) {
		return 0, false
	}
	chargeProbeReply(&c.ctr)
	c.table[id] = v
	c.known[id] = true
	return v, true
}

// Install deploys a filter constraint to one stream (one Install message).
// expectInside is the side of the interval the server's table implies; on
// mismatch the source reports immediately (counted as an update and queued).
func (c *Cluster) Install(id stream.ID, cons filter.Constraint, expectInside bool) {
	chargeInstalls(&c.ctr, 1)
	c.sources[id].Install(cons, expectInside)
	c.drain() // no-op when already inside a delivery cycle
}

// InstallAll deploys the same constraint to every stream, deriving each
// stream's expected side from the server table. It costs n Install messages
// (or 1 when BroadcastInstall is set).
func (c *Cluster) InstallAll(cons filter.Constraint) {
	if c.cfg.BroadcastInstall {
		chargeInstalls(&c.ctr, 1)
	} else {
		chargeInstalls(&c.ctr, uint64(c.N()))
	}
	for i, s := range c.sources {
		s.Install(cons, cons.Contains(c.table[i]))
	}
	c.drain() // no-op when already inside a delivery cycle
}

// Table returns the server's current belief about stream id's value and
// whether the stream has ever been heard from.
func (c *Cluster) Table(id stream.ID) (float64, bool) { return c.table[id], c.known[id] }

// TableValues returns a snapshot copy of the server value table. Entries for
// never-heard streams are zero; see Table for the known flag.
func (c *Cluster) TableValues() []float64 {
	out := make([]float64, len(c.table))
	copy(out, c.table)
	return out
}

// Constraint returns the filter currently installed at stream id (the server
// knows what it installed; this does not cost a message).
func (c *Cluster) Constraint(id stream.ID) filter.Constraint {
	return c.sources[id].Constraint()
}

// AddServerOps records server-side ranking work for the computation metric.
func (c *Cluster) AddServerOps(n int) { c.ctr.AddServerOps(uint64(n)) }

// --- inspection (oracle / tests only) ---------------------------------------

// TrueValue returns the ground-truth value of stream id. Protocols must not
// call this; it exists for the oracle and tests.
func (c *Cluster) TrueValue(id stream.ID) float64 { return c.sources[id].Value() }

// Source exposes the underlying source for tests.
func (c *Cluster) Source(id stream.ID) *stream.Source { return c.sources[id] }

// String summarizes the cluster.
func (c *Cluster) String() string {
	name := "<none>"
	if c.proto != nil {
		name = c.proto.Name()
	}
	return fmt.Sprintf("cluster{n=%d proto=%s %v}", c.N(), name, &c.ctr)
}
