package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"adaptivefilters/client"
	"adaptivefilters/internal/cluster"
	"adaptivefilters/internal/netserve"
	"adaptivefilters/internal/protospec"
	"adaptivefilters/internal/runtime"
	"adaptivefilters/internal/wire"
)

// plane is one workload's serving stack as a pass drives it: set up, ingest
// segment by segment, run the control op scheduled after each segment,
// fetch the final report, tear down. Everything between setup and teardown
// except the benchmark's own oracle work is timed.
type plane interface {
	setup() error
	// ingest sends segment seg on every lane and reports whether the
	// segment was unpaced (counted toward throughput).
	ingest(seg int) (unpaced bool, err error)
	// control runs the op scheduled after segment seg. It returns the
	// report when the op was a read, for the oracle to check.
	control(seg int) (*runtime.Report, error)
	// final drains and returns the pass's closing report (untimed).
	final() (*runtime.Report, error)
	teardown()
}

// wireSpec is tenant t's declarative spec, the form the wire and cluster
// planes admit.
func (t *tenantDef) wireSpec() wire.TenantSpec {
	ws := wire.TenantSpec{Name: t.Name, Initial: t.Initial, Spec: t.Spec}
	for j, q := range t.Queries {
		ws.Queries = append(ws.Queries, wire.QuerySpec{Name: fmt.Sprintf("q%d", j), Spec: q})
	}
	return ws
}

// runtimeSpec compiles tenant t for in-process hosting.
func (t *tenantDef) runtimeSpec() (runtime.TenantSpec, error) {
	if t.Points == nil {
		return t.wireSpec().Runtime()
	}
	if err := t.Spec.Validate(len(t.Points)); err != nil {
		return runtime.TenantSpec{}, err
	}
	build, err := t.Spec.SpatialFactory()
	if err != nil {
		return runtime.TenantSpec{}, err
	}
	return runtime.TenantSpec{Name: t.Name, SpatialInitial: t.Points, NewSpatial: build}, nil
}

// startNode builds and starts a node over every tenant of in and finishes
// its t0 initialization.
func startNode(in *Inputs, shards int) (*runtime.Node, context.CancelFunc, error) {
	specs := make([]runtime.TenantSpec, len(in.Tenants))
	for i := range in.Tenants {
		s, err := in.Tenants[i].runtimeSpec()
		if err != nil {
			return nil, nil, fmt.Errorf("tenant %d: %w", i, err)
		}
		specs[i] = s
	}
	node, err := runtime.NewNode(runtime.Config{Shards: shards, Seed: in.Seed}, specs)
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := node.Start(ctx); err != nil {
		cancel()
		return nil, nil, err
	}
	if err := node.Drain(); err != nil {
		node.Stop()
		cancel()
		return nil, nil, err
	}
	return node, cancel, nil
}

// batches calls send on each Batch-sized slice of events.
func batches(events []runtime.Event, size int, send func([]runtime.Event) error) error {
	for lo := 0; lo < len(events); lo += size {
		hi := min(lo+size, len(events))
		if err := send(events[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// eachLane runs fn for every lane concurrently (inline for one lane) and
// returns the first error.
func eachLane(lanes int, fn func(l int) error) error {
	if lanes == 1 {
		return fn(0)
	}
	errs := make([]error, lanes)
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			errs[l] = fn(l)
		}(l)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// nodePlane is rank-knn: a runtime.Node fed by one runtime.Ingester per
// lane, closed loop; the control op is a read (Drain + Report).
type nodePlane struct {
	r      *run
	node   *runtime.Node
	cancel context.CancelFunc
	ings   []*runtime.Ingester
	logs   []*spanLog // one per lane, then the control goroutine's
	// Per-lane figures, merged into the run at teardown.
	acks  [][]float64
	ingNs []time.Duration
	ingEv []int
}

func newNodePlane(r *run) *nodePlane {
	lanes := r.in.W.Lanes
	p := &nodePlane{r: r, acks: make([][]float64, lanes), ingNs: make([]time.Duration, lanes), ingEv: make([]int, lanes)}
	for l := 0; l <= r.in.W.Lanes; l++ {
		p.logs = append(p.logs, r.tr.log())
	}
	return p
}

func (p *nodePlane) setup() error {
	node, cancel, err := startNode(p.r.in, p.r.in.W.Shards)
	if err != nil {
		return err
	}
	p.node, p.cancel = node, cancel
	p.ings = p.ings[:0]
	for l := 0; l < p.r.in.W.Lanes; l++ {
		p.ings = append(p.ings, node.NewIngester())
	}
	return nil
}

func (p *nodePlane) ingest(seg int) (bool, error) {
	in := p.r.in
	err := eachLane(in.W.Lanes, func(l int) error {
		ing, lg := p.ings[l], p.logs[l]
		return batches(in.segment(l, seg), in.W.Batch, func(b []runtime.Event) error {
			id, _ := lg.begin()
			t0 := time.Now()
			err := ing.Ingest(b)
			d := time.Since(t0)
			lg.end(id, 0, uint64(seg), "runtime", "Ingester.Ingest", t0)
			p.acks[l] = append(p.acks[l], ms(d))
			p.ingNs[l] += d
			p.ingEv[l] += len(b)
			return err
		})
	})
	return true, err
}

func (p *nodePlane) control(seg int) (*runtime.Report, error) {
	lg := p.logs[len(p.logs)-1]
	op := uint64(seg)
	id, st := lg.begin()
	t0 := time.Now()
	if err := lg.do(id, op, "runtime", "Node.Drain", p.node.Drain); err != nil {
		return nil, err
	}
	t1 := time.Now()
	var rep *runtime.Report
	_ = lg.do(id, op, "runtime", "Node.Report", func() error { // Report cannot fail
		rep = p.node.Report()
		return nil
	})
	p.r.drain = append(p.r.drain, ms(t1.Sub(t0)))
	p.r.report = append(p.r.report, ms(time.Since(t1)))
	lg.end(id, 0, op, "bench", "control.read", st)
	return rep, nil
}

func (p *nodePlane) final() (*runtime.Report, error) {
	if err := p.node.Drain(); err != nil {
		return nil, err
	}
	st := p.node.ShardStats()
	loads := make([]float64, len(st))
	for i, s := range st {
		loads[i] = float64(s.Applied)
	}
	p.r.shardSkew = append(p.r.shardSkew, skew(loads))
	return p.node.Report(), nil
}

func (p *nodePlane) teardown() {
	p.node.Stop()
	p.cancel()
	p.node, p.ings = nil, nil
	for l := range p.acks {
		p.r.ack = append(p.r.ack, p.acks[l]...)
		p.acks[l] = p.acks[l][:0]
		p.r.ingestNs += p.ingNs[l]
		p.r.ingestEvents += p.ingEv[l]
		p.ingNs[l], p.ingEv[l] = 0, 0
	}
}

// wirePlane is range-wire: client → loopback TCP → netserve → runtime.Node
// over one connection per lane. The first OpenLoopShare of the segments is
// an open loop at W.OpenLoopRate; the rest is unpaced, limited only by the
// client window. The control op is a read: Drain on every connection, then
// Report over connection 0.
type wirePlane struct {
	r      *run
	node   *runtime.Node
	cancel context.CancelFunc
	srv    *netserve.Server
	conns  []*wireConn
	logs   []*spanLog
}

// wireConn is one pipelined client plus the bookkeeping its sender and its
// ack callback share.
type wireConn struct {
	cl *client.Client

	mu       sync.Mutex
	inflight map[uint64]sendRec
	early    map[uint64]ackRec
	acks     []float64 // ms from due to ack, open-loop phase
	rtt      []float64 // µs from Ingest return to ack, open-loop phase
	out      outcomes

	// Sender-only figures.
	calls   []float64 // µs inside Client.Ingest
	late    []float64 // ms send start minus due, open-loop phase
	pending int       // deepest node backlog seen at a batch boundary
}

type sendRec struct {
	due, sent time.Time
	open      bool
}

type ackRec struct {
	at     time.Time
	status byte
}

func newWirePlane(r *run) *wirePlane {
	p := &wirePlane{r: r}
	for l := 0; l <= r.in.W.Lanes; l++ {
		p.logs = append(p.logs, r.tr.log())
	}
	return p
}

func (p *wirePlane) setup() error {
	node, cancel, err := startNode(p.r.in, p.r.in.W.Shards)
	if err != nil {
		return err
	}
	p.node, p.cancel, p.srv = node, cancel, nil
	p.conns = p.conns[:0]
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.node.Stop()
		p.cancel()
		return err
	}
	// Shedding is off: a shed batch would be a visible drop the oracle
	// and the byte-identity checks cannot replay. Backpressure stalls the
	// readers instead, which the client window turns into a closed loop.
	p.srv = netserve.Serve(ln, node, netserve.Options{ShedWatermark: -1})
	for l := 0; l < p.r.in.W.Lanes; l++ {
		wc, err := dialConn(p.srv.Addr().String(), p.r.in.W.Window)
		if err != nil {
			p.teardown()
			return err
		}
		p.conns = append(p.conns, wc)
	}
	return nil
}

func dialConn(addr string, window int) (*wireConn, error) {
	wc := &wireConn{inflight: make(map[uint64]sendRec), early: make(map[uint64]ackRec)}
	cl, err := client.Dial(addr, client.Options{
		Inflight: window,
		OnIngestAck: func(seq uint64, status byte) {
			at := time.Now()
			wc.mu.Lock()
			if rec, ok := wc.inflight[seq]; ok {
				delete(wc.inflight, seq)
				wc.settle(rec, at, status)
			} else {
				wc.early[seq] = ackRec{at, status}
			}
			wc.mu.Unlock()
		},
	})
	if err != nil {
		return nil, err
	}
	wc.cl = cl
	return wc, nil
}

// settle accounts one acked batch. Caller holds wc.mu.
func (wc *wireConn) settle(rec sendRec, at time.Time, status byte) {
	switch status {
	case wire.StatusOK:
		if rec.open {
			wc.acks = append(wc.acks, ms(at.Sub(rec.due)))
			wc.rtt = append(wc.rtt, us(at.Sub(rec.sent)))
		}
	case wire.StatusShed:
		wc.out.Shed++
	case client.StatusLost:
		wc.out.Lost++
	default:
		wc.out.Errored++
	}
}

// openSegments is how many leading segments run open loop.
func (p *wirePlane) openSegments() int {
	return int(float64(p.r.in.Segments()) * p.r.in.W.OpenLoopShare)
}

func (p *wirePlane) ingest(seg int) (bool, error) {
	in := p.r.in
	open := seg < p.openSegments()
	var gap time.Duration
	if open {
		gap = time.Duration(float64(in.W.Batch) * float64(in.W.Lanes) / in.W.OpenLoopRate * float64(time.Second))
	}
	start := time.Now()
	err := eachLane(in.W.Lanes, func(l int) error {
		wc, lg := p.conns[l], p.logs[l]
		i := 0
		return batches(in.segment(l, seg), in.W.Batch, func(b []runtime.Event) error {
			due := time.Now()
			if open {
				due = start.Add(time.Duration(i) * gap)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
			}
			i++
			wc.pending = max(wc.pending, p.node.PendingBatches())
			id, _ := lg.begin()
			t0 := time.Now()
			seq, err := wc.cl.Ingest(b)
			t1 := time.Now()
			lg.end(id, 0, uint64(seg), "client", "Client.Ingest", t0)
			wc.calls = append(wc.calls, us(t1.Sub(t0)))
			if open && err == nil {
				// A paced sender puts each batch on the socket when it is
				// due; unpaced, the client window decides when to flush.
				wc.late = append(wc.late, ms(t0.Sub(due)))
				err = lg.do(0, uint64(seg), "client", "Client.Flush", wc.cl.Flush)
				t1 = time.Now()
			}
			if errors.Is(err, client.ErrDisconnected) {
				wc.mu.Lock()
				wc.out.Dropped++
				wc.mu.Unlock()
				return nil
			}
			if err != nil {
				return err
			}
			rec := sendRec{due: due, sent: t1, open: open}
			wc.mu.Lock()
			if a, ok := wc.early[seq]; ok {
				delete(wc.early, seq)
				wc.settle(rec, a.at, a.status)
			} else {
				wc.inflight[seq] = rec
			}
			wc.mu.Unlock()
			return nil
		})
	})
	return !open, err
}

func (p *wirePlane) control(seg int) (*runtime.Report, error) {
	lg := p.logs[len(p.logs)-1]
	op := uint64(seg)
	id, st := lg.begin()
	t0 := time.Now()
	for _, wc := range p.conns {
		if err := lg.do(id, op, "client", "Client.Drain", wc.cl.Drain); err != nil {
			return nil, err
		}
	}
	t1 := time.Now()
	var rep *runtime.Report
	err := lg.do(id, op, "client", "Client.Report", func() error {
		var e error
		rep, e = p.conns[0].cl.Report()
		return e
	})
	if err != nil {
		return nil, err
	}
	lg.end(id, 0, op, "bench", "control.read", st)
	p.r.drain = append(p.r.drain, ms(t1.Sub(t0)))
	p.r.report = append(p.r.report, ms(time.Since(t1)))
	return rep, nil
}

func (p *wirePlane) final() (*runtime.Report, error) {
	for _, wc := range p.conns {
		if err := wc.cl.Drain(); err != nil {
			return nil, err
		}
	}
	return p.conns[0].cl.Report()
}

func (p *wirePlane) teardown() {
	for _, wc := range p.conns {
		wc.cl.Close()
		wc.mu.Lock()
		p.r.ack = append(p.r.ack, wc.acks...)
		p.r.rtt = append(p.r.rtt, wc.rtt...)
		p.r.out.add(wc.out)
		// Batches still unacknowledged at teardown never completed.
		p.r.out.Lost += uint64(len(wc.inflight))
		wc.mu.Unlock()
		p.r.clientCall = append(p.r.clientCall, wc.calls...)
		p.r.pendingMax = max(p.r.pendingMax, wc.pending)
		p.r.late = append(p.r.late, wc.late...)
		st := wc.cl.Stats()
		p.r.clientStats.Acked += st.Acked
		p.r.clientStats.Shed += st.Shed
		p.r.clientStats.Lost += st.Lost
	}
	if p.srv != nil {
		p.srv.Close()
		p.srv.Wait()
	}
	p.node.Stop()
	p.cancel()
	p.node, p.srv, p.conns = nil, nil, nil
}

// clusterPlane is composite-churn: a cluster.Cluster over in-process
// members, ingested through Cluster.Ingest by one caller. After segment j
// control op j runs, rotating through a read (Drain + Report), query churn
// (AddQuery + RemoveQuery), a MigrateTenant and a MemberStats call.
type clusterPlane struct {
	r      *run
	nodes  []*runtime.Node
	cancel context.CancelFunc
	c      *cluster.Cluster
	churn  []int // per tenant, the live churned query slot (-1 none)
	lg     *spanLog
}

func newClusterPlane(r *run) *clusterPlane {
	return &clusterPlane{r: r, lg: r.tr.log()}
}

func (p *clusterPlane) setup() error {
	in := p.r.in
	c, nodes, cancel, err := startCluster(in, in.W.Members, in.W.Shards)
	if err != nil {
		return err
	}
	p.c, p.nodes, p.cancel = c, nodes, cancel
	p.churn = make([]int, len(in.Tenants))
	for i := range p.churn {
		p.churn[i] = -1
	}
	return nil
}

// startCluster starts members in-process nodes of shards shards each, puts
// a cluster.Cluster over them, admits every tenant of in and finishes their
// t0 initialization. Tear down by stopping the nodes, then cancelling.
func startCluster(in *Inputs, members, shards int) (*cluster.Cluster, []*runtime.Node, context.CancelFunc, error) {
	ctx, cancel := context.WithCancel(context.Background())
	var nodes []*runtime.Node
	fail := func(err error) (*cluster.Cluster, []*runtime.Node, context.CancelFunc, error) {
		for _, n := range nodes {
			n.Stop()
		}
		cancel()
		return nil, nil, nil, err
	}
	mems := make([]cluster.Member, members)
	for m := range mems {
		node, err := runtime.NewNodeLabeled(runtime.Config{Shards: shards, Seed: in.Seed}, nil, nil)
		if err != nil {
			return fail(err)
		}
		if err := node.Start(ctx); err != nil {
			return fail(err)
		}
		nodes = append(nodes, node)
		mems[m] = cluster.NewLocalMember(node)
	}
	c, err := cluster.New(cluster.Config{}, mems)
	if err != nil {
		return fail(err)
	}
	for i := range in.Tenants {
		if _, err := c.AddTenant(in.Tenants[i].wireSpec()); err != nil {
			return fail(err)
		}
	}
	if err := c.Drain(); err != nil {
		return fail(err)
	}
	return c, nodes, cancel, nil
}

// churnCluster runs churn op seg on tenant g: it admits the op's query and
// then evicts the tenant's previous churn query (live[g], -1 for none).
func churnCluster(c *cluster.Cluster, live []int, seg, g int) (protospec.Spec, error) {
	name, spec := churnSpec(seg)
	qi, err := c.AddQuery(g, wire.QuerySpec{Name: name, Spec: spec})
	if err != nil {
		return spec, err
	}
	if live[g] >= 0 {
		if err := c.RemoveQuery(g, live[g]); err != nil {
			return spec, err
		}
	}
	live[g] = qi
	return spec, nil
}

func (p *clusterPlane) ingest(seg int) (bool, error) {
	in := p.r.in
	err := batches(in.segment(0, seg), in.W.Batch, func(b []runtime.Event) error {
		id, _ := p.lg.begin()
		t0 := time.Now()
		err := p.c.Ingest(b)
		d := time.Since(t0)
		p.lg.end(id, 0, uint64(seg), "cluster", "Cluster.Ingest", t0)
		p.r.ack = append(p.r.ack, ms(d))
		p.r.routeNs += d
		return err
	})
	p.r.routeEvents += len(in.segment(0, seg))
	return true, err
}

func (p *clusterPlane) control(seg int) (*runtime.Report, error) {
	in := p.r.in
	op := uint64(seg)
	g := (seg / 4) % len(in.Tenants)
	lg := p.lg
	id, st := lg.begin()
	var rep *runtime.Report
	var err error
	switch seg % 4 {
	case 0:
		t0 := time.Now()
		err = lg.do(id, op, "cluster", "Cluster.Drain", p.c.Drain)
		t1 := time.Now()
		if err == nil {
			err = lg.do(id, op, "cluster", "Cluster.Report", func() error {
				var e error
				rep, e = p.c.Report()
				return e
			})
			p.r.drain = append(p.r.drain, ms(t1.Sub(t0)))
			p.r.report = append(p.r.report, ms(time.Since(t1)))
		}
		lg.end(id, 0, op, "bench", "control.read", st)
	case 1:
		t0 := time.Now()
		var spec protospec.Spec
		err = lg.do(id, op, "cluster", "Cluster.AddQuery+RemoveQuery", func() error {
			var e error
			spec, e = churnCluster(p.c, p.churn, seg, g)
			return e
		})
		if err == nil {
			p.r.chk.addSlot(g, spec)
		}
		p.r.churnMs = append(p.r.churnMs, ms(time.Since(t0)))
		lg.end(id, 0, op, "bench", "control.churn", st)
	case 2:
		t0 := time.Now()
		var m int
		if m, err = p.c.MemberOf(g); err == nil {
			err = lg.do(id, op, "cluster", "Cluster.MigrateTenant", func() error {
				return p.c.MigrateTenant(g, (m+1)%in.W.Members)
			})
		}
		p.r.migrate = append(p.r.migrate, ms(time.Since(t0)))
		lg.end(id, 0, op, "bench", "control.migrate", st)
	case 3:
		err = lg.do(id, op, "cluster", "Cluster.MemberStats", func() error {
			_, e := p.c.MemberStats()
			return e
		})
		lg.end(id, 0, op, "bench", "control.stats", st)
	}
	return rep, err
}

func (p *clusterPlane) final() (*runtime.Report, error) {
	stats, err := p.c.MemberStats()
	if err != nil {
		return nil, err
	}
	loads := make([]float64, len(stats))
	for i, s := range stats {
		loads[i] = float64(s.TotalEvents)
	}
	p.r.memberSkew = append(p.r.memberSkew, skew(loads))
	return p.c.Report()
}

func (p *clusterPlane) teardown() {
	for _, n := range p.nodes {
		n.Stop()
	}
	p.cancel()
	p.nodes, p.c = nil, nil
}
