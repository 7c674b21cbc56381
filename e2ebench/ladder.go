package main

import (
	"fmt"
	"net"
	"path/filepath"
	gort "runtime"
	"time"

	"adaptivefilters/client"
	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/netserve"
	"adaptivefilters/internal/protospec"
	"adaptivefilters/internal/runtime"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/sim"
	"adaptivefilters/internal/snapshot"
	"adaptivefilters/internal/wire"
)

// The ladder replays one pass's exact inputs up the serving stack, one
// layer added per rung, from a single caller and with no control op but
// the query churn that changes state. Rungs are compared in process CPU
// time, so two shard goroutines running beside the caller cannot hide a
// layer's cost: the difference between adjacent rungs is the added layer's
// self time.
const (
	rungCore     = "core"     // server.Cluster / SpatialCluster / Composite, direct
	rungRuntime  = "runtime"  // + runtime.Node
	rungCodec    = "wire"     // + wire encode/decode, no socket
	rungLoopback = "netserve" // + client and netserve over loopback TCP
	rungCluster  = "cluster"  // runtime.Node members behind the cluster router
)

// rungResult is one rung's replay.
type rungResult struct {
	cpu, wall time.Duration
	events    int
	text      string // closing Report.Text ("" for the core rung)
}

func (r rungResult) nsPerEvent() float64 { return float64(r.cpu.Nanoseconds()) / float64(r.events) }

// ladder is the traced run's replay results.
type ladder struct {
	rungs map[string]rungResult
	// Core-rung wall time and events per protocol kind.
	kindNs     map[string]time.Duration
	kindEvents map[string]int
	// coreCounters holds each tenant's core-rung (maintenance, server ops);
	// coreTotals reports whether the runtime rung's counters equal them.
	coreCounters []uint64
	coreTotals   bool
	// Codec rung figures.
	wireBytes          int
	encodeNs, decodeNs time.Duration
	// Runtime rung figures.
	ingestNs    time.Duration
	tenantBytes float64
	mismatches  []string
}

// Seed derivation labels mirrored from internal/runtime, so the core rung
// runs each protocol with the seed the node would give it and its counters
// can be compared with the runtime rung's.
const (
	tenantSeedStream int64 = 0x7E4A
	querySeedStream  int64 = 0x3D91
)

// churnOp reports whether the control op after segment seg is query churn,
// and on which tenant (the rotation clusterPlane.control runs).
func churnOp(in *Inputs, seg int) (int, bool) {
	if in.W.Queries <= 1 || seg%4 != 1 {
		return 0, false
	}
	return (seg / 4) % len(in.Tenants), true
}

// churnSpec is the query churn op seg admits.
func churnSpec(seg int) (string, protospec.Spec) {
	return fmt.Sprintf("churn-%d", seg), churnQuery(float64((37 * seg) % 850))
}

// replay feeds every segment through send, in segment order and lane by
// lane within a segment (per-tenant order is what determinism needs), and
// calls churn after each churn segment.
func replay(in *Inputs, send func([]runtime.Event) error, churn func(seg, g int) error) error {
	for seg := 0; seg < in.Segments(); seg++ {
		for l := range in.Lanes {
			if err := batches(in.segment(l, seg), in.W.Batch, send); err != nil {
				return err
			}
		}
		if g, ok := churnOp(in, seg); ok && churn != nil {
			if err := churn(seg, g); err != nil {
				return err
			}
		}
	}
	return nil
}

// timed runs fn and returns its CPU and wall time.
func timed(fn func() error) (time.Duration, time.Duration, error) {
	c0, w0 := cpuTime(), time.Now()
	err := fn()
	return cpuTime() - c0, time.Since(w0), err
}

func runLadder(in *Inputs) (*ladder, error) {
	ld := &ladder{rungs: map[string]rungResult{}, kindNs: map[string]time.Duration{}, kindEvents: map[string]int{}}
	steps := []struct {
		name string
		fn   func(*Inputs, *ladder) (rungResult, error)
		on   bool
	}{
		{rungCore, coreRung, true},
		{rungRuntime, runtimeRung, true},
		// Spatial tenants are refused by the wire and cluster planes, and
		// the codec does not carry the second coordinate.
		{rungCodec, codecRung, in.W.Name == "range-wire"},
		{rungLoopback, loopbackRung, in.W.Name == "range-wire"},
		{rungCluster, clusterRung, in.W.Name != "rank-knn"},
	}
	for _, s := range steps {
		if !s.on {
			continue
		}
		gort.GC() // no rung pays for collecting an earlier one's garbage
		res, err := s.fn(in, ld)
		if err != nil {
			return nil, fmt.Errorf("%s rung: %w", s.name, err)
		}
		ld.rungs[s.name] = res
	}
	base := ld.rungs[rungRuntime].text
	for _, name := range []string{rungCodec, rungLoopback, rungCluster} {
		if res, ok := ld.rungs[name]; ok && res.text != base {
			ld.mismatches = append(ld.mismatches, fmt.Sprintf("%s rung Report.Text differs from the runtime rung", name))
		}
	}
	return ld, nil
}

// coreTenant is one tenant on its own serving backend, driven directly.
type coreTenant struct {
	kind    string
	deliver func(ev runtime.Event)
	churn   func(seg int) error // composite tenants only
	counter func() (maint, ops uint64)
}

// buildCore puts every tenant on a fresh server.Cluster, SpatialCluster or
// Composite with the seed the runtime would give it, and runs its t0 phase.
func buildCore(in *Inputs) ([]coreTenant, error) {
	out := make([]coreTenant, len(in.Tenants))
	for i := range in.Tenants {
		t := &in.Tenants[i]
		ct := &out[i]
		ct.kind = t.kind()
		seed := sim.DeriveSeed(in.Seed, tenantSeedStream, int64(i))
		switch {
		case t.Points != nil:
			build, err := t.Spec.SpatialFactory()
			if err != nil {
				return nil, err
			}
			sc := server.NewSpatialCluster(t.Points)
			sc.SetProtocol(build(sc, seed))
			sc.Initialize()
			ct.deliver = func(ev runtime.Event) { sc.Deliver(ev.Stream, filter.Point{X: ev.Value, Y: ev.Y}) }
			ct.counter = func() (uint64, uint64) { return sc.Counter().Maintenance(), sc.Counter().ServerOps }
		case len(t.Queries) > 0:
			comp := server.NewComposite(t.Initial)
			next := int64(0)
			add := func(name string, s protospec.Spec) (int, error) {
				build, err := s.Factory()
				if err != nil {
					return 0, err
				}
				qs := sim.DeriveSeed(in.Seed, tenantSeedStream, int64(i), querySeedStream, next)
				qi := comp.AddQuery(name, next, func(h server.Host) server.Protocol { return build(h, qs) })
				next++
				return qi, nil
			}
			for j, q := range t.Queries {
				if _, err := add(fmt.Sprintf("q%d", j), q); err != nil {
					return nil, err
				}
			}
			comp.Initialize()
			live := -1
			ct.churn = func(seg int) error {
				name, s := churnSpec(seg)
				qi, err := add(name, s)
				if err != nil {
					return err
				}
				comp.InitializeQuery(qi)
				if live >= 0 {
					if err := comp.RemoveQuery(live); err != nil {
						return err
					}
				}
				live = qi
				return nil
			}
			ct.deliver = func(ev runtime.Event) { comp.Deliver(ev.Stream, ev.Value) }
			ct.counter = func() (uint64, uint64) { return comp.Counter().Maintenance(), comp.Counter().ServerOps }
		default:
			build, err := t.Spec.Factory()
			if err != nil {
				return nil, err
			}
			cl := server.NewCluster(t.Initial)
			cl.SetProtocol(build(cl, seed))
			cl.Initialize()
			ct.deliver = func(ev runtime.Event) { cl.Deliver(ev.Stream, ev.Value) }
			ct.counter = func() (uint64, uint64) { return cl.Counter().Maintenance(), cl.Counter().ServerOps }
		}
	}
	return out, nil
}

// coreRung replays the inputs on this goroutine straight into each
// tenant's serving backend, in the order the other rungs send them: the
// single-threaded baseline. A second replay on fresh backends runs tenant
// by tenant to time each protocol kind's step alone.
func coreRung(in *Inputs, ld *ladder) (rungResult, error) {
	var res rungResult
	ts, err := buildCore(in)
	if err != nil {
		return res, err
	}
	res.cpu, res.wall, err = timed(func() error {
		return replay(in, func(b []runtime.Event) error {
			for _, ev := range b {
				ts[ev.Tenant].deliver(ev)
			}
			return nil
		}, func(seg, g int) error { return ts[g].churn(seg) })
	})
	if err != nil {
		return res, err
	}
	res.events = in.Events()
	for _, t := range ts {
		m, ops := t.counter()
		ld.coreCounters = append(ld.coreCounters, m, ops)
	}

	if ts, err = buildCore(in); err != nil {
		return res, err
	}
	for i, t := range ts {
		evs, churns := soloInputs(in, i)
		_, wall, err := timed(func() error {
			k := 0
			for pos, ev := range evs {
				for ; k < len(churns) && churns[k].pos == pos; k++ {
					if err := t.churn(churns[k].seg); err != nil {
						return err
					}
				}
				t.deliver(ev)
			}
			for ; k < len(churns); k++ {
				if err := t.churn(churns[k].seg); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return res, err
		}
		ld.kindNs[t.kind] += wall
		ld.kindEvents[t.kind] += len(evs)
	}
	return res, nil
}

// churnAt is a churn op that falls on a tenant: it runs before the
// tenant's event at pos, after segment seg.
type churnAt struct{ pos, seg int }

// soloInputs extracts tenant i's events in replay order, and the churn ops
// that fall on it, so the solo replay times nothing but the tenant's work.
func soloInputs(in *Inputs, i int) ([]runtime.Event, []churnAt) {
	evs := make([]runtime.Event, 0, in.W.EventsPerTenant)
	var churns []churnAt
	_ = replay(in, func(b []runtime.Event) error { // neither callback fails
		for _, ev := range b {
			if ev.Tenant == i {
				evs = append(evs, ev)
			}
		}
		return nil
	}, func(seg, g int) error {
		if g == i {
			churns = append(churns, churnAt{len(evs), seg})
		}
		return nil
	})
	return evs, churns
}

// runtimeRung replays through one runtime.Node from this goroutine, with
// the workload's shard count, and records the tenants' snapshot sizes.
func runtimeRung(in *Inputs, ld *ladder) (rungResult, error) {
	node, cancel, err := startNode(in, in.W.Shards)
	if err != nil {
		return rungResult{}, err
	}
	defer cancel()
	defer node.Stop()
	var res rungResult
	live := make([]int, len(in.Tenants))
	for i := range live {
		live[i] = -1
	}
	res.cpu, res.wall, err = timed(func() error {
		err := replay(in, func(b []runtime.Event) error {
			t0 := time.Now()
			err := node.Ingest(b)
			ld.ingestNs += time.Since(t0)
			return err
		}, func(seg, g int) error {
			name, s := churnSpec(seg)
			build, err := s.Factory()
			if err != nil {
				return err
			}
			qi, err := node.AddQuery(g, runtime.QuerySpec{Name: name, NewProtocol: build})
			if err != nil {
				return err
			}
			if live[g] >= 0 {
				if err := node.RemoveQuery(g, live[g]); err != nil {
					return err
				}
			}
			live[g] = qi
			return nil
		})
		if err != nil {
			return err
		}
		return node.Drain()
	})
	if err != nil {
		return res, err
	}
	res.events = in.Events()
	rep := node.Report()
	res.text = rep.Text()
	ld.coreTotals = true
	for i, tr := range rep.Tenants {
		if tr.Counter.Maintenance() != ld.coreCounters[2*i] || tr.Counter.ServerOps != ld.coreCounters[2*i+1] {
			ld.coreTotals = false
		}
	}
	total := 0
	for i := range in.Tenants {
		b, err := node.ExportTenant(i)
		if err != nil {
			return res, fmt.Errorf("export tenant %d: %w", i, err)
		}
		total += len(b)
	}
	ld.tenantBytes = float64(total) / float64(len(in.Tenants))
	return res, nil
}

// codecRung adds the wire ingest codec with no socket: every batch is
// encoded into a frame payload and decoded back before the node ingests it.
func codecRung(in *Inputs, ld *ladder) (rungResult, error) {
	node, cancel, err := startNode(in, in.W.Shards)
	if err != nil {
		return rungResult{}, err
	}
	defer cancel()
	defer node.Stop()
	w := snapshot.NewWriter()
	dst := make([]runtime.Event, 0, in.W.Batch)
	var seq uint64
	var res rungResult
	res.cpu, res.wall, err = timed(func() error {
		err := replay(in, func(b []runtime.Event) error {
			seq++
			t0 := time.Now()
			w.Reset()
			wire.EncodeIngest(w, seq, b)
			t1 := time.Now()
			rd := snapshot.NewReader(w.Bytes())
			if _, err := wire.DecodeHeader(rd); err != nil {
				return err
			}
			var err error
			dst, err = wire.DecodeIngestInto(rd, dst[:0])
			t2 := time.Now()
			if err != nil {
				return err
			}
			ld.encodeNs += t1.Sub(t0)
			ld.decodeNs += t2.Sub(t1)
			ld.wireBytes += w.Len()
			return node.Ingest(dst)
		}, nil)
		if err != nil {
			return err
		}
		return node.Drain()
	})
	if err != nil {
		return res, err
	}
	res.events = in.Events()
	res.text = node.Report().Text()
	return res, nil
}

// loopbackRung adds the client and netserve over loopback TCP: one
// connection, unpaced, the workload's client window.
func loopbackRung(in *Inputs, _ *ladder) (rungResult, error) {
	node, cancel, err := startNode(in, in.W.Shards)
	if err != nil {
		return rungResult{}, err
	}
	defer cancel()
	defer node.Stop()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return rungResult{}, err
	}
	srv := netserve.Serve(ln, node, netserve.Options{ShedWatermark: -1})
	defer srv.Wait()
	defer srv.Close()
	cl, err := client.Dial(srv.Addr().String(), client.Options{Inflight: in.W.Window})
	if err != nil {
		return rungResult{}, err
	}
	defer cl.Close()
	var res rungResult
	res.cpu, res.wall, err = timed(func() error {
		err := replay(in, func(b []runtime.Event) error {
			_, err := cl.Ingest(b)
			return err
		}, nil)
		if err != nil {
			return err
		}
		return cl.Drain()
	})
	if err != nil {
		return res, err
	}
	st := cl.Stats()
	if st.Shed+st.Lost > 0 {
		return res, fmt.Errorf("loopback rung lost batches: %+v", st)
	}
	rep, err := cl.Report()
	if err != nil {
		return res, err
	}
	res.events = in.Events()
	res.text = rep.Text()
	return res, nil
}

// clusterRung routes the replay through a cluster.Cluster over two
// in-process members holding the workload's shards between them. No
// migrations run here; the traced run's own passes cover those.
func clusterRung(in *Inputs, _ *ladder) (rungResult, error) {
	members := max(in.W.Members, 2)
	shards := max(in.W.Shards*max(in.W.Members, 1)/members, 1)
	c, nodes, cancel, err := startCluster(in, members, shards)
	if err != nil {
		return rungResult{}, err
	}
	defer cancel()
	for _, n := range nodes {
		defer n.Stop()
	}
	live := make([]int, len(in.Tenants))
	for i := range live {
		live[i] = -1
	}
	var res rungResult
	res.cpu, res.wall, err = timed(func() error {
		err := replay(in, c.Ingest, func(seg, g int) error {
			_, err := churnCluster(c, live, seg, g)
			return err
		})
		if err != nil {
			return err
		}
		return c.Drain()
	})
	if err != nil {
		return res, err
	}
	rep, err := c.Report()
	if err != nil {
		return res, err
	}
	res.events = in.Events()
	res.text = rep.Text()
	return res, nil
}

// spanPath is where a traced run writes its spans.
func spanPath(dir string, in *Inputs) string {
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", in.W.Name, in.Seed))
}
