package main

import (
	"fmt"
	"math"
	"sort"

	"adaptivefilters/internal/comm"
)

// tracedRun is the --trace 1 run: untraced passes alternating with passes
// that record spans around every call into a layer, then the ladder
// replay. It reports the per-layer metrics; a metric a workload cannot
// produce from outside the program reads 0 and its reason is printed.
func tracedRun(in *Inputs, seconds float64, desc descriptor, spanDir string) (result, error) {
	// Untraced and traced passes alternate, so the overhead estimate does
	// not compare a cold process with a warm one. The traced run also
	// gathers enough migrations for their p90.
	plain, r := newRun(in, false), newRun(in, true)
	enough := func() bool { return in.W.Members == 0 || len(r.migrate) >= 100 }
	if err := measure(seconds/2, enough, plain, r); err != nil {
		return result{}, err
	}
	ld, err := runLadder(in)
	if err != nil {
		return result{}, err
	}
	if r.text != ld.rungs[rungRuntime].text {
		ld.mismatches = append(ld.mismatches, "traced run Report.Text differs from the runtime rung")
	}
	if plain.text != r.text {
		ld.mismatches = append(ld.mismatches, "untraced and traced runs' Report.Text differ")
	}
	// Fold the untraced passes into r, which then speaks for both.
	r.checks += plain.checks
	r.violations += plain.violations
	r.firstViolations = append(r.firstViolations, plain.firstViolations...)
	r.mismatches = append(append(r.mismatches, plain.mismatches...), ld.mismatches...)
	r.out.add(plain.out)
	r.printChecks()

	path := spanPath(spanDir, in)
	if err := r.tr.write(path, desc); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(r.tr.all()), path)
	printSelf(r.tr.all())

	pl := perLayer(in, plain, r, ld)
	for _, k := range []string{rungCore, rungRuntime, rungCodec, rungLoopback, rungCluster} {
		if rg, ok := ld.rungs[k]; ok {
			fmt.Printf("ladder rung %-8s cpu %8.1f ns/event  wall %v over %d events\n", k, rg.nsPerEvent(), rg.wall, rg.events)
		}
	}
	fmt.Printf("core rung counters equal runtime rung: %v\n", ld.coreTotals)
	for _, k := range pl.order {
		if why, ok := pl.na[k]; ok {
			fmt.Printf("n/a %s: %s\n", k, why)
		}
	}
	return result{Correct: r.correct(), Attempted: r.out.Attempted, Failed: r.out.failed(), Metrics: pl.m}, nil
}

// layerMetrics collects the per-layer metrics in a fixed order, with the
// reason for each one this workload cannot produce.
type layerMetrics struct {
	m     map[string]metric
	na    map[string]string
	order []string
}

func (l *layerMetrics) set(name, unit string, v float64) {
	l.order = append(l.order, name)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	l.m[name] = metric{v, unit}
}

func (l *layerMetrics) skip(name, unit, why string) {
	l.set(name, unit, 0)
	l.na[name] = why
}

// pct sets a percentile metric, or states why the samples cannot give it.
func (l *layerMetrics) pct(name, unit string, samples []float64, q float64, why string) {
	if len(samples) == 0 {
		l.skip(name, unit, why)
		return
	}
	v, err := windowedPercentile(samples, q)
	if err != nil {
		l.skip(name, unit, err.Error())
		return
	}
	l.set(name, unit, v)
}

// perLayer computes every per-layer metric from the untraced run (plain),
// the traced run (r) and the ladder.
func perLayer(in *Inputs, plain, r *run, ld *ladder) *layerMetrics {
	l := &layerMetrics{m: map[string]metric{}, na: map[string]string{}}
	w := in.W.Name

	for _, k := range []string{"rtp", "ft-rp", "ft-nrp", "zt-nrp"} {
		stepMetric(l, "core.step_ns_per_event."+k, k, ld)
	}
	for _, k := range []string{"rtp2d", "ft-rp2d"} {
		stepMetric(l, "multidim.step_ns_per_event."+k, k, ld)
	}
	stepMetric(l, "server.composite_step_ns_per_event", "composite", ld)

	// Message mix over the traced run's pass (identical in every pass).
	ev := float64(r.passEvents)
	get := func(k comm.Kind) float64 { return float64(r.totals.Get(comm.Maintenance, k)) }
	l.set("core.msgs_per_kevent.update", "msgs", 1000*get(comm.Update)/ev)
	l.set("core.msgs_per_kevent.probe", "msgs", 1000*get(comm.Probe)/ev)
	l.set("core.msgs_per_kevent.probe_reply", "msgs", 1000*get(comm.ProbeReply)/ev)
	l.set("core.msgs_per_kevent.install", "msgs", 1000*get(comm.Install)/ev)
	l.set("core.filter_suppression", "ratio", 1-get(comm.Update)/ev)
	if get(comm.Probe) > 0 {
		l.set("core.probe_hit_ratio", "ratio", get(comm.ProbeReply)/get(comm.Probe))
	} else {
		l.skip("core.probe_hit_ratio", "ratio", "no maintenance probes were sent")
	}

	// Self time per layer from the ladder, in process CPU per event.
	rung := func(k string) (float64, bool) {
		rg, ok := ld.rungs[k]
		return rg.nsPerEvent(), ok
	}
	core, _ := rung(rungCore)
	rt, _ := rung(rungRuntime)
	l.set("core.self_ns_per_event", "ns", core)
	l.set("runtime.self_ns_per_event", "ns", rt-core)
	if codec, ok := rung(rungCodec); ok {
		l.set("wire.self_ns_per_event", "ns", codec-rt)
		loop, _ := rung(rungLoopback)
		l.set("netserve.self_ns_per_event", "ns", loop-codec)
	} else {
		why := "no codec or loopback rung: spatial tenants are refused on the wire"
		if w != "rank-knn" {
			why = "workload bypasses the wire"
		}
		l.skip("wire.self_ns_per_event", "ns", why)
		l.skip("netserve.self_ns_per_event", "ns", why)
	}
	if cl, ok := rung(rungCluster); ok {
		l.set("cluster.self_ns_per_event", "ns", cl-rt)
	} else {
		l.skip("cluster.self_ns_per_event", "ns", "no cluster rung: spatial tenants are refused by the cluster plane")
	}

	l.pct("server.report_ms_p50", "ms", r.report, 0.5, "no Report calls")
	if w == "rank-knn" {
		l.set("runtime.ingest_ns_per_event", "ns", float64(r.ingestNs.Nanoseconds())/float64(r.ingestEvents))
	} else {
		// Inside netserve and the cluster the node's Ingest is not reachable
		// from outside; the runtime rung calls it directly.
		l.set("runtime.ingest_ns_per_event", "ns", float64(ld.ingestNs.Nanoseconds())/float64(ld.rungs[rungRuntime].events))
	}
	l.pct("runtime.drain_ms_p50", "ms", r.drain, 0.5, "no Drain calls")
	if w == "range-wire" {
		l.set("runtime.pending_batches_max", "batches", float64(r.pendingMax))
	} else {
		l.skip("runtime.pending_batches_max", "batches", "sampled by the wire sender only; in-process callers block in Ingest instead")
	}
	if len(r.shardSkew) > 0 {
		l.set("runtime.shard_skew", "ratio", median(r.shardSkew))
	} else {
		l.skip("runtime.shard_skew", "ratio", "the node sits behind netserve or the cluster; its ShardStats are not reachable from outside")
	}

	if ld.wireBytes > 0 {
		n := float64(ld.rungs[rungCodec].events)
		l.set("wire.bytes_per_event", "bytes", float64(ld.wireBytes)/n)
		l.set("wire.encode_ns_per_event", "ns", float64(ld.encodeNs.Nanoseconds())/n)
		l.set("wire.decode_ns_per_event", "ns", float64(ld.decodeNs.Nanoseconds())/n)
	} else {
		l.skip("wire.bytes_per_event", "bytes", "workload bypasses the wire")
		l.skip("wire.encode_ns_per_event", "ns", "workload bypasses the wire")
		l.skip("wire.decode_ns_per_event", "ns", "workload bypasses the wire")
	}

	noWire := "workload bypasses the client and netserve"
	l.pct("client.ingest_call_us_p50", "us", r.clientCall, 0.5, noWire)
	l.pct("client.ingest_call_us_p99", "us", r.clientCall, 0.99, noWire)
	if w == "range-wire" {
		l.set("client.batches_acked", "count", float64(r.clientStats.Acked))
		l.set("client.batches_shed", "count", float64(r.clientStats.Shed))
		l.set("client.batches_lost", "count", float64(r.clientStats.Lost))
	} else {
		l.skip("client.batches_acked", "count", noWire)
		l.skip("client.batches_shed", "count", noWire)
		l.skip("client.batches_lost", "count", noWire)
	}
	l.pct("netserve.ack_rtt_us_p50", "us", r.rtt, 0.5, noWire)
	l.pct("netserve.ack_rtt_us_p99", "us", r.rtt, 0.99, noWire)

	noCluster := "workload bypasses the cluster router"
	if r.routeEvents > 0 {
		l.set("cluster.route_ns_per_event", "ns", float64(r.routeNs.Nanoseconds())/float64(r.routeEvents))
	} else {
		l.skip("cluster.route_ns_per_event", "ns", noCluster)
	}
	// A traced run makes a few hundred migrations at most, so the highest
	// percentile with ten samples beyond it is p90, not p99.
	l.pct("cluster.migrate_ms_p50", "ms", r.migrate, 0.5, noCluster)
	l.pct("cluster.migrate_ms_p90", "ms", r.migrate, 0.9, noCluster)
	l.pct("cluster.query_churn_ms_p50", "ms", r.churnMs, 0.5, noCluster)
	if len(r.memberSkew) > 0 {
		l.set("cluster.member_skew", "ratio", median(r.memberSkew))
	} else {
		l.skip("cluster.member_skew", "ratio", noCluster)
	}
	l.set("snapshot.tenant_bytes", "bytes", ld.tenantBytes)

	noOpen := "workload has no open-loop phase"
	l.pct("workload.gen_late_p50_ms", "ms", r.late, 0.5, noOpen)
	l.pct("workload.gen_late_p99_ms", "ms", r.late, 0.99, noOpen)

	// Latency tails of the untraced run that are not gated: on a shared
	// two-core machine their run-to-run spread exceeds any admissible bound.
	l.pct("bench.ack_p99_ms", "ms", plain.ack, 0.99, "no ingest acks")
	l.pct("bench.control_p90_ms", "ms", plain.control, 0.90, "no control ops")
	l.pct("bench.control_p99_ms", "ms", plain.control, 0.99, "no control ops")

	l.set("oracle.checks", "count", float64(r.checks))
	l.set("oracle.violations", "count", float64(r.violations))
	untraced, traced := throughput(plain), throughput(r)
	l.set("bench.trace_overhead_frac", "ratio", (untraced-traced)/untraced)
	sort.Strings(l.order)
	return l
}

// stepMetric sets a core-rung per-event step time for one protocol kind.
func stepMetric(l *layerMetrics, name, kind string, ld *ladder) {
	if n := ld.kindEvents[kind]; n > 0 {
		l.set(name, "ns", float64(ld.kindNs[kind].Nanoseconds())/float64(n))
		return
	}
	l.skip(name, "ns", "workload hosts no "+kind+" tenant")
}

// throughput is a run's median per-pass throughput.
func throughput(r *run) float64 {
	var thr []float64
	for _, p := range r.passes {
		thr = append(thr, float64(p.events)/p.busy.Seconds())
	}
	return median(thr)
}
