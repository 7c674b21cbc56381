package main

import (
	"fmt"
	gort "runtime"
	"time"

	"adaptivefilters/client"
	"adaptivefilters/internal/comm"
)

// run accumulates everything one benchmark invocation measures, across
// all its passes. A pass replays the whole pre-generated input once, on a
// freshly set-up plane; passes repeat until the run has lasted its
// --seconds and has enough samples for every percentile it reports.
type run struct {
	in  *Inputs
	tr  *tracer  // nil when untraced
	chk *checker // the current pass's ground truth

	passes []passStat
	setups []float64 // seconds, one per set-up (passes and extra set-ups)
	out    outcomes

	checks, violations uint64
	firstViolations    []string
	mismatches         []string

	// Pass 1's closing report; every later pass must reproduce it.
	text       string
	totals     comm.Counter
	passEvents int

	// Latency samples (ms unless named otherwise).
	ack, control          []float64
	drain, report         []float64
	migrate, churnMs      []float64
	clientCall, rtt, late []float64 // µs, µs, ms

	ingestNs     time.Duration // inside Ingester.Ingest
	ingestEvents int
	routeNs      time.Duration // inside Cluster.Ingest
	routeEvents  int

	pendingMax            int
	shardSkew, memberSkew []float64
	clientStats           client.Stats
}

// passStat is one pass's whole-pass figures.
type passStat struct {
	setup  time.Duration
	events int           // events in unpaced segments
	busy   time.Duration // wall time of unpaced segments and their control ops
	cpu    time.Duration // process CPU over the same
	heapMB float64       // peak live heap above the pre-pass baseline
}

func newRun(in *Inputs, traced bool) *run {
	r := &run{in: in}
	if traced {
		r.tr = newTracer()
	}
	return r
}

// newPlane builds the workload's serving plane for this run.
func (r *run) newPlane() plane {
	switch r.in.W.Name {
	case "rank-knn":
		return newNodePlane(r)
	case "range-wire":
		return newWirePlane(r)
	default:
		return newClusterPlane(r)
	}
}

// pass sets the plane up, replays every segment with its control op,
// checks the answers at every read and at the end, and tears down.
func (r *run) pass(p plane) error {
	in := r.in
	r.chk = newChecker(in)
	gort.GC()
	base := liveHeap()
	hp := startHeapPeak()
	defer hp.stop()
	t0 := time.Now()
	if err := p.setup(); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	ps := passStat{setup: time.Since(t0)}
	r.setups = append(r.setups, ps.setup.Seconds())
	defer p.teardown()

	nseg := in.Segments()
	for seg := 0; seg < nseg; seg++ {
		n := 0
		for l := range in.Lanes {
			n += len(in.segment(l, seg))
			r.out.Attempted += uint64((len(in.segment(l, seg)) + in.W.Batch - 1) / in.W.Batch)
		}
		w0, c0 := time.Now(), cpuTime()
		unpaced, err := p.ingest(seg)
		if err != nil {
			r.out.Errored++
			return fmt.Errorf("segment %d ingest: %w", seg, err)
		}
		w1 := time.Now()
		r.out.Attempted++
		rep, err := p.control(seg)
		if err != nil {
			r.out.Errored++
			return fmt.Errorf("control op after segment %d: %w", seg, err)
		}
		w2 := time.Now()
		r.control = append(r.control, ms(w2.Sub(w1)))
		if unpaced {
			ps.busy += w2.Sub(w0)
			ps.cpu += cpuTime() - c0
			ps.events += n
		}
		if rep != nil {
			r.chk.advance(seg)
			r.chk.check(rep)
		}
	}
	rep, err := p.final()
	if err != nil {
		return fmt.Errorf("final report: %w", err)
	}
	r.chk.advance(nseg - 1)
	r.chk.check(rep)
	r.checks += r.chk.checks
	r.violations += r.chk.violations
	for _, v := range r.chk.firstViolations {
		if len(r.firstViolations) < 5 {
			r.firstViolations = append(r.firstViolations, v)
		}
	}
	text := rep.Text()
	if len(r.passes) == 0 {
		r.text, r.totals, r.passEvents = text, rep.Totals, in.Events()
	} else if text != r.text {
		r.mismatches = append(r.mismatches, fmt.Sprintf("pass %d Report.Text differs from pass 1", len(r.passes)+1))
	}
	if peak := hp.finish(); peak > base {
		ps.heapMB = float64(peak-base) / 1e6
	}
	r.passes = append(r.passes, ps)
	return nil
}

// setupOnly times one more set-up of the plane and tears it down.
func (r *run) setupOnly(p plane) error {
	gort.GC()
	t0 := time.Now()
	if err := p.setup(); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	r.setups = append(r.setups, time.Since(t0).Seconds())
	p.teardown()
	return nil
}

// Run-length rules: at least minPasses passes and minSetups set-ups, and
// enough samples for every percentile reported; a run that cannot gather
// them within maxSeconds fails rather than reporting a thin percentile.
const (
	minPasses  = 3
	minSetups  = 9
	maxSeconds = 150
)

// p90Samples holds when the ack and control latencies support a p90 twice
// over.
func (r *run) p90Samples() bool { return len(r.ack) >= 200 && len(r.control) >= 200 }

// measure runs passes of every run in turn, so that all of them see the
// same machine conditions, until seconds have elapsed, each run has
// minPasses passes and enough holds.
func measure(seconds float64, enough func() bool, runs ...*run) error {
	planes := make([]plane, len(runs))
	for i, r := range runs {
		planes[i] = r.newPlane()
	}
	start := time.Now()
	for {
		for i, r := range runs {
			if err := r.pass(planes[i]); err != nil {
				return err
			}
		}
		el := time.Since(start).Seconds()
		if el >= seconds && len(runs[0].passes) >= minPasses && enough() {
			return nil
		}
		if el >= maxSeconds {
			r := runs[0]
			return fmt.Errorf("after %.0fs, %d passes still lack samples (%d ack, %d control, %d migrations)",
				el, len(r.passes), len(r.ack), len(r.control), len(r.migrate))
		}
	}
}

// topUpSetups times extra set-ups until the run has minSetups of them.
func (r *run) topUpSetups() error {
	p := r.newPlane()
	for len(r.setups) < minSetups {
		if err := r.setupOnly(p); err != nil {
			return err
		}
	}
	return nil
}

// correct reports whether every answer checked out and every replay
// reproduced pass 1.
func (r *run) correct() bool {
	return r.checks > 0 && r.violations == 0 && len(r.mismatches) == 0
}
