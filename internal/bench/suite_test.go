package bench_test

import (
	"context"
	"fmt"
	"os"
	goruntime "runtime"
	"testing"

	"adaptivefilters/internal/bench"
	"adaptivefilters/internal/bench/benchtest"
	"adaptivefilters/internal/core"
	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/multidim"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/runtime"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/sim"
	"adaptivefilters/internal/workload"
)

// suite collects every benchmark's measurement; TestMain writes it as
// BENCH_suite.json when BENCH_SUITE_JSON names a destination (the CI
// regression gate sets it and diffs against the committed baseline).
var suite = bench.Suite{Benchmark: "suite", GoMaxProcs: goruntime.GOMAXPROCS(0)}

func TestMain(m *testing.M) {
	code := m.Run()
	if path := os.Getenv("BENCH_SUITE_JSON"); path != "" && len(suite.Results) > 0 {
		if err := suite.WriteFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing", path, "failed:", err)
			if code == 0 {
				code = 1
			}
		}
	}
	os.Exit(code)
}

// measure delegates to the shared harness, filing rows into this
// package's suite document.
func measure(b *testing.B, name string, events int, ingestPath bool, fn func()) {
	b.Helper()
	benchtest.Measure(b, &suite, name, events, ingestPath, fn)
}

// walk pre-generates a deterministic random-walk update sequence over n
// streams so the timed loop replays identical events every op.
func walk(n, events int, seed int64) (initial []float64, moves []struct {
	id int
	v  float64
}) {
	rng := sim.NewRNG(seed)
	initial = make([]float64, n)
	for i := range initial {
		initial[i] = rng.Uniform(0, 1000)
	}
	cur := append([]float64(nil), initial...)
	moves = make([]struct {
		id int
		v  float64
	}, events)
	for i := range moves {
		id := rng.Intn(n)
		cur[id] += rng.Normal(0, 20)
		moves[i] = struct {
			id int
			v  float64
		}{id, cur[id]}
	}
	return initial, moves
}

// planarWalk is walk's 2-D twin: a deterministic planar random walk.
func planarWalk(n, events int, seed int64) (initial []filter.Point, moves []struct {
	id int
	p  filter.Point
}) {
	rng := sim.NewRNG(seed)
	initial = make([]filter.Point, n)
	for i := range initial {
		initial[i] = filter.Point{X: rng.Uniform(0, 1000), Y: rng.Uniform(0, 1000)}
	}
	cur := append([]filter.Point(nil), initial...)
	moves = make([]struct {
		id int
		p  filter.Point
	}, events)
	for i := range moves {
		id := rng.Intn(n)
		cur[id].X += rng.Normal(0, 20)
		cur[id].Y += rng.Normal(0, 20)
		moves[i].id, moves[i].p = id, cur[id]
	}
	return initial, moves
}

// BenchmarkProtocolStep measures the single-tenant protocol step — the
// paper's server loop: deliver one update, run the hosted protocol's
// maintenance phase, account the messages — at steady state for the range
// protocol the multi-tenant runtime hosts most and for every consumer of
// the shared lazy ranker (RTP, FT-RP, RTP2D, FT-RP2D). The warmed path
// must not allocate: the regression gate pins allocs/op at the committed
// baseline (0).
func BenchmarkProtocolStep(b *testing.B) {
	const (
		n      = 2000
		events = 20000
	)
	cases := []struct {
		name  string
		build func(h server.Host) server.Protocol
	}{
		{"ft-nrp", func(h server.Host) server.Protocol {
			return core.NewFTNRP(h, query.NewRange(400, 600), core.FTNRPConfig{
				Tol:       core.FractionTolerance{EpsPlus: 0.3, EpsMinus: 0.3},
				Selection: core.SelectBoundaryNearest,
				Seed:      7,
			})
		}},
		{"rtp", func(h server.Host) server.Protocol {
			return core.NewRTP(h, query.At(500), core.RankTolerance{K: 20, R: 5})
		}},
		{"ft-rp", func(h server.Host) server.Protocol {
			return core.NewFTRP(h, query.At(500), 50, core.DefaultFTRPConfig(
				core.FractionTolerance{EpsPlus: 0.2, EpsMinus: 0.2}))
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			initial, moves := walk(n, events, 11)
			c := server.NewCluster(initial)
			c.SetProtocol(tc.build(c))
			c.Initialize()
			deliver := func() {
				for _, mv := range moves {
					c.Deliver(mv.id, mv.v)
				}
			}
			deliver() // warm protocol scratch and the pending queue
			measure(b, "protocol-step/"+tc.name, events, true, deliver)
		})
	}
	q := filter.Point{X: 500, Y: 500}
	spatial := []struct {
		name  string
		build func(h server.SpatialHost) server.SpatialProtocol
	}{
		{"rtp2d", func(h server.SpatialHost) server.SpatialProtocol {
			return multidim.NewRTP2D(h, q, core.RankTolerance{K: 20, R: 5})
		}},
		{"ft-rp2d", func(h server.SpatialHost) server.SpatialProtocol {
			return multidim.NewFTRP2D(h, q, 50, core.FractionTolerance{EpsPlus: 0.2, EpsMinus: 0.2})
		}},
	}
	for _, tc := range spatial {
		b.Run(tc.name, func(b *testing.B) {
			initial, moves := planarWalk(n, events, 11)
			c := server.NewSpatialCluster(initial)
			c.SetProtocol(tc.build(c))
			c.Initialize()
			deliver := func() {
				for _, mv := range moves {
					c.Deliver(mv.id, mv.p)
				}
			}
			deliver()
			measure(b, "protocol-step/"+tc.name, events, true, deliver)
		})
	}
}

// benchSpecs builds heterogeneous tenants (alternating FT-NRP and RTP,
// unequal partition sizes) mirroring the runtime package's test population.
func benchSpecs(tenants, streams int) []runtime.TenantSpec {
	specs := make([]runtime.TenantSpec, tenants)
	for i := range specs {
		rng := sim.NewRNG(sim.DeriveSeed(1000, int64(i)))
		initial := make([]float64, streams+i)
		for s := range initial {
			initial[s] = rng.Uniform(0, 1000)
		}
		i := i
		specs[i] = runtime.TenantSpec{
			Name:    fmt.Sprintf("q%d", i),
			Initial: initial,
			NewProtocol: func(h server.Host, seed int64) server.Protocol {
				if i%2 == 0 {
					return core.NewFTNRP(h, query.NewRange(300, 700), core.FTNRPConfig{
						Tol:       core.FractionTolerance{EpsPlus: 0.3, EpsMinus: 0.3},
						Selection: core.SelectRandom,
						Seed:      seed,
					})
				}
				return core.NewRTP(h, query.At(500), core.RankTolerance{K: 5, R: 3})
			},
		}
	}
	return specs
}

// benchBatches interleaves per-tenant random walks round-robin into ingest
// batches, mimicking a mixed multi-tenant uplink.
func benchBatches(specs []runtime.TenantSpec, perTenant, batchSize int) [][]runtime.Event {
	walks := make([][]float64, len(specs))
	rngs := make([]*sim.RNG, len(specs))
	for i, spec := range specs {
		walks[i] = append([]float64(nil), spec.Initial...)
		rngs[i] = sim.NewRNG(sim.DeriveSeed(2000, int64(i)))
	}
	var all []runtime.Event
	for e := 0; e < perTenant; e++ {
		for i := range specs {
			rng := rngs[i]
			s := rng.Intn(len(walks[i]))
			walks[i][s] += rng.Normal(0, 40)
			all = append(all, runtime.Event{Tenant: i, Stream: s, Value: walks[i][s]})
		}
	}
	var batches [][]runtime.Event
	for len(all) > 0 {
		n := batchSize
		if n > len(all) {
			n = len(all)
		}
		batches = append(batches, all[:n])
		all = all[n:]
	}
	return batches
}

// BenchmarkMultiTenantIngest measures the full multi-tenant ingest hot path
// — router → per-shard buffer pool → shard event loop → protocol →
// accounting — at steady state on a warmed node, per the shard counts the
// regression gate tracks. One op ingests and drains the whole pre-generated
// event set.
func BenchmarkMultiTenantIngest(b *testing.B) {
	const (
		tenants   = 8
		streams   = 200
		perTenant = 2000
		batchSize = 512
	)
	specs := benchSpecs(tenants, streams)
	batches := benchBatches(specs, perTenant, batchSize)
	totalEvents := tenants * perTenant
	for _, shards := range []int{1, 4, 8} {
		shards := shards
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			node, err := runtime.NewNode(runtime.Config{Shards: shards, Seed: 42}, specs)
			if err != nil {
				b.Fatal(err)
			}
			if err := node.Start(context.Background()); err != nil {
				b.Fatal(err)
			}
			defer node.Stop()
			pass := func() {
				for _, batch := range batches {
					if err := node.Ingest(batch); err != nil {
						b.Fatal(err)
					}
				}
				if err := node.Drain(); err != nil {
					b.Fatal(err)
				}
			}
			// Warm until every pooled buffer has cycled through the router at
			// its working size and the protocols' scratch has grown.
			for i := 0; i < 4; i++ {
				pass()
			}
			measure(b, fmt.Sprintf("multi-tenant-ingest/shards=%d", shards),
				totalEvents, true, pass)
		})
	}
}

// laneBatches regroups mixed multi-tenant batches into per-ingester lanes:
// lane g carries tenants t ≡ g (mod lanes), rebatched at batchSize with each
// tenant's event order preserved — the partition under which concurrent
// ingest stays bit-identical to a single caller.
func laneBatches(batches [][]runtime.Event, lanes, batchSize int) [][][]runtime.Event {
	out := make([][][]runtime.Event, lanes)
	cur := make([][]runtime.Event, lanes)
	for _, b := range batches {
		for _, ev := range b {
			g := ev.Tenant % lanes
			if cur[g] == nil {
				cur[g] = make([]runtime.Event, 0, batchSize)
			}
			cur[g] = append(cur[g], ev)
			if len(cur[g]) == batchSize {
				out[g] = append(out[g], cur[g])
				cur[g] = nil
			}
		}
	}
	for g, b := range cur {
		if len(b) > 0 {
			out[g] = append(out[g], b)
		}
	}
	return out
}

// BenchmarkConcurrentIngest measures the concurrent ingest plane: N
// persistent goroutines, each owning a runtime.Ingester and a fixed tenant
// subset, route into the shard loops simultaneously. The ingesters=1/shards=1
// row is the single-caller reference the gate's scale rule reads the
// ingesters=4/shards=8 row against (enforced only where the cores exist);
// all rows sit on the ingest path, so steady state must stay allocation-free.
// Workers are spawned once and signalled per op, keeping goroutine start-up
// out of the measured region.
func BenchmarkConcurrentIngest(b *testing.B) {
	const (
		tenants   = 8
		streams   = 200
		perTenant = 2000
		batchSize = 512
	)
	specs := benchSpecs(tenants, streams)
	batches := benchBatches(specs, perTenant, batchSize)
	totalEvents := tenants * perTenant
	for _, tc := range []struct{ ingesters, shards int }{{1, 1}, {2, 4}, {4, 8}} {
		tc := tc
		b.Run(fmt.Sprintf("ingesters=%d/shards=%d", tc.ingesters, tc.shards), func(b *testing.B) {
			node, err := runtime.NewNode(runtime.Config{Shards: tc.shards, Seed: 42}, specs)
			if err != nil {
				b.Fatal(err)
			}
			if err := node.Start(context.Background()); err != nil {
				b.Fatal(err)
			}
			defer node.Stop()
			lanes := laneBatches(batches, tc.ingesters, batchSize)
			start := make([]chan struct{}, tc.ingesters)
			done := make(chan error, tc.ingesters)
			for g := range start {
				start[g] = make(chan struct{})
				go func(g int) {
					ing := node.NewIngester()
					for range start[g] {
						var err error
						for _, batch := range lanes[g] {
							if err = ing.Ingest(batch); err != nil {
								break
							}
						}
						done <- err
					}
				}(g)
			}
			defer func() {
				for _, ch := range start {
					close(ch)
				}
			}()
			pass := func() {
				for _, ch := range start {
					ch <- struct{}{}
				}
				for range start {
					if err := <-done; err != nil {
						b.Fatal(err)
					}
				}
				if err := node.Drain(); err != nil {
					b.Fatal(err)
				}
			}
			// Warm until every pooled buffer has cycled at its working size:
			// with N lanes each shard sees ~1/N of the sends a single-caller
			// pass produces, so the pool needs proportionally more passes.
			for i := 0; i < 4*tc.ingesters; i++ {
				pass()
			}
			measure(b, fmt.Sprintf("multi-tenant-ingest/ingesters=%d/shards=%d", tc.ingesters, tc.shards),
				totalEvents, true, pass)
		})
	}
}

// BenchmarkWorkloadReplay measures trace replay end to end: iterate a
// recorded trace (the cmd/tracegen schema) and deliver it into a
// single-tenant cluster. The iterator side allocates a constant handful per
// replay pass, so the gate tracks its throughput but not its allocs.
func BenchmarkWorkloadReplay(b *testing.B) {
	const (
		n      = 1000
		events = 20000
	)
	initial, moves := walk(n, events, 23)
	evs := make([]workload.Event, len(moves))
	for i, mv := range moves {
		evs[i] = workload.Event{Time: float64(i + 1), Stream: mv.id, Value: mv.v}
	}
	rep, err := workload.NewReplay("bench", initial, evs)
	if err != nil {
		b.Fatal(err)
	}
	c := server.NewCluster(rep.Initial())
	c.SetProtocol(core.NewFTNRP(c, query.NewRange(400, 600), core.FTNRPConfig{
		Tol:       core.FractionTolerance{EpsPlus: 0.3, EpsMinus: 0.3},
		Selection: core.SelectBoundaryNearest,
		Seed:      3,
	}))
	c.Initialize()
	pass := func() {
		it := rep.Events()
		for {
			ev, ok := it.Next()
			if !ok {
				break
			}
			c.Deliver(ev.Stream, ev.Value)
		}
	}
	pass() // warm scratch
	measure(b, "workload-replay", rep.Len(), false, pass)
}

// mqQueries builds m overlapping FT-NRP range queries spread over the
// synthetic walk's [0,1000] band, so composite entries genuinely share
// crossings.
func mqQueries(m int) []runtime.QuerySpec {
	qs := make([]runtime.QuerySpec, m)
	for j := 0; j < m; j++ {
		lo := 150 + float64((j*43)%500)
		qs[j] = runtime.QuerySpec{
			Name: fmt.Sprintf("q%d", j),
			NewProtocol: func(h server.Host, seed int64) server.Protocol {
				return core.NewFTNRP(h, query.NewRange(lo, lo+300), core.FTNRPConfig{
					Tol:       core.FractionTolerance{EpsPlus: 0.2, EpsMinus: 0.2},
					Selection: core.SelectBoundaryNearest,
					Seed:      seed,
				})
			},
		}
	}
	return qs
}

// mqWideQueries builds the wide-M population for the index scaling points:
// the same active core as mqQueries(mqActiveCore), plus m-mqActiveCore
// standing queries whose ranges sit beyond the walk's reach, so they
// install filters but almost never cross. This is the index's target
// workload — per-event cost must track the active set, not the standing
// count, which only holds when dormant constraints cost nothing per event.
func mqWideQueries(m int) []runtime.QuerySpec {
	qs := mqQueries(mqActiveCore)
	for j := mqActiveCore; j < m; j++ {
		lo := 1500 + float64(j*7)
		qs = append(qs, runtime.QuerySpec{
			Name: fmt.Sprintf("q%d", j),
			NewProtocol: func(h server.Host, seed int64) server.Protocol {
				return core.NewFTNRP(h, query.NewRange(lo, lo+200), core.FTNRPConfig{
					Tol:       core.FractionTolerance{EpsPlus: 0.2, EpsMinus: 0.2},
					Selection: core.SelectBoundaryNearest,
					Seed:      seed,
				})
			},
		})
	}
	return qs
}

// mqActiveCore is the active-query count inside the wide-M populations.
const mqActiveCore = 2

// setMessages attaches a deterministic maintenance-message count to an
// already-measured suite entry (the gate rejects any later growth).
func setMessages(name string, msgs uint64) {
	for i := range suite.Results {
		if suite.Results[i].Name == name {
			suite.Results[i].MaintMessages = msgs
			return
		}
	}
}

// runNodeOnce drives a fresh node over batches once and returns its total
// maintenance messages — the deterministic accounting figure the suite
// records next to the throughput numbers.
func runNodeOnce(b *testing.B, specs []runtime.TenantSpec, batches [][]runtime.Event) uint64 {
	b.Helper()
	node, err := runtime.NewNode(runtime.Config{Shards: 2, Seed: 42}, specs)
	if err != nil {
		b.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		b.Fatal(err)
	}
	defer node.Stop()
	for _, batch := range batches {
		if err := node.Ingest(batch); err != nil {
			b.Fatal(err)
		}
	}
	if err := node.Drain(); err != nil {
		b.Fatal(err)
	}
	totals := node.Totals()
	return totals.Maintenance()
}

// runSharingSide times one deployment side of the sharing benchmark on a
// warmed node and files its throughput, alloc and message figures.
func runSharingSide(b *testing.B, name string, specs []runtime.TenantSpec,
	batches [][]runtime.Event, events int, msgs uint64) {
	b.Helper()
	node, err := runtime.NewNode(runtime.Config{Shards: 2, Seed: 42}, specs)
	if err != nil {
		b.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		b.Fatal(err)
	}
	defer node.Stop()
	pass := func() {
		for _, batch := range batches {
			if err := node.Ingest(batch); err != nil {
				b.Fatal(err)
			}
		}
		if err := node.Drain(); err != nil {
			b.Fatal(err)
		}
	}
	// Warm until every pooled buffer has cycled at its working size and all
	// protocol scratch has grown.
	for i := 0; i < 4; i++ {
		pass()
	}
	measure(b, name, events, true, pass)
	setMessages(name, msgs)
}

// BenchmarkMultiQuerySharing measures the multi-query composite plane
// against the same queries deployed as independent single-query tenants, at
// M = 1, 4 and 16 standing queries: events/sec and allocs/op on the warmed
// ingest path (both must stay 0 allocs/op), plus the deterministic
// maintenance-message counts of one fresh pass — where composite sharing
// must send strictly fewer messages than the independent deployment for
// every M > 1. Two composite-only points at M = 64 and 256 then stress the
// per-stream query index: cmd/benchgate's near-flat rule bounds their
// per-event cost at a fixed factor of M = 1, which a return to linear
// constraint scanning cannot satisfy. A last composite-only point
// (composite-dense/m=64) gates the crossing-heavy path those dormant
// populations skip. All figures land in BENCH_suite.json under the gate.
func BenchmarkMultiQuerySharing(b *testing.B) {
	const (
		streams   = 300
		steps     = 10000
		batchSize = 512
	)
	initial, moves := walk(streams, steps, 29)

	// Composite deployment batches: one tenant, one event per move,
	// regardless of how many queries ride on it.
	var compBatches [][]runtime.Event
	for start := 0; start < len(moves); start += batchSize {
		end := start + batchSize
		if end > len(moves) {
			end = len(moves)
		}
		batch := make([]runtime.Event, 0, batchSize)
		for _, mv := range moves[start:end] {
			batch = append(batch, runtime.Event{Tenant: 0, Stream: mv.id, Value: mv.v})
		}
		compBatches = append(compBatches, batch)
	}

	for _, m := range []int{1, 4, 16} {
		m := m
		qs := mqQueries(m)
		compSpecs := []runtime.TenantSpec{{Name: "mq", Initial: initial, Queries: qs}}

		// Independent deployment: m single-query tenants over copies of the
		// partition, every move fanned out to all of them.
		indSpecs := make([]runtime.TenantSpec, m)
		for j := 0; j < m; j++ {
			indSpecs[j] = runtime.TenantSpec{
				Name: qs[j].Name, Initial: initial, NewProtocol: qs[j].NewProtocol,
			}
		}
		var indBatches [][]runtime.Event
		batch := make([]runtime.Event, 0, batchSize)
		for _, mv := range moves {
			for j := 0; j < m; j++ {
				batch = append(batch, runtime.Event{Tenant: j, Stream: mv.id, Value: mv.v})
				if len(batch) == batchSize {
					indBatches = append(indBatches, batch)
					batch = make([]runtime.Event, 0, batchSize)
				}
			}
		}
		if len(batch) > 0 {
			indBatches = append(indBatches, batch)
		}

		compMsgs := runNodeOnce(b, compSpecs, compBatches)
		indMsgs := runNodeOnce(b, indSpecs, indBatches)
		if m > 1 && compMsgs >= indMsgs {
			b.Fatalf("m=%d: composite sent %d maintenance messages, independent %d; sharing must win",
				m, compMsgs, indMsgs)
		}

		for _, side := range []struct {
			kind    string
			specs   []runtime.TenantSpec
			batches [][]runtime.Event
			events  int
			msgs    uint64
		}{
			{"composite", compSpecs, compBatches, steps, compMsgs},
			{"independent", indSpecs, indBatches, steps * m, indMsgs},
		} {
			side := side
			b.Run(fmt.Sprintf("%s/m=%d", side.kind, m), func(b *testing.B) {
				runSharingSide(b, fmt.Sprintf("multi-query-sharing/%s/m=%d", side.kind, m),
					side.specs, side.batches, side.events, side.msgs)
			})
		}
	}

	// Wide-M scaling points, composite side only: an independent deployment
	// at M = 256 would ingest 2.56M events per pass and measure the fan-out,
	// not the index. The population is a fixed active core plus dormant
	// standing queries (mqWideQueries), so per-event cost measures what the
	// query index sells: untouched standing queries are free. The near-flat
	// gate rule reads these two rows against m=1 — a return to linear
	// constraint scanning pays for all m queries on every event and blows
	// the factor out.
	for _, m := range []int{64, 256} {
		m := m
		compSpecs := []runtime.TenantSpec{{Name: "mq", Initial: initial, Queries: mqWideQueries(m)}}
		msgs := runNodeOnce(b, compSpecs, compBatches)
		b.Run(fmt.Sprintf("composite/m=%d", m), func(b *testing.B) {
			runSharingSide(b, fmt.Sprintf("multi-query-sharing/composite/m=%d", m),
				compSpecs, compBatches, steps, msgs)
		})
	}

	// Dense point: 64 overlapping FT-NRP ranges of width 150 over 1000
	// walking streams (σ = 20), so most events cross some query's
	// boundaries and report — the shape of a crossing-heavy composite
	// tenant, where the boundary walk, band-free class evaluation and the
	// per-query fan-out all run on every event. Its per-event cost tracks
	// the crossings, not M = 1, so it sits outside the near-flat rule.
	const denseStreams, denseM = 1000, 64
	denseInitial, denseMoves := walk(denseStreams, steps, 31)
	var denseBatches [][]runtime.Event
	for start := 0; start < len(denseMoves); start += batchSize {
		end := min(start+batchSize, len(denseMoves))
		batch := make([]runtime.Event, 0, end-start)
		for _, mv := range denseMoves[start:end] {
			batch = append(batch, runtime.Event{Tenant: 0, Stream: mv.id, Value: mv.v})
		}
		denseBatches = append(denseBatches, batch)
	}
	denseSpecs := []runtime.TenantSpec{{Name: "mq", Initial: denseInitial, Queries: mqDenseQueries(denseM)}}
	denseMsgs := runNodeOnce(b, denseSpecs, denseBatches)
	b.Run(fmt.Sprintf("composite-dense/m=%d", denseM), func(b *testing.B) {
		runSharingSide(b, fmt.Sprintf("multi-query-sharing/composite-dense/m=%d", denseM),
			denseSpecs, denseBatches, steps, denseMsgs)
	})
}

// mqDenseQueries builds m FT-NRP range queries of width 150 whose lower
// ends spread evenly over [0, 850], so neighbouring ranges overlap and
// every value in [0, 1000] sits inside about eleven of them.
func mqDenseQueries(m int) []runtime.QuerySpec {
	qs := make([]runtime.QuerySpec, m)
	for j := range qs {
		lo := float64(j) * 850 / float64(m-1)
		qs[j] = runtime.QuerySpec{
			Name: fmt.Sprintf("q%d", j),
			NewProtocol: func(h server.Host, seed int64) server.Protocol {
				return core.NewFTNRP(h, query.NewRange(lo, lo+150), core.FTNRPConfig{
					Tol:       core.FractionTolerance{EpsPlus: 0.2, EpsMinus: 0.2},
					Selection: core.SelectBoundaryNearest,
					Seed:      seed,
				})
			},
		}
	}
	return qs
}

// benchSpatialSpecs builds the spatial tenant population: alternating
// RTP2D and FTRP2D tenants over planar point clouds, mirroring benchSpecs.
func benchSpatialSpecs(tenants, streams int) []runtime.TenantSpec {
	specs := make([]runtime.TenantSpec, tenants)
	for i := range specs {
		rng := sim.NewRNG(sim.DeriveSeed(3000, int64(i)))
		initial := make([]filter.Point, streams+i)
		for s := range initial {
			initial[s] = filter.Point{X: rng.Uniform(0, 1000), Y: rng.Uniform(0, 1000)}
		}
		i := i
		specs[i] = runtime.TenantSpec{
			Name:           fmt.Sprintf("sq%d", i),
			SpatialInitial: initial,
			NewSpatial: func(h server.SpatialHost, seed int64) server.SpatialProtocol {
				q := filter.Point{X: 500, Y: 500}
				if i%2 == 0 {
					return multidim.NewRTP2D(h, q, core.RankTolerance{K: 5, R: 3})
				}
				return multidim.NewFTRP2D(h, q, 5,
					core.FractionTolerance{EpsPlus: 0.3, EpsMinus: 0.3})
			},
		}
	}
	return specs
}

// benchSpatialBatches interleaves per-tenant planar walks round-robin into
// ingest batches, the 2-D twin of benchBatches.
func benchSpatialBatches(specs []runtime.TenantSpec, perTenant, batchSize int) [][]runtime.Event {
	walks := make([][]filter.Point, len(specs))
	rngs := make([]*sim.RNG, len(specs))
	for i, spec := range specs {
		walks[i] = append([]filter.Point(nil), spec.SpatialInitial...)
		rngs[i] = sim.NewRNG(sim.DeriveSeed(4000, int64(i)))
	}
	var all []runtime.Event
	for e := 0; e < perTenant; e++ {
		for i := range specs {
			rng := rngs[i]
			s := rng.Intn(len(walks[i]))
			walks[i][s].X += rng.Normal(0, 40)
			walks[i][s].Y += rng.Normal(0, 40)
			all = append(all, runtime.Event{
				Tenant: i, Stream: s, Value: walks[i][s].X, Y: walks[i][s].Y,
			})
		}
	}
	var batches [][]runtime.Event
	for len(all) > 0 {
		n := batchSize
		if n > len(all) {
			n = len(all)
		}
		batches = append(batches, all[:n])
		all = all[n:]
	}
	return batches
}

// BenchmarkSpatialIngest measures the spatial ingest hot path — router →
// shard loop → SpatialCluster → 2-D protocol (lazy ranking, disk
// installs) → accounting — at steady state on a warmed node, per the shard
// counts the regression gate tracks. One op ingests and drains the whole
// pre-generated planar event set; the warmed path must not allocate.
func BenchmarkSpatialIngest(b *testing.B) {
	const (
		tenants   = 8
		streams   = 200
		perTenant = 2000
		batchSize = 512
	)
	specs := benchSpatialSpecs(tenants, streams)
	batches := benchSpatialBatches(specs, perTenant, batchSize)
	totalEvents := tenants * perTenant
	for _, shards := range []int{1, 4, 8} {
		shards := shards
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			node, err := runtime.NewNode(runtime.Config{Shards: shards, Seed: 42}, specs)
			if err != nil {
				b.Fatal(err)
			}
			if err := node.Start(context.Background()); err != nil {
				b.Fatal(err)
			}
			defer node.Stop()
			pass := func() {
				for _, batch := range batches {
					if err := node.Ingest(batch); err != nil {
						b.Fatal(err)
					}
				}
				if err := node.Drain(); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < 4; i++ {
				pass()
			}
			measure(b, fmt.Sprintf("spatial-ingest/shards=%d", shards),
				totalEvents, true, pass)
		})
	}
}
