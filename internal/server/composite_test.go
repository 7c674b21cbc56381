package server_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"adaptivefilters/internal/comm"
	"adaptivefilters/internal/core"
	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/oracle"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/sim"
	"adaptivefilters/internal/snapshot"
)

// ftnrpFactory builds an FT-NRP query factory over [lo, hi] with symmetric
// tolerance eps and the given seed.
func ftnrpFactory(lo, hi, eps float64, seed int64) func(server.Host) server.Protocol {
	return func(h server.Host) server.Protocol {
		return core.NewFTNRP(h, query.NewRange(lo, hi), core.FTNRPConfig{
			Tol:       core.FractionTolerance{EpsPlus: eps, EpsMinus: eps},
			Selection: core.SelectBoundaryNearest,
			Seed:      seed,
		})
	}
}

// TestCompositeInitSharing pins the multi-query initialization economics:
// t0 costs exactly 2n probe messages plus n installs no matter how many
// queries share the fabric — the first query's fan-out pays, the siblings
// ride along.
func TestCompositeInitSharing(t *testing.T) {
	initial := make([]float64, 50)
	rng := sim.NewRNG(3)
	for i := range initial {
		initial[i] = rng.Uniform(0, 1000)
	}
	for _, m := range []int{1, 3, 8} {
		comp := server.NewComposite(initial)
		for qi := 0; qi < m; qi++ {
			comp.AddQuery(fmt.Sprintf("q%d", qi), int64(qi),
				ftnrpFactory(100+50*float64(qi), 600+30*float64(qi), 0.2, int64(qi)))
		}
		comp.Initialize()
		ctr := comp.Counter()
		if got, want := ctr.Get(comm.Init, comm.Probe), uint64(len(initial)); got != want {
			t.Errorf("M=%d: init probes = %d, want %d", m, got, want)
		}
		if got, want := ctr.Get(comm.Init, comm.ProbeReply), uint64(len(initial)); got != want {
			t.Errorf("M=%d: init probe replies = %d, want %d", m, got, want)
		}
		if got, want := ctr.Get(comm.Init, comm.Install), uint64(len(initial)); got != want {
			t.Errorf("M=%d: init installs = %d, want %d", m, got, want)
		}
		if got := ctr.Maintenance(); got != 0 {
			t.Errorf("M=%d: t0 charged %d maintenance messages", m, got)
		}
	}
}

// TestCompositeQueryAdmission checks live AddQuery/InitializeQuery: the new
// query pays its own t0 (2n + n, charged to Init), sibling answers and the
// maintenance bucket are untouched, and the counter returns to Maintenance.
func TestCompositeQueryAdmission(t *testing.T) {
	initial := []float64{150, 275, 450, 800, 50, 620}
	comp := server.NewComposite(initial)
	comp.AddQuery("q0", 0, ftnrpFactory(100, 300, 0, 1))
	comp.Initialize()
	a0 := comp.Answer(0)
	initTotal := comp.Counter().PhaseTotal(comm.Init)
	maint := comp.Counter().Maintenance()

	qi := comp.AddQuery("q1", 1, ftnrpFactory(400, 700, 0, 2))
	if qi != 1 {
		t.Fatalf("AddQuery slot = %d, want 1", qi)
	}
	comp.InitializeQuery(qi)
	n := uint64(len(initial))
	if got, want := comp.Counter().PhaseTotal(comm.Init)-initTotal, 2*n+n; got != want {
		t.Errorf("admission charged %d init messages, want %d", got, want)
	}
	if got := comp.Counter().Maintenance(); got != maint {
		t.Errorf("admission charged %d maintenance messages", got-maint)
	}
	if comp.Counter().Phase() != comm.Maintenance {
		t.Error("counter not returned to Maintenance after admission")
	}
	if got := comp.Answer(0); !reflect.DeepEqual(got, a0) {
		t.Errorf("sibling answer perturbed by admission: %v -> %v", a0, got)
	}
	if got := comp.Answer(1); !reflect.DeepEqual(got, []int{2, 5}) {
		t.Errorf("admitted query answer = %v, want [2 5]", got)
	}
}

// TestCompositeRemoveQuery checks eviction semantics: the removed query's
// entries become inert (no crossings, no silencing), accessors panic, slot
// ids are not reused, and double removal errors.
func TestCompositeRemoveQuery(t *testing.T) {
	initial := []float64{275, 500}
	comp := server.NewComposite(initial)
	comp.AddQuery("q0", 0, ftnrpFactory(100, 300, 0, 1))
	comp.AddQuery("q1", 1, ftnrpFactory(400, 600, 0, 2))
	comp.Initialize()
	if err := comp.RemoveQuery(0); err != nil {
		t.Fatal(err)
	}
	if err := comp.RemoveQuery(0); err == nil {
		t.Fatal("double remove succeeded")
	}
	if err := comp.RemoveQuery(9); err == nil {
		t.Fatal("removing unknown query succeeded")
	}
	if comp.QueryAlive(0) || !comp.QueryAlive(1) {
		t.Fatalf("liveness after removal: q0=%v q1=%v", comp.QueryAlive(0), comp.QueryAlive(1))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Answer on removed query did not panic")
			}
		}()
		comp.Answer(0)
	}()
	// Stream 0 leaving the removed query's range must not report.
	before := comp.Counter().Maintenance()
	comp.Deliver(0, 350)
	if got := comp.Counter().Maintenance(); got != before {
		t.Errorf("crossing a removed query's boundary cost %d messages", got-before)
	}
	// Stream 1 leaving the live query's range must still report once.
	comp.Deliver(1, 650)
	if got := comp.Counter().Maintenance() - before; got == 0 {
		t.Error("live query crossing after sibling removal reported nothing")
	}
	if qi := comp.AddQuery("q2", 2, ftnrpFactory(0, 100, 0, 3)); qi != 2 {
		t.Fatalf("AddQuery reused slot: got %d, want 2", qi)
	}
}

// TestCompositeSnapshotRoundTrip exports a warmed fabric (including a
// removed slot), imports it into a fresh one, and requires bit-identical
// continuation: same answers, same counters, and byte-identical re-exports
// before and after further traffic.
func TestCompositeSnapshotRoundTrip(t *testing.T) {
	rng := sim.NewRNG(17)
	initial := make([]float64, 40)
	for i := range initial {
		initial[i] = rng.Uniform(0, 1000)
	}
	build := func() *server.Composite {
		comp := server.NewComposite(initial)
		comp.AddQuery("q0", 0, ftnrpFactory(100, 400, 0.3, 11))
		comp.AddQuery("q1", 1, ftnrpFactory(300, 700, 0.2, 12))
		comp.AddQuery("q2", 2, ftnrpFactory(600, 900, 0.25, 13))
		return comp
	}
	ref := build()
	ref.Initialize()
	if err := ref.RemoveQuery(1); err != nil {
		t.Fatal(err)
	}
	// Pre-generate the whole move sequence so the post-snapshot tail can be
	// replayed identically into the restored fabric.
	walk := append([]float64(nil), initial...)
	type move struct {
		s int
		v float64
	}
	moves := make([]move, 900)
	for i := range moves {
		s := rng.Intn(len(walk))
		walk[s] += rng.Normal(0, 60)
		moves[i] = move{s, walk[s]}
	}
	for _, mv := range moves[:500] {
		ref.Deliver(mv.s, mv.v)
	}

	w := snapshot.NewWriter()
	ref.ExportState(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), w.Bytes()...)

	factories := map[int]func(server.Host) server.Protocol{
		0: ftnrpFactory(100, 400, 0.3, 11),
		2: ftnrpFactory(600, 900, 0.25, 13),
	}
	restored := server.NewComposite(initial)
	err := restored.ImportState(snapshot.NewReader(data),
		func(slot int, name string, seedID int64, h server.Host) (server.Protocol, error) {
			f, ok := factories[slot]
			if !ok {
				return nil, fmt.Errorf("unexpected slot %d", slot)
			}
			if seedID != int64(slot) {
				return nil, fmt.Errorf("slot %d seedID = %d", slot, seedID)
			}
			return f(h), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	w2 := snapshot.NewWriter()
	restored.ExportState(w2)
	if !bytes.Equal(data, w2.Bytes()) {
		t.Fatal("re-export after import differs from original snapshot")
	}

	// Continue both under identical traffic; they must stay bit-identical.
	for _, mv := range moves[500:] {
		ref.Deliver(mv.s, mv.v)
		restored.Deliver(mv.s, mv.v)
	}
	for _, qi := range []int{0, 2} {
		if got, want := restored.Answer(qi), ref.Answer(qi); !reflect.DeepEqual(got, want) {
			t.Errorf("query %d answer after restore = %v, want %v", qi, got, want)
		}
	}
	if got, want := *restored.Counter(), *ref.Counter(); !reflect.DeepEqual(got, want) {
		t.Errorf("counter after restore = %+v, want %+v", got, want)
	}

	// Decode robustness: truncations and header mutations error, never panic.
	for cut := 0; cut < len(data); cut += 97 {
		fresh := server.NewComposite(initial)
		_ = fresh.ImportState(snapshot.NewReader(data[:cut]),
			func(slot int, name string, seedID int64, h server.Host) (server.Protocol, error) {
				if f, ok := factories[slot]; ok {
					return f(h), nil
				}
				return nil, fmt.Errorf("unexpected slot %d", slot)
			})
	}
}

// hostProbe is a minimal protocol that drives every Host primitive once per
// HandleUpdate, so the per-query view's full surface — and its epoch
// charging rules — are pinned directly rather than through whichever
// primitives a core protocol happens to use.
type hostProbe struct {
	h server.Host
}

func (p *hostProbe) Name() string { return "host-probe" }
func (p *hostProbe) Initialize() {
	p.h.ProbeAll()
	p.h.ProbeBatch([]int{0, 1})
	p.h.Probe(0)
	p.h.ProbeIf(1, filter.WideOpen())
	p.h.InstallAll(filter.NewInterval(100, 500))
	p.h.Install(0, filter.NewInterval(100, 500), true)
	p.h.AddServerOps(1)
}
func (p *hostProbe) HandleUpdate(id int, v float64) {}
func (p *hostProbe) Answer() []int                  { return nil }

// TestCompositeViewHostSurface exercises every Host primitive through a
// composite view, checking the epoch sharing rules hold method by method:
// inside the init epoch the whole Initialize fan-out above costs exactly
// 2n probes + n installs, and outside an epoch each primitive pays the
// same price a Cluster charges.
func TestCompositeViewHostSurface(t *testing.T) {
	initial := []float64{200, 400, 800}
	n := uint64(len(initial))
	comp := server.NewComposite(initial)
	var views []server.Host
	for qi := 0; qi < 2; qi++ {
		qi := qi
		comp.AddQuery(fmt.Sprintf("hp%d", qi), int64(qi), func(h server.Host) server.Protocol {
			views = append(views, h)
			return &hostProbe{h: h}
		})
	}
	comp.Initialize()
	ctr := comp.Counter()
	if got, want := ctr.Get(comm.Init, comm.Probe), n; got != want {
		t.Errorf("init probes = %d, want %d (epoch must dedupe every probe variant)", got, want)
	}
	if got, want := ctr.Get(comm.Init, comm.Install), n; got != want {
		t.Errorf("init installs = %d, want %d (epoch must dedupe InstallAll and Install)", got, want)
	}
	if ctr.ServerOps != 2 {
		t.Errorf("server ops = %d, want 2", ctr.ServerOps)
	}

	// Accessors over the live fabric.
	if comp.QuerySlots() != 2 || comp.LiveQueries() != 2 {
		t.Fatalf("slots/live = %d/%d", comp.QuerySlots(), comp.LiveQueries())
	}
	if comp.QueryName(1) != "hp1" || comp.QuerySeedID(1) != 1 {
		t.Fatalf("slot 1 = %q/%d", comp.QueryName(1), comp.QuerySeedID(1))
	}
	if comp.Protocol(0).Name() != "host-probe" {
		t.Fatalf("Protocol(0) = %q", comp.Protocol(0).Name())
	}
	if comp.SilentStreams() != 0 {
		t.Fatalf("SilentStreams = %d, want 0", comp.SilentStreams())
	}
	if got := comp.Constraint(0, 0); got != filter.NewInterval(100, 500) {
		t.Fatalf("Constraint(0,0) = %v", got)
	}
	if comp.TrueValue(2) != 800 {
		t.Fatalf("TrueValue(2) = %g", comp.TrueValue(2))
	}

	// Outside an epoch, every primitive pays the Cluster price.
	v := views[0]
	before := *ctr
	if got := v.Probe(0); got != 200 {
		t.Fatalf("Probe = %g", got)
	}
	if _, hit := v.ProbeIf(0, filter.Shut()); hit {
		t.Fatal("ProbeIf hit through a shut filter")
	}
	if _, hit := v.ProbeIf(0, filter.WideOpen()); !hit {
		t.Fatal("ProbeIf missed through a wide-open filter")
	}
	v.ProbeBatch([]int{1, 2})
	v.ProbeAll()
	v.InstallAll(filter.NewInterval(0, 1000))
	v.Install(2, filter.NewInterval(0, 1000), true)
	wantProbe := before.Get(comm.Maintenance, comm.Probe) + 1 + 2 + 2 + n
	wantReply := before.Get(comm.Maintenance, comm.ProbeReply) + 1 + 1 + 2 + n
	wantInstall := before.Get(comm.Maintenance, comm.Install) + n + 1
	if got := ctr.Get(comm.Maintenance, comm.Probe); got != wantProbe {
		t.Errorf("maintenance probes = %d, want %d", got, wantProbe)
	}
	if got := ctr.Get(comm.Maintenance, comm.ProbeReply); got != wantReply {
		t.Errorf("maintenance probe replies = %d, want %d", got, wantReply)
	}
	if got := ctr.Get(comm.Maintenance, comm.Install); got != wantInstall {
		t.Errorf("maintenance installs = %d, want %d", got, wantInstall)
	}
	if val, known := v.Table(0); !known || val != 200 {
		t.Errorf("Table(0) = %g/%v", val, known)
	}
	if got := v.TableValues(); len(got) != len(initial) || got[2] != 800 {
		t.Errorf("TableValues = %v", got)
	}
	if v.N() != len(initial) {
		t.Errorf("N = %d", v.N())
	}
}

// TestCompositeKindSemanticsMatchCluster pins that a single-query composite
// applies the same per-kind source semantics as a Cluster's stream.Source:
// an unfiltered (None) query sees every update, a band query reports on
// deviation and re-centers locally, and answers and full counters match the
// Cluster deployment of the same protocol bit-exactly.
func TestCompositeKindSemanticsMatchCluster(t *testing.T) {
	rng := sim.NewRNG(83)
	initial := make([]float64, 45)
	for i := range initial {
		initial[i] = rng.Uniform(0, 1000)
	}
	type move struct {
		s int
		v float64
	}
	walkVals := append([]float64(nil), initial...)
	moves := make([]move, 2500)
	for i := range moves {
		s := rng.Intn(len(walkVals))
		walkVals[s] += rng.Normal(0, 30)
		moves[i] = move{s, walkVals[s]}
	}
	cases := []struct {
		name  string
		build func(h server.Host) server.Protocol
	}{
		{"no-filter", func(h server.Host) server.Protocol {
			return core.NewNoFilterRange(h, query.NewRange(300, 700))
		}},
		{"vb-knn", func(h server.Host) server.Protocol {
			return core.NewVBKNN(h, query.KNN{Q: query.At(500), K: 6}, 40)
		}},
		{"zt-nrp", func(h server.Host) server.Protocol {
			return core.NewZTNRP(h, query.NewRange(300, 700))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl := server.NewCluster(initial)
			cl.SetProtocol(tc.build(cl))
			cl.Initialize()
			comp := server.NewComposite(initial)
			comp.AddQuery("q0", 0, tc.build)
			comp.Initialize()
			for _, mv := range moves {
				cl.Deliver(mv.s, mv.v)
				comp.Deliver(mv.s, mv.v)
			}
			if got, want := comp.Answer(0), cl.Protocol().Answer(); !reflect.DeepEqual(got, want) {
				t.Errorf("answer = %v, cluster says %v", got, want)
			}
			if got, want := *comp.Counter(), *cl.Counter(); !reflect.DeepEqual(got, want) {
				t.Errorf("counter = %+v, cluster says %+v", got, want)
			}
		})
	}
}

// rangeQuery is one standing range query with its fraction tolerance.
type rangeQuery struct {
	rng query.Range
	tol core.FractionTolerance
}

func threeRangeQueries() []rangeQuery {
	return []rangeQuery{
		{query.NewRange(100, 300), core.FractionTolerance{EpsPlus: 0.3, EpsMinus: 0.3}},
		{query.NewRange(250, 500), core.FractionTolerance{EpsPlus: 0.2, EpsMinus: 0.2}},
		{query.NewRange(700, 900), core.FractionTolerance{EpsPlus: 0.4, EpsMinus: 0.4}},
	}
}

// sharedFTNRP hosts one FT-NRP per range query on a single composite over
// vals, each seeded from seed and its query index, and runs t0. Queries
// never re-initialize: a per-query ProbeAll would defeat the shared-probe
// economics, so depleted queries degrade to ZT-NRP as a lone FT-NRP would.
func sharedFTNRP(vals []float64, qs []rangeQuery, seed int64) *server.Composite {
	comp := server.NewComposite(vals)
	for qi, q := range qs {
		cfg := core.FTNRPConfig{
			Tol:       q.tol,
			Selection: core.SelectBoundaryNearest,
			Seed:      sim.DeriveSeed(seed, int64(qi)),
			Reinit:    core.ReinitNever,
		}
		comp.AddQuery(fmt.Sprintf("q%d", qi), int64(qi), func(h server.Host) server.Protocol {
			return core.NewFTNRP(h, q.rng, cfg)
		})
	}
	comp.Initialize()
	return comp
}

// TestCompositeInitialAnswers checks the t0 answers of overlapping range
// queries computed from one shared probe round.
func TestCompositeInitialAnswers(t *testing.T) {
	comp := sharedFTNRP([]float64{150, 275, 450, 800, 50}, threeRangeQueries(), 1)
	want := [][]int{{0, 1}, {1, 2}, {3}}
	for qi, w := range want {
		got := append([]int(nil), comp.Answer(qi)...)
		sort.Ints(got)
		if !reflect.DeepEqual(got, w) {
			t.Errorf("q%d answer = %v, want %v", qi, got, w)
		}
	}
	if comp.QuerySlots() != 3 || comp.N() != 5 {
		t.Fatalf("QuerySlots/N = %d/%d", comp.QuerySlots(), comp.N())
	}
}

// TestCompositeSingleMessageCoversAllQueries: a value change crossing two
// query boundaries at once costs one update message.
func TestCompositeSingleMessageCoversAllQueries(t *testing.T) {
	comp := sharedFTNRP([]float64{275}, []rangeQuery{ // inside both ranges
		{rng: query.NewRange(100, 300)},
		{rng: query.NewRange(250, 500)},
	}, 1)
	before := comp.Counter().Maintenance()
	comp.Deliver(0, 600) // leaves both ranges
	if got := comp.Counter().Maintenance() - before; got != 1 {
		t.Fatalf("double crossing cost %d messages, want 1", got)
	}
	if len(comp.Answer(0)) != 0 || len(comp.Answer(1)) != 0 {
		t.Fatalf("answers = %v / %v, want empty", comp.Answer(0), comp.Answer(1))
	}
}

// TestCompositeNoCrossingIsSilent: a move that crosses no boundary sends
// nothing.
func TestCompositeNoCrossingIsSilent(t *testing.T) {
	comp := sharedFTNRP([]float64{275}, []rangeQuery{{rng: query.NewRange(100, 300)}}, 1)
	before := comp.Counter().Maintenance()
	comp.Deliver(0, 280)
	if got := comp.Counter().Maintenance(); got != before {
		t.Fatal("in-range move produced a message")
	}
}

// TestCompositeFractionInvariantPerQuery checks every query's answer
// against its own fraction tolerance after every event of a random walk.
func TestCompositeFractionInvariantPerQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := 80
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Float64() * 1000
	}
	qs := threeRangeQueries()
	chk := oracle.New(vals)
	comp := sharedFTNRP(vals, qs, 7)
	for step := 0; step < 4000; step++ {
		id := rng.Intn(n)
		vals[id] += rng.NormFloat64() * 60
		chk.Apply(id, vals[id])
		comp.Deliver(id, vals[id])
		for qi, q := range qs {
			if err := chk.CheckFractionRange(comp.Answer(qi), q.rng, q.tol); err != nil {
				t.Fatalf("step %d query %d: %v", step, qi, err)
			}
		}
	}
}

// TestCompositeSilentStreamsCount: with a single query, streams silenced
// for it are fully shut down.
func TestCompositeSilentStreamsCount(t *testing.T) {
	vals := []float64{150, 160, 170, 180, 900, 910, 920, 930}
	comp := sharedFTNRP(vals, []rangeQuery{{
		rng: query.NewRange(100, 300),
		tol: core.FractionTolerance{EpsPlus: 0.5, EpsMinus: 0.5},
	}}, 1)
	// n+ = floor(4·0.5) = 2, n- = floor(4·0.5·0.5/0.5) = 2 → 4 silent.
	if got := comp.SilentStreams(); got != 4 {
		t.Fatalf("SilentStreams = %d, want 4", got)
	}
}

// randomMoves pre-generates a random walk of steps moves over vals.
func randomMoves(rng *rand.Rand, vals []float64, steps int, sigma float64) [][2]float64 {
	cur := append([]float64(nil), vals...)
	moves := make([][2]float64, steps) // (id, value)
	for s := range moves {
		id := rng.Intn(len(cur))
		cur[id] += rng.NormFloat64() * sigma
		moves[s] = [2]float64{float64(id), cur[id]}
	}
	return moves
}

// TestCompositeSharedBeatsIndependentClusters is the point of the
// extension: one composite-filtered population costs fewer messages than
// one cluster per query.
func TestCompositeSharedBeatsIndependentClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = rng.Float64() * 1000
	}
	moves := randomMoves(rng, vals, 8000, 50)
	qs := threeRangeQueries()

	comp := sharedFTNRP(vals, qs, 3)
	for _, mv := range moves {
		comp.Deliver(int(mv[0]), mv[1])
	}
	shared := comp.Counter().Maintenance()

	var independent uint64
	for _, q := range qs {
		c := server.NewCluster(vals)
		c.SetProtocol(core.NewFTNRP(c, q.rng, core.FTNRPConfig{
			Tol: q.tol, Selection: core.SelectBoundaryNearest, Seed: 3,
		}))
		c.Initialize()
		for _, mv := range moves {
			c.Deliver(int(mv[0]), mv[1])
		}
		independent += c.Counter().Maintenance()
	}
	if shared >= independent {
		t.Fatalf("shared = %d messages, independent = %d; sharing must win", shared, independent)
	}
}

// TestCompositeAnswersMatchIndependentFTNRP: with zero tolerance every
// shared answer is exact, and so equals what an independent FT-NRP cluster
// per query reports.
func TestCompositeAnswersMatchIndependentFTNRP(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	n := 60
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Float64() * 1000
	}
	qs := []rangeQuery{{rng: query.NewRange(100, 300)}, {rng: query.NewRange(250, 500)}}
	chk := oracle.New(vals)
	comp := sharedFTNRP(vals, qs, 1)
	clusters := make([]*server.Cluster, len(qs))
	for qi, q := range qs {
		c := server.NewCluster(vals)
		c.SetProtocol(core.NewFTNRP(c, q.rng, core.FTNRPConfig{Selection: core.SelectBoundaryNearest, Seed: 1}))
		c.Initialize()
		clusters[qi] = c
	}
	sorted := func(ids []int) []int {
		ids = append([]int(nil), ids...)
		sort.Ints(ids)
		return ids
	}
	for step := 0; step < 3000; step++ {
		id := rng.Intn(n)
		v := rng.Float64() * 1000
		chk.Apply(id, v)
		comp.Deliver(id, v)
		for qi, q := range qs {
			clusters[qi].Deliver(id, v)
			if err := chk.CheckFractionRange(comp.Answer(qi), q.rng, core.FractionTolerance{}); err != nil {
				t.Fatalf("step %d query %d: %v", step, qi, err)
			}
			if got, want := sorted(comp.Answer(qi)), sorted(clusters[qi].Protocol().Answer()); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d query %d: answer = %v, independent FT-NRP says %v", step, qi, got, want)
			}
		}
	}
}

// bandWatch wraps a band-installing protocol and counts the updates on
// which its own band entry fired: a fired band re-centers exactly on the
// reported value, which no other report leaves behind.
type bandWatch struct {
	server.Protocol
	c     *server.Composite
	slot  int
	fires int
}

func (w *bandWatch) HandleUpdate(id int, v float64) {
	if cons := w.c.Constraint(id, w.slot); cons.Kind == filter.Band && cons.BandCenter() == v {
		w.fires++
	}
	w.Protocol.HandleUpdate(id, v)
}

// TestCompositeDeliverAllocatesNothing pins the indexed delivery path at
// zero allocations once warm, on a dense composite shaped like a
// crossing-heavy tenant: 1000 random-walk streams (σ = 20) under 64
// overlapping FT-NRP range queries of width 150, whose Fix_Error installs
// keep inserting and deleting class boundaries, plus two VB-kNN queries
// whose bands re-center on every fire. Every pass walks on into fresh
// values — a replayed walk settles FT-NRP's slack count and stops
// Fix_Error — so nothing may rely on a replay having grown scratch first:
// the index reserves its per-stream arrays at query admission, and boundary
// inserts and the guard recompute must stay within them. The test also
// checks that both kinds of mutation fired inside the measured window.
func TestCompositeDeliverAllocatesNothing(t *testing.T) {
	const (
		n       = 1000
		queries = 64
		events  = 10000
		warm    = 1
		runs    = 3
	)
	rng := rand.New(rand.NewSource(61))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Float64() * 1000
	}
	// AllocsPerRun calls the pass once more than runs.
	moves := randomMoves(rng, vals, events*(warm+runs+1), 20)

	c := server.NewComposite(vals)
	for j := 0; j < queries; j++ {
		lo := float64(j) * 850 / (queries - 1)
		c.AddQuery(fmt.Sprintf("r%d", j), int64(j), ftnrpFactory(lo, lo+150, 0.2, int64(j)+1))
	}
	var watches []*bandWatch
	for j := 0; j < 2; j++ {
		w := &bandWatch{c: c}
		center := 300 + 400*float64(j)
		w.slot = c.AddQuery(fmt.Sprintf("vb%d", j), int64(queries+j), func(h server.Host) server.Protocol {
			w.Protocol = core.NewVBKNN(h, query.KNN{Q: query.At(center), K: 10}, 30)
			return w
		})
		watches = append(watches, w)
	}
	c.Initialize()

	pass := func() {
		for _, mv := range moves[:events] {
			c.Deliver(int(mv[0]), mv[1])
		}
		moves = moves[events:]
	}
	for i := 0; i < warm; i++ {
		pass() // settle every protocol past its t0 state
	}
	installs := c.Counter().Get(comm.Maintenance, comm.Install)
	fires := 0
	for _, w := range watches {
		fires -= w.fires
	}
	if allocs := testing.AllocsPerRun(runs, pass); allocs != 0 {
		t.Fatalf("warm composite delivery allocated %.1f objects per pass, want 0", allocs)
	}
	if c.Counter().Get(comm.Maintenance, comm.Install) == installs {
		t.Fatal("no FT-NRP install fired inside the measured window")
	}
	for _, w := range watches {
		fires += w.fires
	}
	if fires == 0 {
		t.Fatal("no band re-centered inside the measured window")
	}
}
