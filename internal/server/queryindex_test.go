package server_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/snapshot"
	"adaptivefilters/internal/stream"
)

// churner is an adversarial scripted protocol for the query-index
// equivalence tests: its maintenance phase installs constraints drawn from
// a palette covering every categorization edge the index has — shared
// duplicates, bands of every degeneracy (NaN width, ±Inf center, zero and
// negative width), silent and half-infinite intervals, unfiltered entries.
// All randomness is a pure function of (seed, update counter), so its only
// dynamic state is the counter and snapshot restore resumes the exact
// decision stream.
type churner struct {
	h       server.Host
	seed    uint64
	updates uint64
}

func churnMix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func (p *churner) Name() string { return "churner" }

func (p *churner) pick(r uint64, v float64) filter.Constraint {
	w := 10 + float64(r%97)
	switch (r >> 32) % 16 {
	case 0:
		return filter.NoFilter()
	case 1:
		return filter.NewInterval(v-w, v+w)
	case 2:
		return filter.NewInterval(v+1, v+w) // current value just outside
	case 3:
		return filter.WideOpen()
	case 4:
		return filter.Shut()
	case 5:
		return filter.NewBand(v, w)
	case 6:
		return filter.NewBand(v, 0)
	case 7:
		return filter.NewInterval(v+w, v-w) // inverted: silent
	case 8:
		return filter.NewInterval(v-w, math.Inf(1))
	case 9:
		return filter.NewInterval(math.Inf(-1), v)
	case 10:
		return filter.NewBand(v, math.NaN()) // fires every update
	case 11:
		return filter.NewInterval(math.NaN(), v)
	case 12:
		return filter.NewBand(math.Inf(1), w) // region {+Inf}
	case 13:
		return filter.NewInterval(100, 200) // shared across queries
	default:
		return filter.NewBand(150, 25) // shared band
	}
}

func (p *churner) Initialize() {
	p.h.ProbeAll()
	for id := 0; id < p.h.N(); id++ {
		v, _ := p.h.Table(stream.ID(id))
		p.h.Install(stream.ID(id), p.pick(churnMix(p.seed^uint64(id)), v), false)
	}
}

func (p *churner) HandleUpdate(id stream.ID, v float64) {
	p.updates++
	r := churnMix(p.seed ^ churnMix(p.updates))
	n := uint64(p.h.N())
	switch r % 8 {
	case 0:
		p.h.Install(id, p.pick(r, v), false)
	case 1:
		tid := stream.ID((r >> 8) % n)
		tv := p.h.Probe(tid)
		p.h.Install(tid, p.pick(r>>16, tv), false)
	case 2:
		// ProbeIf re-records the probed stream's sides even on a miss.
		p.h.ProbeIf(stream.ID((r>>8)%n), filter.NewInterval(100, 500))
	case 3:
		p.h.AddServerOps(1)
	}
}

func (p *churner) Answer() []stream.ID { return nil }

func (p *churner) ExportState(w *snapshot.Writer)       { w.Uint64(p.updates) }
func (p *churner) ImportState(r *snapshot.Reader) error { p.updates = r.Uint64(); return r.Err() }

// compOp is one step of a recorded composite schedule.
type compOp struct {
	kind int // 0 deliver, 1 add query, 2 remove query, 3 snapshot cut, 4 install
	s    int
	v    float64
	qi   int
	r    uint64 // install: the palette draw (churner.pick)
}

// genCompOps records a deterministic schedule over n streams: mostly
// deliveries (with exact-boundary, ±Inf and NaN values mixed in), plus
// query admissions, removals and snapshot cuts. Liveness is simulated here
// so removals always target a live slot on both replays.
func genCompOps(seed int64, n, steps, initialQueries int) []compOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]compOp, 0, steps)
	live := make([]int, 0, 8)
	slots := initialQueries
	for qi := 0; qi < initialQueries; qi++ {
		live = append(live, qi)
	}
	for i := 0; i < steps; i++ {
		switch r := rng.Intn(100); {
		case r < 3 && slots < maxCompSlots:
			ops = append(ops, compOp{kind: 1, qi: slots})
			live = append(live, slots)
			slots++
		case r < 5 && len(live) > 1:
			j := rng.Intn(len(live))
			ops = append(ops, compOp{kind: 2, qi: live[j]})
			live = append(live[:j], live[j+1:]...)
		case r < 8:
			ops = append(ops, compOp{kind: 3})
		default:
			v := rng.NormFloat64()*60 + 150
			switch rng.Intn(40) {
			case 0:
				v = math.NaN() // linear-scan fallback + stream rebuild
			case 1:
				v = math.Inf(1)
			case 2:
				v = math.Inf(-1)
			case 3, 4:
				v = []float64{100, 200, 150, 125, 175}[rng.Intn(5)]
			}
			ops = append(ops, compOp{kind: 0, s: rng.Intn(n), v: v})
		}
	}
	return ops
}

// replayComposite runs one recorded schedule with the query index on or
// off, returning the snapshot taken at every cut plus the final one. Each
// cut round-trips the fabric through ExportState/ImportState into a fresh
// composite, so the restore-rebuild path is exercised mid-schedule, not
// just compared at the end. With the index on, its full structural audit
// (server.CheckIndex) runs after every op.
func replayComposite(t *testing.T, indexed bool, initial []float64, ops []compOp, initialQueries int) [][]byte {
	t.Helper()
	prev := server.SetQueryIndexEnabled(indexed)
	defer server.SetQueryIndexEnabled(prev)

	// churners[slot] is the live protocol of each slot, for install ops.
	var churners []*churner
	build := func(slot int, seedID int64) func(server.Host) server.Protocol {
		return func(h server.Host) server.Protocol {
			p := &churner{h: h, seed: uint64(seedID)*0x9E3779B97F4A7C15 + 1}
			for len(churners) <= slot {
				churners = append(churners, nil)
			}
			churners[slot] = p
			return p
		}
	}
	factory := func(slot int, name string, seedID int64, h server.Host) (server.Protocol, error) {
		return build(slot, seedID)(h), nil
	}
	export := func(c *server.Composite) []byte {
		w := snapshot.NewWriter()
		c.ExportState(w)
		if err := w.Err(); err != nil {
			t.Fatalf("export: %v", err)
		}
		return w.Bytes()
	}

	comp := server.NewComposite(initial)
	for qi := 0; qi < initialQueries; qi++ {
		comp.AddQuery(fmt.Sprintf("q%d", qi), int64(qi), build(qi, int64(qi)))
	}
	comp.Initialize()

	var cuts [][]byte
	for _, op := range ops {
		switch op.kind {
		case 0:
			comp.Deliver(stream.ID(op.s), op.v)
		case 1:
			qi := comp.AddQuery(fmt.Sprintf("q%d", op.qi), int64(op.qi), build(op.qi, int64(op.qi)))
			comp.InitializeQuery(qi)
		case 2:
			if err := comp.RemoveQuery(op.qi); err != nil {
				t.Fatalf("RemoveQuery(%d): %v", op.qi, err)
			}
		case 3:
			b := export(comp)
			cuts = append(cuts, b)
			restored := server.NewComposite(initial)
			if err := restored.ImportState(snapshot.NewReader(b), factory); err != nil {
				t.Fatalf("restore at cut %d: %v", len(cuts), err)
			}
			comp = restored
		case 4:
			// An out-of-band maintenance install: probe, then install a
			// palette constraint, exactly as a churner's HandleUpdate does.
			p, id := churners[op.qi], stream.ID(op.s)
			p.h.Install(id, p.pick(op.r, p.h.Probe(id)), false)
		}
		if indexed {
			server.CheckIndex(t, comp)
		}
	}
	cuts = append(cuts, export(comp))
	return cuts
}

// equivInitial is the initial stream population of the equivalence
// schedules for seed.
func equivInitial(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
	initial := make([]float64, n)
	for s := range initial {
		initial[s] = rng.NormFloat64()*60 + 150
	}
	return initial
}

// TestQueryIndexEquivalence pins the indexed Deliver bit-identical to the
// linear reference scan — full fabric snapshots (constraint vectors,
// recorded sides, tables, counters, protocol state) compared at every
// snapshot cut and at the end — across adversarial constraint churn, query
// admission/removal, NaN/±Inf deliveries and mid-schedule restores.
func TestQueryIndexEquivalence(t *testing.T) {
	const n = 24
	for _, seed := range []int64{1, 7, 23, 61} {
		initial := equivInitial(seed, n)
		ops := genCompOps(seed, n, 1500, 3)
		linear := replayComposite(t, false, initial, ops, 3)
		indexed := replayComposite(t, true, initial, ops, 3)
		if len(linear) != len(indexed) {
			t.Fatalf("seed %d: %d cuts linear, %d indexed", seed, len(linear), len(indexed))
		}
		for i := range linear {
			if !bytes.Equal(linear[i], indexed[i]) {
				t.Fatalf("seed %d: snapshot at cut %d/%d differs between linear and indexed evaluation",
					seed, i+1, len(linear))
			}
		}
	}
}

// Schedule bounds shared by genCompOps and the fuzz codec.
const (
	maxCompSlots = 12 // query slots a schedule may ever admit
	maxFuzzOps   = 2048
)

// encodeCompOps is decodeCompOps' inverse for schedules that only remove
// live slots and admit below maxCompSlots — every genCompOps schedule — so
// the fuzz corpus can start from the equivalence test's schedules. Each op
// is one kind byte plus its payload: deliver = stream byte + 8-byte value
// bits, remove = index into the live-slot list, install = live-slot index +
// stream byte + 8-byte palette draw.
func encodeCompOps(ops []compOp, initialQueries int) []byte {
	var out []byte
	live := make([]int, 0, maxCompSlots)
	for qi := 0; qi < initialQueries; qi++ {
		live = append(live, qi)
	}
	liveIndex := func(qi int) byte {
		for j, l := range live {
			if l == qi {
				return byte(j)
			}
		}
		panic(fmt.Sprintf("slot %d is not live", qi))
	}
	for _, op := range ops {
		out = append(out, byte(op.kind))
		switch op.kind {
		case 0:
			out = append(out, byte(op.s))
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(op.v))
		case 1:
			live = append(live, op.qi)
		case 2:
			j := liveIndex(op.qi)
			out = append(out, j)
			live = append(live[:j], live[j+1:]...)
		case 4:
			out = append(out, liveIndex(op.qi), byte(op.s))
			out = binary.LittleEndian.AppendUint64(out, op.r)
		}
	}
	return out
}

// decodeCompOps turns arbitrary bytes into a valid schedule over n streams
// in the genCompOps vocabulary plus out-of-band installs. Liveness is
// simulated as genCompOps does, so removes and installs always target a
// live slot; ops that cannot apply (an admission past maxCompSlots, the
// last live slot's removal) are dropped, and a truncated tail ends the
// schedule.
func decodeCompOps(data []byte, n, initialQueries int) []compOp {
	var ops []compOp
	live := make([]int, 0, maxCompSlots)
	for qi := 0; qi < initialQueries; qi++ {
		live = append(live, qi)
	}
	slots := initialQueries
	for len(data) > 0 && len(ops) < maxFuzzOps {
		kind := int(data[0] % 5)
		data = data[1:]
		switch kind {
		case 0:
			if len(data) < 9 {
				return ops
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[1:9]))
			ops = append(ops, compOp{kind: 0, s: int(data[0]) % n, v: v})
			data = data[9:]
		case 1:
			if slots < maxCompSlots {
				ops = append(ops, compOp{kind: 1, qi: slots})
				live = append(live, slots)
				slots++
			}
		case 2:
			if len(data) < 1 {
				return ops
			}
			j := int(data[0]) % len(live)
			data = data[1:]
			if len(live) > 1 {
				ops = append(ops, compOp{kind: 2, qi: live[j]})
				live = append(live[:j], live[j+1:]...)
			}
		case 3:
			ops = append(ops, compOp{kind: 3})
		case 4:
			if len(data) < 10 {
				return ops
			}
			ops = append(ops, compOp{
				kind: 4,
				qi:   live[int(data[0])%len(live)],
				s:    int(data[1]) % n,
				r:    binary.LittleEndian.Uint64(data[2:10]),
			})
			data = data[10:]
		}
	}
	return ops
}

// FuzzQueryIndex replays decoded schedules — deliveries of any float64
// (NaN and ±Inf included; band entries re-center on them), query admission
// and removal, out-of-band installs from the churner palette and
// mid-schedule snapshot restores — with the query index on and off, and
// requires byte-identical fabric snapshots at every cut plus a clean
// structural audit of the index after every op. The seed corpus is the
// equivalence test's schedules, with a few out-of-band installs appended.
// Those inputs are long (~15 KB), so in a short -fuzztime burst the
// minimizer can spend most of the budget shrinking the first input that
// finds new coverage; every candidate it tries is still a full replay
// pair. For broader exploration, run longer or set -fuzzminimizetime.
func FuzzQueryIndex(f *testing.F) {
	const (
		n              = 24
		initialQueries = 3
	)
	for _, seed := range []int64{1, 7, 23, 61} {
		ops := genCompOps(seed, n, 1500, initialQueries)
		data := encodeCompOps(ops, initialQueries)
		back := decodeCompOps(data, n, initialQueries)
		for i := range ops {
			a, b := ops[i], back[i]
			if a.kind != b.kind || a.s != b.s || a.qi != b.qi || a.r != b.r ||
				math.Float64bits(a.v) != math.Float64bits(b.v) {
				f.Fatalf("seed %d: op %d decodes as %+v, recorded %+v", seed, i, b, a)
			}
		}
		if len(back) != len(ops) {
			f.Fatalf("seed %d: %d ops decode from %d recorded", seed, len(back), len(ops))
		}
		for i := 0; i < 8; i++ {
			data = append(data, 4, byte(i), byte(3*i))
			data = binary.LittleEndian.AppendUint64(data, churnMix(uint64(seed)+uint64(i)))
		}
		f.Add(seed, data)
	}
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		initial := equivInitial(seed, n)
		ops := decodeCompOps(data, n, initialQueries)
		linear := replayComposite(t, false, initial, ops, initialQueries)
		indexed := replayComposite(t, true, initial, ops, initialQueries)
		if len(linear) != len(indexed) {
			t.Fatalf("%d cuts linear, %d indexed", len(linear), len(indexed))
		}
		for i := range linear {
			if !bytes.Equal(linear[i], indexed[i]) {
				t.Fatalf("snapshot at cut %d/%d differs between linear and indexed evaluation",
					i+1, len(linear))
			}
		}
	})
}
