package server

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/stream"
)

type nopProto struct{}

func (nopProto) Name() string                    { return "nop" }
func (nopProto) Initialize()                     {}
func (nopProto) HandleUpdate(stream.ID, float64) {}
func (nopProto) Answer() []stream.ID             { return nil }

// CheckIndex exposes the index audit to the external equivalence and fuzz
// harnesses in package server_test.
var CheckIndex = checkIndex

// checkIndex verifies the full structural invariant set of the query index
// against the fabric: slot categorization, class membership and
// homogeneity, the exact boundary key set (strictly ascending), and the
// armed list (no leaks, no duplicates, every must-evaluate class present).
// It runs after every op of the equivalence and fuzz schedules, so it
// checks set equalities by counting against per-call marks rather than by
// building and sorting reference sets.
func checkIndex(t *testing.T, c *Composite) {
	t.Helper()
	x := c.idx
	if x == nil {
		t.Fatal("composite has no index")
	}
	slotSeen := make([]bool, len(c.queries))
	for s := range x.streams {
		st := &x.streams[s]
		if len(st.classOf) != len(c.queries) || len(st.next) != len(c.queries) || len(st.prev) != len(c.queries) {
			t.Fatalf("stream %d: slot arrays sized %d/%d/%d, want %d",
				s, len(st.classOf), len(st.next), len(st.prev), len(c.queries))
		}
		always, classed := 0, 0
		for qi := range c.queries {
			cons := c.cons[s][qi]
			cid := st.classOf[qi]
			slotSeen[qi] = false
			switch {
			case c.queries[qi] == nil || (cons.Kind == filter.Interval && cons.Silent()):
				if cid != catNone {
					t.Fatalf("stream %d slot %d: category %d, want none", s, qi, cid)
				}
			case cons.Kind == filter.None:
				if cid != catAlways {
					t.Fatalf("stream %d slot %d: category %d, want always", s, qi, cid)
				}
				always++
			default:
				if cid < 0 || int(cid) >= len(st.classes) {
					t.Fatalf("stream %d slot %d: class id %d out of range", s, qi, cid)
				}
				cl := &st.classes[cid]
				if !cl.live {
					t.Fatalf("stream %d slot %d: points at dead class %d", s, qi, cid)
				}
				if !sameConstraint(cl.cons, cons) {
					t.Fatalf("stream %d slot %d: class %d holds %v, entry holds %v",
						s, qi, cid, cl.cons, cons)
				}
				classed++
			}
		}
		if always != st.always {
			t.Fatalf("stream %d: always = %d, want %d", s, st.always, always)
		}
		// Every member of a live class is a distinct slot categorized into
		// that class, linked both ways; with the member total equal to the
		// number of classed slots, class membership is exactly what the
		// fabric implies.
		members, wantKeys := 0, 0
		for cid := range st.classes {
			cl := &st.classes[cid]
			if !cl.live {
				continue
			}
			if cl.head < 0 {
				t.Fatalf("stream %d: live class %d is empty", s, cid)
			}
			n, pv := int32(0), int32(-1)
			for sl := cl.head; sl >= 0; sl = st.next[sl] {
				if int(sl) >= len(c.queries) || st.classOf[sl] != int32(cid) || slotSeen[sl] || st.prev[sl] != pv {
					t.Fatalf("stream %d class %d: member %d disagrees with the slot categories or links",
						s, cid, sl)
				}
				slotSeen[sl] = true
				pv = sl
				n++
			}
			if n != cl.size {
				t.Fatalf("stream %d class %d: %d linked members, size says %d", s, cid, n, cl.size)
			}
			members += int(n)
			// Interval classes must share one recorded side.
			if cl.cons.Kind == filter.Interval {
				side := c.inside[s][cl.head]
				for sl := cl.head; sl >= 0; sl = st.next[sl] {
					if c.inside[s][sl] != side {
						t.Fatalf("stream %d class %d: recorded sides diverge", s, cid)
					}
				}
			}
			lo, hi := cl.cons.Bounds()
			if !(lo > hi) {
				if finite(lo) {
					wantKeys++
				}
				if finite(hi) {
					wantKeys++
				}
			}
			// Must-evaluate classes are armed.
			needArmed := false
			if cl.cons.Kind == filter.Band {
				needArmed = structuralBand(cl.cons) || !cl.cons.Contains(c.vals[s])
			} else {
				needArmed = c.inside[s][cl.head] != cl.cons.Contains(c.vals[s])
			}
			if needArmed && !cl.armed {
				t.Fatalf("stream %d class %d (%v): must-evaluate but not armed", s, cid, cl.cons)
			}
		}
		if members != classed {
			t.Fatalf("stream %d: classes hold %d members, fabric implies %d", s, members, classed)
		}
		// The boundary set holds exactly the live classes' finite region
		// ends: strictly ascending (so no key repeats), every key one of
		// those ends, and as many keys as there are ends.
		keys := st.bounds.keys
		for i, k := range keys {
			if i > 0 && !keys[i-1].less(k) {
				t.Fatalf("stream %d: boundary keys %v, %v out of order", s, keys[i-1], k)
			}
			cid := int(k.ID >> 1)
			if k.ID < 0 || cid >= len(st.classes) || !st.classes[cid].live {
				t.Fatalf("stream %d: boundary key %v names no live class", s, k)
			}
			lo, hi := st.classes[cid].cons.Bounds()
			end := lo
			if k.ID&1 == 1 {
				end = hi
			}
			if lo > hi || !finite(end) || end != k.V {
				t.Fatalf("stream %d: boundary key %v does not match class %d's region [%v, %v]",
					s, k, cid, lo, hi)
			}
		}
		if len(keys) != wantKeys {
			t.Fatalf("stream %d: %d boundary keys, want %d", s, len(keys), wantKeys)
		}
		// The guard's certificate: while it stands, its open interval must
		// be free of boundary key values (a stale guard would silently skip
		// real crossings — behaviorally invisible until a query misses an
		// update, so it is audited structurally here).
		if st.guardOK {
			for _, k := range keys {
				if st.gLo < k.V && k.V < st.gHi {
					t.Fatalf("stream %d: guard (%v, %v) claims boundary-free but key %v is inside",
						s, st.gLo, st.gHi, k)
				}
			}
		}
		armedSeen := make([]bool, len(st.classes))
		for _, cid := range st.armed {
			if armedSeen[cid] {
				t.Fatalf("stream %d: class %d armed twice", s, cid)
			}
			armedSeen[cid] = true
			cl := &st.classes[cid]
			if !cl.live || !cl.armed {
				t.Fatalf("stream %d: armed list holds dead/unflagged class %d", s, cid)
			}
		}
		for cid := range st.classes {
			if st.classes[cid].armed && !armedSeen[cid] {
				t.Fatalf("stream %d: class %d flagged armed but not listed", s, cid)
			}
		}
	}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// TestQueryIndexInvariants churns the index through every mutation path —
// installs from an adversarial palette, deliveries (including NaN and ±Inf
// fallbacks), slot addition and removal — and fully audits the structures
// after every operation. The black-box equivalence test proves behaviour;
// this one catches silent structural leaks (stale boundary keys, leaked
// armed entries) that would only show as performance decay.
func TestQueryIndexInvariants(t *testing.T) {
	const n = 6
	rng := rand.New(rand.NewSource(99))
	initial := make([]float64, n)
	for s := range initial {
		initial[s] = rng.NormFloat64()*40 + 150
	}
	c := NewComposite(initial)
	if c.idx == nil {
		t.Skip("query index disabled")
	}
	build := func(Host) Protocol { return nopProto{} }
	for qi := 0; qi < 4; qi++ {
		c.AddQuery("q", int64(qi), build)
	}
	palette := func(v float64) filter.Constraint {
		w := 5 + rng.Float64()*40
		switch rng.Intn(12) {
		case 0:
			return filter.NoFilter()
		case 1:
			return filter.WideOpen()
		case 2:
			return filter.Shut()
		case 3:
			return filter.NewBand(v, w)
		case 4:
			return filter.NewBand(v, math.NaN())
		case 5:
			return filter.NewBand(math.Inf(1), w)
		case 6:
			return filter.NewInterval(v+w, v-w)
		case 7:
			return filter.NewInterval(math.NaN(), v)
		case 8:
			return filter.NewInterval(100, 200)
		case 9:
			return filter.NewBand(150, 25)
		default:
			return filter.NewInterval(v-w, v+w)
		}
	}
	live := []int{0, 1, 2, 3}
	slots := 4
	for op := 0; op < 3000; op++ {
		switch r := rng.Intn(100); {
		case r < 35:
			s := stream.ID(rng.Intn(n))
			qi := live[rng.Intn(len(live))]
			c.setConstraint(s, qi, palette(c.vals[s]))
		case r < 38 && slots < 10:
			c.AddQuery("q", int64(slots), build)
			live = append(live, slots)
			slots++
		case r < 41 && len(live) > 1:
			j := rng.Intn(len(live))
			if err := c.RemoveQuery(live[j]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:j], live[j+1:]...)
		default:
			v := rng.NormFloat64()*40 + 150
			switch rng.Intn(30) {
			case 0:
				v = math.NaN()
			case 1:
				v = math.Inf(1)
			case 2:
				v = math.Inf(-1)
			}
			c.Deliver(stream.ID(rng.Intn(n)), v)
		}
		checkIndex(t, c)
	}
}

// naiveBounds is the reference the boundary-set tests check against: an
// unordered key list, scanned in full for every question.
type naiveBounds []boundKey

func (n naiveBounds) sorted() []boundKey {
	out := append([]boundKey(nil), n...)
	sort.Slice(out, func(a, b int) bool { return out[a].less(out[b]) })
	return out
}

func (n naiveBounds) has(k boundKey) bool {
	for _, h := range n {
		if h == k {
			return true
		}
	}
	return false
}

// sameKeys fails unless got equals want key for key. Values compare with
// ==, so a stored −0 matches a wanted +0 exactly as the set's order does.
func sameKeys(t *testing.T, what string, got, want []boundKey) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d keys %v, want %d %v", what, len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: key %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestBoundSetInsertDelete churns the flat boundary set against the naive
// reference — ties on V broken by id, ±0 as one value, ±Inf keys, duplicate
// inserts and absent deletes refused, NaN inserts panicking and NaN deletes
// matching nothing — and pins capacity reuse: once the slice has grown,
// insert/delete churn allocates nothing and keeps the same backing array.
func TestBoundSetInsertDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := []float64{math.Inf(-1), -3, -1, math.Copysign(0, -1), 0, 2, 2.5, 7, math.Inf(1)}
	var b boundSet
	var ref naiveBounds
	for op := 0; op < 4000; op++ {
		k := boundKey{V: vals[rng.Intn(len(vals))], ID: int32(rng.Intn(6))}
		if rng.Intn(2) == 0 {
			want := !ref.has(k)
			if got := b.insert(k); got != want {
				t.Fatalf("op %d: insert(%v) = %v, want %v", op, k, got, want)
			}
			if want {
				ref = append(ref, k)
			}
		} else {
			want := ref.has(k)
			if got := b.delete(k); got != want {
				t.Fatalf("op %d: delete(%v) = %v, want %v", op, k, got, want)
			}
			for i, h := range ref {
				if h == k {
					ref = append(ref[:i], ref[i+1:]...)
					break
				}
			}
		}
		sameKeys(t, fmt.Sprintf("op %d", op), b.keys, ref.sorted())
	}

	nan := math.NaN()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("insert(NaN) did not panic")
			}
		}()
		b.insert(boundKey{V: nan})
	}()
	if b.delete(boundKey{V: nan}) {
		t.Fatal("delete(NaN) = true")
	}
	sameKeys(t, "after NaN ops", b.keys, ref.sorted())

	var reuse boundSet
	for i := 0; i < 64; i++ {
		reuse.insert(boundKey{V: float64(i % 9), ID: int32(i)})
	}
	base := &reuse.keys[:1][0]
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < 64; i++ {
			reuse.delete(boundKey{V: float64(i % 9), ID: int32(i)})
		}
		for i := 63; i >= 0; i-- {
			reuse.insert(boundKey{V: float64(i % 9), ID: int32(i)})
		}
	})
	if allocs != 0 {
		t.Fatalf("insert/delete churn allocates %v allocs/run, want 0", allocs)
	}
	if &reuse.keys[:1][0] != base {
		t.Fatal("churn within capacity reallocated the boundary slice")
	}
}

// TestBoundSetWindow checks the boundary walk's value window against a
// naive scan: every key with lo <= V <= hi, ascending, including ties on
// V at both ends; inverted, NaN and empty-set windows match nothing.
func TestBoundSetWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var b boundSet
	var ref naiveBounds
	for i := 0; i < 200; i++ {
		k := boundKey{V: float64(rng.Intn(50)), ID: int32(rng.Intn(6))}
		if b.insert(k) {
			ref = append(ref, k)
		}
	}
	all := ref.sorted()
	for trial := 0; trial < 200; trial++ {
		lo, hi := float64(rng.Intn(60)-5), float64(rng.Intn(60)-5)
		var want []boundKey
		for _, k := range all {
			if lo <= k.V && k.V <= hi {
				want = append(want, k)
			}
		}
		sameKeys(t, fmt.Sprintf("window[%g,%g]", lo, hi), b.window(lo, hi), want)
	}
	sameKeys(t, "window[-Inf,+Inf]", b.window(math.Inf(-1), math.Inf(1)), all)
	if got := b.window(10, 5); len(got) != 0 {
		t.Fatalf("inverted window returned %d keys", len(got))
	}
	if got := b.window(math.NaN(), 5); len(got) != 0 {
		t.Fatalf("window with NaN lower bound returned %d keys", len(got))
	}
	if got := b.window(5, math.NaN()); len(got) != 0 {
		t.Fatalf("window with NaN upper bound returned %d keys", len(got))
	}
	var empty boundSet
	if got := empty.window(math.Inf(-1), math.Inf(1)); len(got) != 0 {
		t.Fatalf("empty window returned %d keys", len(got))
	}

	// ±0 is one value: a window ending at −0 holds a key stored at +0.
	var z boundSet
	z.insert(boundKey{V: 0, ID: 1})
	z.insert(boundKey{V: math.Copysign(0, -1), ID: 0})
	if got := z.window(-1, math.Copysign(0, -1)); len(got) != 2 {
		t.Fatalf("window(-1, -0) over keys at ±0 returned %d keys, want 2", len(got))
	}
}

// TestBoundSetBracket checks the guard bracket against a naive scan:
// tightest key values either side of v, ±Inf at the extremes, and the exact
// refusal whenever some key value equals v (duplicate-V keys, ±0 alike), for
// NaN, and never on the empty set.
func TestBoundSetBracket(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var b boundSet
	var vals []float64
	for i := 0; i < 300; i++ {
		k := boundKey{V: float64(rng.Intn(80)), ID: int32(rng.Intn(8))}
		if b.insert(k) {
			vals = append(vals, k.V)
		}
	}
	probe := func(v float64) {
		t.Helper()
		lo, hi, exact := b.bracket(v)
		wantLo, wantHi, wantExact := math.Inf(-1), math.Inf(1), false
		for _, k := range vals {
			switch {
			case k < v && k > wantLo:
				wantLo = k
			case k > v && k < wantHi:
				wantHi = k
			case k == v:
				wantExact = true
			}
		}
		if exact != wantExact {
			t.Fatalf("bracket(%g) exact = %v, want %v", v, exact, wantExact)
		}
		if !exact && (lo != wantLo || hi != wantHi) {
			t.Fatalf("bracket(%g) = (%g, %g), want (%g, %g)", v, lo, hi, wantLo, wantHi)
		}
	}
	for trial := 0; trial < 400; trial++ {
		probe(float64(rng.Intn(100)) - 10 + rng.Float64())
		probe(float64(rng.Intn(100) - 10)) // integer probes hit stored values
	}
	probe(math.Inf(1))
	probe(math.Inf(-1))
	probe(math.Copysign(0, -1)) // key values include 0: −0 must hit them
	if _, _, exact := b.bracket(math.NaN()); !exact {
		t.Fatal("bracket(NaN) must refuse via exact")
	}
	var empty boundSet
	if lo, hi, exact := empty.bracket(5); exact || !math.IsInf(lo, -1) || !math.IsInf(hi, 1) {
		t.Fatalf("empty bracket = (%g, %g, %v)", lo, hi, exact)
	}
}
