package server

import (
	"math"
	"slices"

	"adaptivefilters/internal/filter"
)

// This file makes Composite.Deliver sub-linear in the number of standing
// queries M. The linear fabric walks all M constraint entries of the
// delivered stream on every update; at M=256 that scan dominates ingest
// even though almost no entry can possibly cross. The query index replaces
// that crossing-detection scan, and its slot row answers the report
// fan-out's per-query silence test; the report path's effects (counter
// charges, table refresh, which queries' HandleUpdate runs) are unchanged,
// so message accounting and protocol trajectories stay bit-identical to
// the linear evaluation (pinned by the equivalence tests and the runtime
// property harness).
//
// Two structures per stream:
//
//   - A planner groups that stream's live entries into evaluation classes:
//     entries whose constraints are bit-identical (and, for intervals, whose
//     recorded sides agree) share one class and are evaluated once per
//     update instead of once per query. M queries installing the same band
//     cost one check, not M.
//
//   - The finite boundaries of each class's inside region live in one
//     sorted slice per stream (boundSet), keyed by (boundary value, class
//     boundary id). A value move u→v can only change Contains for a class
//     with a boundary inside [min(u,v), max(u,v)] — the proven fabric
//     invariant is that inside[s][q] == cons[s][q].Contains(vals[s]) at all
//     times, so an interval crossing is exactly a sign change of Contains
//     over the move. Deliver therefore reads the window between two binary
//     searches — O(log M + hits) — instead of all M entries. The slice is
//     contiguous on purpose: a tenant's whole boundary state stays a few
//     dense arrays rather than thousands of scattered tree nodes, so it
//     survives in cache while other tenants interleave.
//
// Three escape hatches keep the walk exactly equivalent to the scan:
//
//   - always: filter.None entries report every update; a plain count makes
//     the stream report unconditionally while any live unfiltered query
//     exists.
//
//   - armed: classes that must be evaluated on every update because the
//     boundary walk cannot see their next fire. A band whose region
//     excludes the current value fires on the next update wherever it
//     lands ("stays outside on the same side" crosses no boundary), as do
//     degenerate bands (NaN or inverted regions, ±Inf centers) and — after
//     a corrupted restore — interval entries whose recorded side disagrees
//     with ground truth. Transient arming clears itself on first
//     evaluation; structural arming (degenerate bands) persists until the
//     class is rewritten.
//
//   - NaN updates: a NaN value admits no ordering, so the boundary walk is
//     meaningless; Deliver falls back to the linear scan for that update
//     and rebuilds the stream's index afterwards.
//
// Mutations funnel through set(): AddQuery, RemoveQuery, setConstraint
// (installs), and the restore rebuild all re-categorize one (stream, slot)
// entry; band re-centering inside Deliver moves whole classes at once
// (rekeyBand), merging into an existing class when re-centering makes two
// bands identical. ExportState/ImportState never encode the index — restore
// rebuilds it from the restored constraint vectors, so the snapshot format
// is unchanged and index state can never drift from fabric state across a
// save/load cycle.
//
// Everything on the Deliver path reuses scratch owned by the index (the
// touched-class list, each boundary slice's capacity), keeping the
// steady-state ingest path at 0 allocs/op. classOf doubles as the fan-out's
// compact silence row: for a live slot, catNone holds exactly when the
// entry is silent, so Composite.Deliver reads 4 bytes per query instead of
// re-testing each constraint.

// enableQueryIndex gates the indexed Deliver path for composites built
// after it changes. Production always runs indexed; equivalence tests
// toggle it to pin indexed against linear evaluation.
var enableQueryIndex = true

// SetQueryIndexEnabled toggles whether newly constructed Composites build
// the per-stream query index, returning the previous setting. It exists
// for tests that compare the indexed Deliver against the linear reference
// scan; production code never calls it.
func SetQueryIndexEnabled(on bool) bool {
	prev := enableQueryIndex
	enableQueryIndex = on
	return prev
}

// Slot categories recorded in qstream.classOf.
const (
	catNone   int32 = -1 // no index entry: removed slot or silent filter
	catAlways int32 = -2 // filter.None entry: reports every update
)

// qclass is one evaluation class: the queries of one stream sharing a
// bit-identical constraint (and recorded side, for intervals).
type qclass struct {
	cons       filter.Constraint
	head       int32  // first member slot in the stream's member lists; -1 when empty
	size       int32  // member count
	stamp      uint64 // last deliver generation this class was evaluated in
	live       bool
	armed      bool // on the always-evaluate list
	structural bool // degenerate band: stays armed until rewritten
}

// qstream is one stream's index: its classes, their boundary set, and the
// escape-hatch lists.
type qstream struct {
	bounds  boundSet
	classes []qclass
	freeCls []int32 // recycled class ids
	classOf []int32 // per query slot: class id, catNone or catAlways
	armed   []int32 // class ids to evaluate on every update
	always  int     // live filter.None entries

	// next and prev thread each class's members into a doubly linked list
	// through the slot index (-1 ends a list), so membership lives in two
	// flat per-slot arrays rather than one slice per class.
	next, prev []int32

	// guard caches a boundary-free open value interval (gLo, gHi): while
	// guardOK holds, the boundary set provably has no key value inside it,
	// so a move contained in it cannot touch any class and skips the
	// boundary walk entirely — the steady-state cost of a standing query
	// that the update doesn't concern is two float compares, not a binary
	// search. Any boundary mutation drops the guard; the next walk
	// recomputes it.
	gLo, gHi float64
	guardOK  bool

	// recent ring-buffers the last classes classFor resolved. Protocol
	// maintenance reinstalls a small working set of constraints over and
	// over (a range query's interval, a band at the new center), so the
	// cache turns the usual classFor call into a handful of compares
	// instead of a scan of every standing class. Entries are validated
	// against the same match criteria as the full scan, so stale ids are
	// harmless.
	recent  [8]int32
	recentN uint8
}

// queryIndex is the per-Composite index: one qstream per stream plus shared
// deliver scratch.
type queryIndex struct {
	streams []qstream
	touched []int32 // candidate class ids scratch
	gen     uint64  // deliver generation for class dedupe
}

func newQueryIndex(n int) *queryIndex {
	return &queryIndex{streams: make([]qstream, n)}
}

// addSlot registers a freshly appended query slot (AddQuery just wrote a
// live filter.None entry for it at every stream).
func (x *queryIndex) addSlot(c *Composite) {
	qi := len(c.queries) - 1
	for s := range x.streams {
		st := &x.streams[s]
		st.appendSlot()
		st.reserve()
		x.set(c, s, qi, filter.NoFilter(), true)
	}
	x.touched = grow(x.touched, 3*len(c.queries))
}

// appendSlot appends one uncategorized query slot to the stream's slot rows.
func (st *qstream) appendSlot() {
	st.classOf = append(st.classOf, catNone)
	st.next = append(st.next, -1)
	st.prev = append(st.prev, -1)
}

// reserve grows the stream's other arrays to what its slot count can ever
// need: each live class holds at least one slot (so there are never more
// class ids than slots, live or free), each class puts at most two keys in
// the boundary set, and the armed list holds each class at most once. No
// Deliver can then grow them. The deliver scratch (touched: boundary hits
// plus armed classes) is sized from the same bound by addSlot and rebuild.
func (st *qstream) reserve() {
	slots := len(st.classOf)
	st.bounds.keys = grow(st.bounds.keys, 2*slots)
	st.classes = grow(st.classes, slots)
	st.freeCls = grow(st.freeCls, slots)
	st.armed = grow(st.armed, slots)
}

// grow returns s with capacity for at least n elements.
func grow[T any](s []T, n int) []T {
	if n > cap(s) {
		s = slices.Grow(s, n-len(s))
	}
	return s
}

// removeSlot drops query slot qi from every stream (RemoveQuery already
// cleared its entries).
func (x *queryIndex) removeSlot(c *Composite, qi int) {
	for s := range x.streams {
		x.set(c, s, qi, filter.Constraint{}, false)
	}
}

// set re-categorizes one (stream, slot) entry after its constraint changed
// to cons; live is false when the slot was removed. This is the single
// mutation point every fabric path funnels through, so index and fabric can
// never disagree about one entry.
func (x *queryIndex) set(c *Composite, s, qi int, cons filter.Constraint, live bool) {
	st := &x.streams[s]
	// Reinstalling what is already categorized — a maintenance round
	// refreshing a query's standing constraint — must not churn the class
	// or its boundaries (churn drops the stream's walk-skipping
	// guard). Sides are compared against a member other than qi itself,
	// since the install may have just rewritten qi's recorded side.
	if cid := st.classOf[qi]; cid >= 0 && live && sameConstraint(st.classes[cid].cons, cons) {
		cl := &st.classes[cid]
		ok := cons.Kind == filter.Band || cl.size == 1
		if !ok {
			ref := cl.head
			if ref == int32(qi) {
				ref = st.next[ref]
			}
			ok = c.inside[s][ref] == c.inside[s][qi]
		}
		if ok {
			return
		}
	}
	switch cid := st.classOf[qi]; {
	case cid == catAlways:
		st.always--
	case cid >= 0:
		x.detach(st, cid, int32(qi))
	}
	st.classOf[qi] = catNone
	if !live {
		return
	}
	switch {
	case cons.Kind == filter.None:
		st.always++
		st.classOf[qi] = catAlways
	case cons.Silent():
		// Can never cross; recordInside keeps its side correct for free.
	default:
		cid := x.classFor(c, st, s, cons, c.inside[s][qi])
		st.link(cid, int32(qi))
		st.classOf[qi] = cid
	}
}

// detach removes slot qi from class cid, freeing the class when it empties.
func (x *queryIndex) detach(st *qstream, cid, qi int32) {
	st.unlink(cid, qi)
	if cl := &st.classes[cid]; cl.size == 0 {
		st.removeBounds(cid, cl.cons)
		st.freeClass(cid)
	}
}

// link makes slot qi the first member of class cid.
func (st *qstream) link(cid, qi int32) {
	cl := &st.classes[cid]
	st.next[qi], st.prev[qi] = cl.head, -1
	if cl.head >= 0 {
		st.prev[cl.head] = qi
	}
	cl.head = qi
	cl.size++
}

// unlink removes member slot qi from class cid's list.
func (st *qstream) unlink(cid, qi int32) {
	cl := &st.classes[cid]
	nx, pv := st.next[qi], st.prev[qi]
	if pv >= 0 {
		st.next[pv] = nx
	} else {
		cl.head = nx
	}
	if nx >= 0 {
		st.prev[nx] = pv
	}
	cl.size--
}

// freeClass retires an already-detached, bounds-free class for reuse.
func (st *qstream) freeClass(cid int32) {
	cl := &st.classes[cid]
	if cl.armed {
		st.disarm(cid)
		cl.armed = false
	}
	cl.live = false
	cl.structural = false
	cl.cons = filter.Constraint{}
	st.freeCls = append(st.freeCls, cid)
}

// classFor returns the class for (cons, recorded side ins), creating it if
// no live class matches. Class identity is bit-equality of the constraint
// (math.Float64bits, so NaN bounds and ±0 group deterministically) plus,
// for intervals, the shared recorded side — after a corrupted restore two
// entries may hold the same interval on different recorded sides, and they
// must then fire independently.
func (x *queryIndex) classFor(c *Composite, st *qstream, s int, cons filter.Constraint, ins bool) int32 {
	for _, cid := range st.recent {
		if int(cid) >= len(st.classes) {
			continue
		}
		cl := &st.classes[cid]
		if cl.live && sameConstraint(cl.cons, cons) &&
			(cons.Kind == filter.Band || c.inside[s][cl.head] == ins) {
			return cid
		}
	}
	for cid := range st.classes {
		cl := &st.classes[cid]
		if cl.live && sameConstraint(cl.cons, cons) &&
			(cons.Kind == filter.Band || c.inside[s][cl.head] == ins) {
			st.recent[st.recentN&7] = int32(cid)
			st.recentN++
			return int32(cid)
		}
	}
	var cid int32
	if k := len(st.freeCls); k > 0 {
		cid = st.freeCls[k-1]
		st.freeCls = st.freeCls[:k-1]
	} else {
		st.classes = append(st.classes, qclass{})
		cid = int32(len(st.classes) - 1)
	}
	cl := &st.classes[cid]
	cl.cons = cons
	cl.live = true
	cl.head, cl.size = -1, 0
	// A class born inside a Deliver (a band fire created it) has already
	// been accounted for this update; stamping it now prevents a recycled
	// class id from being evaluated twice in one walk.
	cl.stamp = x.gen
	st.addBounds(cid, cons)
	cl.structural = cons.Kind == filter.Band && structuralBand(cons)
	armed := cl.structural
	if !armed {
		in := cons.Contains(c.vals[s])
		if cons.Kind == filter.Band {
			// A band outside its region fires on the next update no matter
			// where the value lands; the boundary walk cannot see that.
			armed = !in
		} else {
			// Recorded side disagreeing with ground truth (corrupted
			// restore): the next update fires regardless of boundaries.
			armed = ins != in
		}
	}
	if armed {
		cl.armed = true
		st.armed = append(st.armed, cid)
	}
	st.recent[st.recentN&7] = cid
	st.recentN++
	return cid
}

// sameConstraint is bit-exact constraint equality — the planner's grouping
// key. Float64bits keeps NaN-carrying constraints groupable (NaN != NaN
// would otherwise split them into unbounded fresh classes).
func sameConstraint(a, b filter.Constraint) bool {
	return a.Kind == b.Kind &&
		math.Float64bits(a.Lo) == math.Float64bits(b.Lo) &&
		math.Float64bits(a.Hi) == math.Float64bits(b.Hi)
}

// structuralBand reports whether a band's fires are invisible to the
// boundary walk even from inside its region: empty or NaN regions fire on
// every update, and a ±Inf-centered region {±Inf} can stop containing the
// value without crossing any finite boundary. Such classes stay armed.
func structuralBand(cons filter.Constraint) bool {
	lo, hi := cons.Bounds()
	return math.IsNaN(lo) || math.IsNaN(hi) || lo > hi ||
		math.IsInf(lo, 1) || math.IsInf(hi, -1)
}

// addBounds inserts class cid's finite region boundaries into the stream's
// boundary set.
// Non-finite boundaries are unindexable: an infinite interval end can never
// be crossed into (half-open intervals transition only over their finite
// bound) and degenerate bands are structurally armed instead.
func (st *qstream) addBounds(cid int32, cons filter.Constraint) {
	st.guardOK = false
	lo, hi := cons.Bounds()
	if lo > hi { // empty region: no transitions over these "boundaries"
		return
	}
	if !math.IsNaN(lo) && !math.IsInf(lo, 0) {
		st.bounds.insert(boundKey{V: lo, ID: cid * 2})
	}
	if !math.IsNaN(hi) && !math.IsInf(hi, 0) {
		st.bounds.insert(boundKey{V: hi, ID: cid*2 + 1})
	}
}

// removeBounds undoes addBounds for class cid.
func (st *qstream) removeBounds(cid int32, cons filter.Constraint) {
	st.guardOK = false
	lo, hi := cons.Bounds()
	if lo > hi {
		return
	}
	if !math.IsNaN(lo) && !math.IsInf(lo, 0) {
		st.bounds.delete(boundKey{V: lo, ID: cid * 2})
	}
	if !math.IsNaN(hi) && !math.IsInf(hi, 0) {
		st.bounds.delete(boundKey{V: hi, ID: cid*2 + 1})
	}
}

// disarm removes class cid from the always-evaluate list.
func (st *qstream) disarm(cid int32) {
	for i, a := range st.armed {
		if a == cid {
			st.armed[i] = st.armed[len(st.armed)-1]
			st.armed = st.armed[:len(st.armed)-1]
			return
		}
	}
}

// deliver is the indexed crossing-detection phase of Composite.Deliver for
// the value move u→v on stream s (c.vals[s] already holds v). It reports
// whether the stream reports — with decisions and side effects (recorded
// sides, band re-centering) exactly matching the linear scan's.
func (x *queryIndex) deliver(c *Composite, s int, u, v float64) bool {
	if math.IsNaN(u) || math.IsNaN(v) {
		crossed := c.deliverScan(s, v)
		x.rebuildStream(c, s)
		return crossed
	}
	st := &x.streams[s]
	lo, hi := u, v
	if lo > hi {
		lo, hi = hi, lo
	}
	// Guard fast path: the whole move sits inside a cached boundary-free
	// interval, so the walk below would find nothing — only armed classes
	// (and the always count) can matter. With nothing armed this is the
	// steady-state cost of every standing query the update doesn't touch.
	inGuard := st.guardOK && st.gLo < lo && hi < st.gHi
	if inGuard && len(st.armed) == 0 {
		return st.always > 0
	}
	x.gen++
	crossed := st.always > 0
	// The candidate list is a copy, in ascending boundary order: class
	// evaluation below may insert and delete boundaries (band
	// re-centering), which shifts the boundary slice under any live view.
	touched := x.touched[:0]
	if !inGuard {
		for _, k := range st.bounds.window(lo, hi) {
			touched = append(touched, k.ID>>1)
		}
	}
	touched = append(touched, st.armed...)
	x.touched = touched
	for _, cid := range touched {
		cl := &st.classes[cid]
		if !cl.live || cl.stamp == x.gen {
			continue
		}
		cl.stamp = x.gen
		if x.evalClass(c, st, s, cid, v) {
			crossed = true
		}
	}
	if !inGuard {
		// Re-center the guard on where the value landed. Class evaluation
		// above may have moved boundaries (band re-centering), so this runs
		// after it; bracket refuses a guard when a boundary sits exactly
		// at v (exact), since no open interval can contain v then.
		gLo, gHi, exact := st.bounds.bracket(v)
		st.gLo, st.gHi, st.guardOK = gLo, gHi, !exact
	}
	return crossed
}

// evalClass applies one class's crossing semantics to the new value v,
// mirroring the linear scan's per-entry switch for every member at once.
func (x *queryIndex) evalClass(c *Composite, st *qstream, s int, cid int32, v float64) bool {
	cl := &st.classes[cid]
	if cl.cons.Kind == filter.Band {
		if cl.cons.Contains(v) {
			if cl.armed && !cl.structural {
				st.disarm(cid)
				cl.armed = false
			}
			return false
		}
		nc := filter.NewBand(v, cl.cons.BandHalfWidth())
		row, ins := c.cons[s], c.inside[s]
		for sl := cl.head; sl >= 0; sl = st.next[sl] {
			row[sl] = nc
			ins[sl] = true
		}
		x.rekeyBand(st, cid, nc, v)
		return true
	}
	now := cl.cons.Contains(v)
	if cl.armed {
		// Evaluated: the recorded side is about to agree with ground truth.
		st.disarm(cid)
		cl.armed = false
	}
	if now == c.inside[s][cl.head] {
		return false
	}
	ins := c.inside[s]
	for sl := cl.head; sl >= 0; sl = st.next[sl] {
		ins[sl] = now
	}
	return true
}

// rekeyBand moves a fired band class to its re-centered constraint nc
// (centered on v), merging into an existing identical class if the
// re-centering made two bands converge — this is how M same-width bands
// collapse to one class after their first shared fire.
func (x *queryIndex) rekeyBand(st *qstream, cid int32, nc filter.Constraint, v float64) {
	cl := &st.classes[cid]
	st.removeBounds(cid, cl.cons)
	for tid := range st.classes {
		tgt := &st.classes[tid]
		if int32(tid) == cid || !tgt.live || !sameConstraint(tgt.cons, nc) {
			continue
		}
		for sl := cl.head; sl >= 0; {
			nx := st.next[sl]
			st.link(int32(tid), sl)
			st.classOf[sl] = int32(tid)
			sl = nx
		}
		cl.head, cl.size = -1, 0
		st.freeClass(cid)
		return
	}
	cl.cons = nc
	st.addBounds(cid, nc)
	cl.structural = structuralBand(nc)
	armed := cl.structural || !nc.Contains(v)
	if armed != cl.armed {
		if armed {
			st.armed = append(st.armed, cid)
		} else {
			st.disarm(cid)
		}
		cl.armed = armed
	}
}

// rebuildStream recomputes one stream's index from the fabric's constraint
// vector (used after a NaN fallback scan mutated entries behind the
// index's back).
func (x *queryIndex) rebuildStream(c *Composite, s int) {
	st := &x.streams[s]
	st.bounds.keys = st.bounds.keys[:0]
	st.guardOK = false
	st.classes = st.classes[:0]
	st.freeCls = st.freeCls[:0]
	st.armed = st.armed[:0]
	st.always = 0
	for qi := range st.classOf {
		st.classOf[qi] = catNone
	}
	for qi, q := range c.queries {
		if q == nil {
			continue
		}
		x.set(c, s, qi, c.cons[s][qi], true)
	}
}

// rebuild recomputes the whole index from the fabric — the restore path.
// ImportState never decodes index state: deriving it from the restored
// constraint vectors is the invariant that keeps the snapshot encoding
// unchanged and the index incapable of drifting across a save/load cycle.
func (x *queryIndex) rebuild(c *Composite) {
	for s := range x.streams {
		st := &x.streams[s]
		st.classOf, st.next, st.prev = st.classOf[:0], st.next[:0], st.prev[:0]
		for range c.queries {
			st.appendSlot()
		}
		st.reserve()
		x.rebuildStream(c, s)
	}
	x.touched = grow(x.touched, 3*len(c.queries))
}

// boundKey is one class boundary of a stream: the boundary value and the
// class-boundary id (2·class id for the region's lower end, 2·class id + 1
// for its upper end). Keys order by value, then id; values are never NaN.
type boundKey struct {
	V  float64
	ID int32
}

func (k boundKey) less(o boundKey) bool {
	if k.V != o.V {
		return k.V < o.V
	}
	return k.ID < o.ID
}

// boundSet is one stream's class boundaries as a strictly ascending slice.
// Insert and delete are a binary search plus a copy; there is no node
// recycling — the slice's capacity is the reuse, so once a stream's
// boundary count has peaked the set never allocates again. Stored ids are
// class-boundary ids, never math.MinInt32 or math.MaxInt32, which the
// value-window searches use as sentinels.
type boundSet struct {
	keys []boundKey
}

// search returns the index of the first key not less than k.
func (b *boundSet) search(k boundKey) int {
	lo, hi := 0, len(b.keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if b.keys[m].less(k) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// insert adds k, reporting false (and changing nothing) when it is already
// present. A NaN value admits no ordering and would corrupt the set, so
// insert panics on one; callers only ever insert finite boundaries.
func (b *boundSet) insert(k boundKey) bool {
	if math.IsNaN(k.V) {
		panic("server: NaN boundary key")
	}
	i := b.search(k)
	if i < len(b.keys) && b.keys[i] == k {
		return false
	}
	b.keys = append(b.keys, boundKey{})
	copy(b.keys[i+1:], b.keys[i:])
	b.keys[i] = k
	return true
}

// delete removes k, reporting false when it is absent (always, for NaN).
func (b *boundSet) delete(k boundKey) bool {
	if math.IsNaN(k.V) {
		return false
	}
	i := b.search(k)
	if i == len(b.keys) || b.keys[i] != k {
		return false
	}
	b.keys = append(b.keys[:i], b.keys[i+1:]...)
	return true
}

// window returns the keys with lo <= value <= hi, ascending, as a view of
// the set: it is invalidated by the next insert or delete. NaN or inverted
// bounds match nothing.
func (b *boundSet) window(lo, hi float64) []boundKey {
	if math.IsNaN(lo) || math.IsNaN(hi) || hi < lo {
		return nil
	}
	i := b.search(boundKey{V: lo, ID: math.MinInt32})
	j := b.search(boundKey{V: hi, ID: math.MaxInt32})
	return b.keys[i:j]
}

// bracket returns the widest open interval (lo, hi) around v that holds no
// key value: lo is the largest key value below v (−Inf when none) and hi
// the smallest above (+Inf when none), read off the neighbours of v's
// search position. exact reports that some key's value equals v — the open
// interval excludes it, so a caller caching (lo, hi) as a "no boundaries
// here" certificate must treat exact as a refusal. A NaN v admits no
// ordering and reports exact.
func (b *boundSet) bracket(v float64) (lo, hi float64, exact bool) {
	lo, hi = math.Inf(-1), math.Inf(1)
	if math.IsNaN(v) {
		return lo, hi, true
	}
	i := b.search(boundKey{V: v, ID: math.MinInt32})
	if i > 0 {
		lo = b.keys[i-1].V
	}
	if i < len(b.keys) {
		if b.keys[i].V == v {
			return lo, hi, true
		}
		hi = b.keys[i].V
	}
	return lo, hi, false
}
