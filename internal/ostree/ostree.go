// Package ostree implements an order-statistic tree (a treap with subtree
// sizes) keyed by (value, stream id) pairs.
//
// It is the ranking substrate used by the server-side no-filter baseline and
// by the ground-truth oracle: it answers "how many streams have a value less
// than v" and "which key holds rank i" in O(log n), which is what both rank
// verification (Definition 1 of the paper) and k-NN ground truth need. Both
// reach it through internal/rankindex, which moves a key (Delete, then
// Insert) on every value change: deleted nodes are recycled through an
// internal free list, so steady-state churn allocates nothing.
//
// Keys are unique: two streams may carry the same value but never the same
// (value, id) pair. Ordering is by value first, id second, which gives a
// deterministic total order in the presence of ties.
//
// NaN values are rejected: a NaN compares "not less" in both directions, so
// a single NaN-valued key would make every Contains probe succeed and would
// silently corrupt the tree order. Insert panics on a NaN key (callers that
// handle untrusted input — snapshot restore, wire ingest — must validate
// first); the read-only probes treat a NaN argument as "matches nothing".
package ostree

import "math"

// Key identifies one stream observation in the tree.
type Key struct {
	V  float64 // stream value
	ID int     // stream identifier (tie break)
}

// Less reports the strict total order used by the tree. It is only a total
// order over non-NaN values, which is why Insert rejects NaN keys.
func (k Key) Less(o Key) bool {
	if k.V != o.V {
		return k.V < o.V
	}
	return k.ID < o.ID
}

type node struct {
	key         Key
	prio        uint64
	size        int
	left, right *node
}

func size(n *node) int {
	if n == nil {
		return 0
	}
	return n.size
}

func (n *node) update() { n.size = 1 + size(n.left) + size(n.right) }

// Tree is an order-statistic treap. The zero value is an empty tree.
type Tree struct {
	root  *node
	state uint64 // deterministic priority stream
	free  *node  // recycled nodes, chained through right
}

// New returns an empty tree. Priorities are derived from a fixed internal
// stream so behaviour is deterministic across runs.
func New() *Tree { return &Tree{state: 0x9E3779B97F4A7C15} }

func (t *Tree) nextPrio() uint64 {
	// splitmix64 step: deterministic, well distributed.
	t.state += 0x9E3779B97F4A7C15
	x := t.state
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Len returns the number of keys stored.
func (t *Tree) Len() int { return size(t.root) }

// newNode takes a node off the free list (or allocates one) and assigns it
// the next priority. Called exactly once per successful insert, so the
// priority stream's consumption is identical to the historical
// Contains-then-split/merge implementation: a priority is drawn only when
// the key was absent.
func (t *Tree) newNode(k Key) *node {
	n := t.free
	if n == nil {
		return &node{key: k, prio: t.nextPrio(), size: 1}
	}
	t.free = n.right
	*n = node{key: k, prio: t.nextPrio(), size: 1}
	return n
}

// recycle puts a detached node on the free list.
func (t *Tree) recycle(n *node) {
	*n = node{right: t.free}
	t.free = n
}

func rotateRight(n *node) *node {
	l := n.left
	n.left = l.right
	l.right = n
	n.update()
	l.update()
	return l
}

func rotateLeft(n *node) *node {
	r := n.right
	n.right = r.left
	r.left = n
	n.update()
	r.update()
	return r
}

// Insert adds k to the tree in a single descent. It returns false (and
// leaves the tree unchanged) if the key is already present.
//
// Insert panics if k.V is NaN: NaN admits no ordering, so storing it would
// corrupt the tree (see the package comment). Validate untrusted values
// before they reach the tree.
func (t *Tree) Insert(k Key) bool {
	if math.IsNaN(k.V) {
		panic("ostree: Insert with NaN-valued key")
	}
	if t.state == 0 { // zero-value Tree: initialize the priority stream
		t.state = 0x9E3779B97F4A7C15
	}
	root, ok := t.insert(t.root, k)
	t.root = root
	return ok
}

// insert is the single-pass recursive core: one BST descent that creates the
// leaf, then rotations on the way back up restore the heap property. With
// distinct priorities the treap shape is a function of the (key, priority)
// set alone, so the result is byte-identical to the historical split/merge
// implementation (pinned by TestInsertMatchesLegacyImplementation).
func (t *Tree) insert(n *node, k Key) (*node, bool) {
	if n == nil {
		return t.newNode(k), true
	}
	switch {
	case k.Less(n.key):
		child, ok := t.insert(n.left, k)
		n.left = child
		if !ok {
			return n, false
		}
		if child.prio > n.prio {
			return rotateRight(n), true
		}
		n.update()
		return n, true
	case n.key.Less(k):
		child, ok := t.insert(n.right, k)
		n.right = child
		if !ok {
			return n, false
		}
		if child.prio > n.prio {
			return rotateLeft(n), true
		}
		n.update()
		return n, true
	default:
		return n, false
	}
}

// Delete removes k, recycling its node. It returns false if the key was
// absent (always the case for a NaN key, which Insert rejects).
func (t *Tree) Delete(k Key) bool {
	if math.IsNaN(k.V) {
		return false
	}
	root, ok := t.delete(t.root, k)
	t.root = root
	return ok
}

func (t *Tree) delete(n *node, k Key) (*node, bool) {
	if n == nil {
		return nil, false
	}
	switch {
	case k.Less(n.key):
		child, ok := t.delete(n.left, k)
		n.left = child
		if ok {
			n.update()
		}
		return n, ok
	case n.key.Less(k):
		child, ok := t.delete(n.right, k)
		n.right = child
		if ok {
			n.update()
		}
		return n, ok
	default:
		m := merge(n.left, n.right)
		t.recycle(n)
		return m, true
	}
}

func merge(l, r *node) *node {
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	case l.prio >= r.prio:
		l.right = merge(l.right, r)
		l.update()
		return l
	default:
		r.left = merge(l, r.left)
		r.update()
		return r
	}
}

// Clear removes every key, recycling all nodes for reuse. The priority
// stream keeps advancing from where it was (Clear is a bulk Delete, not a
// reset to a fresh tree).
func (t *Tree) Clear() {
	t.clear(t.root)
	t.root = nil
}

func (t *Tree) clear(n *node) {
	if n == nil {
		return
	}
	t.clear(n.left)
	t.clear(n.right)
	t.recycle(n)
}

// Contains reports whether k is stored. A NaN key is never stored.
func (t *Tree) Contains(k Key) bool {
	if math.IsNaN(k.V) {
		return false
	}
	n := t.root
	for n != nil {
		switch {
		case k.Less(n.key):
			n = n.left
		case n.key.Less(k):
			n = n.right
		default:
			return true
		}
	}
	return false
}

// Rank returns the number of keys strictly less than k. k itself need not be
// present. A NaN key is less than nothing: its rank is 0.
func (t *Tree) Rank(k Key) int {
	if math.IsNaN(k.V) {
		return 0
	}
	rank := 0
	n := t.root
	for n != nil {
		if k.Less(n.key) || k == n.key {
			n = n.left
		} else {
			rank += size(n.left) + 1
			n = n.right
		}
	}
	return rank
}

// Select returns the key with zero-based rank i (the i-th smallest). The
// second result is false if i is out of range.
func (t *Tree) Select(i int) (Key, bool) {
	if i < 0 || i >= t.Len() {
		return Key{}, false
	}
	n := t.root
	for {
		ls := size(n.left)
		switch {
		case i < ls:
			n = n.left
		case i == ls:
			return n.key, true
		default:
			i -= ls + 1
			n = n.right
		}
	}
}

// CountLess returns the number of stored keys with value strictly less
// than v (regardless of id). NaN counts nothing.
func (t *Tree) CountLess(v float64) int {
	// Key{v, minInt} sorts before every key with value v.
	return t.Rank(Key{V: v, ID: minInt})
}

// CountLE returns the number of stored keys with value <= v.
func (t *Tree) CountLE(v float64) int {
	return t.Rank(Key{V: v, ID: maxInt})
}

// CountRange returns the number of stored keys with lo <= value <= hi.
// It returns 0 when lo > hi (and for NaN bounds).
func (t *Tree) CountRange(lo, hi float64) int {
	if lo > hi {
		return 0
	}
	return t.CountLE(hi) - t.CountLess(lo)
}

// Min returns the smallest key. ok is false on an empty tree.
func (t *Tree) Min() (Key, bool) { return t.Select(0) }

// Max returns the largest key. ok is false on an empty tree.
func (t *Tree) Max() (Key, bool) { return t.Select(t.Len() - 1) }

// Ascend calls fn on every key in increasing order until fn returns false.
func (t *Tree) Ascend(fn func(Key) bool) {
	var walk func(n *node) bool
	walk = func(n *node) bool {
		if n == nil {
			return true
		}
		if !walk(n.left) {
			return false
		}
		if !fn(n.key) {
			return false
		}
		return walk(n.right)
	}
	walk(t.root)
}

// Keys returns all keys in increasing order. Intended for tests and small
// trees.
func (t *Tree) Keys() []Key {
	out := make([]Key, 0, t.Len())
	t.Ascend(func(k Key) bool { out = append(out, k); return true })
	return out
}

const (
	maxInt = int(^uint(0) >> 1)
	minInt = -maxInt - 1
)
