// Package rankorder is the ranking primitive behind every rank-based
// protocol: it yields (id, key) pairs in exact ascending (key, id) order,
// one rank at a time, and only as far as the caller reads.
//
// The protocols rank streams by distance from a query point ("the old
// ranking scores kept by the server") but usually read only the first
// k+r+1 ranks; RTP's expanding search walks further, one rank per step,
// and may reach rank n. A full sort pays O(n log n) for every re-rank
// either way. An Order instead fills its keys in O(n), heapifies them in
// O(n), and pops the next rank in O(log n) on demand, so a rebuild that
// reads m ranks costs O(n + m log n).
//
// The order is exact: (key, id) compares keys with < and breaks equal keys
// (including -0 against +0) by id. With distinct ids and no NaN key that
// is a strict total order, so the ranks an Order yields are the ranks a
// full sort by (key, id) yields, whatever the heap's internal layout. A NaN
// key has no place in such an order; Add panics on one (ingest and restore
// reject NaN values, so only a caller bug can produce it).
package rankorder

// Order is reusable, allocation-free ranking scratch. Fill it with Reset
// and Add, call Init, then read ranks with Prefix or Rank. The zero value
// is ready to use; buffers grow to the largest set ranked and are kept.
//
// Layout: one pair of parallel slices holds both halves. Ranks already
// popped occupy [0, popped) in ascending order; the remaining elements form
// a binary min-heap stored back to front in [popped, len), with the heap
// root at the last index. Popping swaps the root into position popped,
// so the settled prefix grows in place and Prefix can return it directly.
type Order struct {
	ids    []int
	keys   []float64
	popped int
}

// Reset empties the order, keeping its buffers.
func (o *Order) Reset() {
	o.ids, o.keys, o.popped = o.ids[:0], o.keys[:0], 0
}

// Add appends id with its ranking key. Call it between Reset and Init;
// ids must be distinct. It panics on a NaN key.
func (o *Order) Add(id int, key float64) {
	if key != key {
		panic("rankorder: NaN key")
	}
	o.ids = append(o.ids, id)
	o.keys = append(o.keys, key)
}

// Init heapifies the added elements in O(n). No rank is settled yet.
func (o *Order) Init() {
	o.popped = 0
	for v := len(o.ids)/2 - 1; v >= 0; v-- {
		o.down(v)
	}
}

// Len returns the number of elements being ranked.
func (o *Order) Len() int { return len(o.ids) }

// Prefix settles the first min(m, Len()) ranks and returns their ids in
// ascending (key, id) order. The slice aliases the Order's scratch: it is
// valid until the next Reset, and later calls only extend it.
func (o *Order) Prefix(m int) []int {
	if m > len(o.ids) {
		m = len(o.ids)
	}
	for o.popped < m {
		o.pop()
	}
	return o.ids[:m]
}

// Rank returns the id and key at 0-based rank i, settling ranks up to it.
// It panics if i is out of range.
func (o *Order) Rank(i int) (id int, key float64) {
	o.Prefix(i + 1)
	return o.ids[i], o.keys[i]
}

// The heap's virtual index v (root 0, children 2v+1 and 2v+2) lives at
// physical index len-1-v, so the heap shrinks from the front as ranks pop.
func (o *Order) phys(v int) int { return len(o.ids) - 1 - v }

// less orders physical positions a and b by (key, id).
func (o *Order) less(a, b int) bool {
	if ka, kb := o.keys[a], o.keys[b]; ka != kb {
		return ka < kb
	}
	return o.ids[a] < o.ids[b]
}

func (o *Order) swap(a, b int) {
	o.ids[a], o.ids[b] = o.ids[b], o.ids[a]
	o.keys[a], o.keys[b] = o.keys[b], o.keys[a]
}

// pop settles the heap minimum as rank o.popped.
func (o *Order) pop() {
	last := o.popped // physical index of the heap's last virtual element
	o.swap(o.phys(0), last)
	o.popped++
	o.down(0)
}

// down sifts virtual index v toward the leaves of the heap, whose size is
// len-popped.
func (o *Order) down(v int) {
	size := len(o.ids) - o.popped
	for {
		c := 2*v + 1
		if c >= size {
			return
		}
		pc := o.phys(c)
		if r := c + 1; r < size {
			if pr := o.phys(r); o.less(pr, pc) {
				c, pc = r, pr
			}
		}
		pv := o.phys(v)
		if !o.less(pc, pv) {
			return
		}
		o.swap(pv, pc)
		v = c
	}
}
