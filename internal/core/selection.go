package core

import (
	"math/rand"
	"sort"
)

// Labels for sim.RNG.Split deriving each protocol's selection stream from
// its config seed; distinct labels keep the two protocols' draws
// uncorrelated even when they share a seed.
const (
	ftnrpSelStream int64 = 0x5DEE
	ftrpSelStream  int64 = 0x2545
)

// Selection chooses which streams receive the silent false-positive /
// false-negative filters during the fraction-based initialization phase.
// The paper compares two heuristics (§6.2, Figure 14).
type Selection int

const (
	// SelectBoundaryNearest assigns silent filters to the streams whose
	// values lie closest to the query boundary — the streams most likely to
	// cross it, so silencing them saves the most updates. This is the
	// paper's better heuristic and the default.
	SelectBoundaryNearest Selection = iota
	// SelectRandom assigns silent filters uniformly at random.
	SelectRandom
)

// String names the heuristic.
func (s Selection) String() string {
	if s == SelectRandom {
		return "random"
	}
	return "boundary-nearest"
}

// pick returns up to n ids from candidates. For boundary-nearest, ids with
// the smallest score are chosen (score = distance to the query boundary);
// ties break by id for determinism. For random, a seeded shuffle decides.
// The input slice is not modified. Hot paths use pickKeyed with protocol
// scratch buffers instead; pick keeps the allocating convenience contract.
func (s Selection) pick(candidates []int, score func(id int) float64, n int, rng *rand.Rand) []int {
	if n <= 0 || len(candidates) == 0 {
		return nil
	}
	ids := append([]int(nil), candidates...)
	keys := make([]float64, 0, len(ids))
	for _, id := range ids {
		keys = append(keys, score(id))
	}
	var ks keyedSorter
	return s.pickKeyed(&ks, ids, keys, n, rng)
}

// pickKeyed is pick without the defensive copy or the score closure: keys[i]
// is the caller-computed score of ids[i], both slices are reordered in
// place, and the chosen ids occupy ids[:min(n,len(ids))], which is
// returned. A warmed caller (scratch ids/keys buffers, pointer sorter)
// allocates nothing. The RNG consumption (one Shuffle of len(ids) for
// SelectRandom, none otherwise) is identical to pick's, keeping seeded
// trajectories unchanged.
func (s Selection) pickKeyed(ks *keyedSorter, ids []int, keys []float64, n int, rng *rand.Rand) []int {
	if n <= 0 || len(ids) == 0 {
		return nil
	}
	if n > len(ids) {
		n = len(ids)
	}
	switch s {
	case SelectRandom:
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	default:
		ks.ids, ks.keys = ids, keys
		sort.Sort(ks)
		ks.ids, ks.keys = nil, nil
	}
	return ids[:n]
}

// keyedSorter sorts an id slice by (precomputed key, id) ascending without
// per-call allocations: callers point it at their scratch slices and it
// reaches sort.Sort as a pointer, so nothing is boxed. It replaces the
// sort.Slice calls that used to allocate a closure and a reflect-based
// swapper on every ranking pass.
type keyedSorter struct {
	ids  []int
	keys []float64
}

func (ks *keyedSorter) Len() int { return len(ks.ids) }

func (ks *keyedSorter) Less(i, j int) bool {
	if ks.keys[i] != ks.keys[j] {
		return ks.keys[i] < ks.keys[j]
	}
	return ks.ids[i] < ks.ids[j]
}

func (ks *keyedSorter) Swap(i, j int) {
	ks.ids[i], ks.ids[j] = ks.ids[j], ks.ids[i]
	ks.keys[i], ks.keys[j] = ks.keys[j], ks.keys[i]
}

// intSet is a small deterministic set of dense stream ids (0..n-1) used for
// answer and filter bookkeeping. It is a membership bitmap rather than a
// map: add/remove/has are branch-and-store on a slice, clear keeps the
// backing storage, and iteration is naturally in ascending id order. The
// bitmap starts at the stream count, so the maintenance path never grows
// it.
type intSet struct {
	bits []bool
	n    int
}

// newIntSet returns an empty set over stream ids 0..n-1.
func newIntSet(n int) intSet { return intSet{bits: make([]bool, n)} }

func (s *intSet) add(id int) {
	if id >= len(s.bits) {
		grown := make([]bool, id+1)
		copy(grown, s.bits)
		s.bits = grown
	}
	if !s.bits[id] {
		s.bits[id] = true
		s.n++
	}
}

func (s *intSet) remove(id int) {
	if id < len(s.bits) && s.bits[id] {
		s.bits[id] = false
		s.n--
	}
}

func (s *intSet) has(id int) bool { return id >= 0 && id < len(s.bits) && s.bits[id] }
func (s *intSet) len() int        { return s.n }

// clear empties the set but keeps the backing bitmap, so rebuild-heavy
// protocols (RTP, FT-RP) reset their answer sets without reallocating.
func (s *intSet) clear() {
	for i := range s.bits {
		s.bits[i] = false
	}
	s.n = 0
}

// addAll inserts every member of o.
func (s *intSet) addAll(o *intSet) {
	for id, in := range o.bits {
		if in {
			s.add(id)
		}
	}
}

// appendMembers appends the members ascending to dst and returns it; hot
// paths pass a reusable scratch slice (dst[:0]) to avoid allocating.
func (s *intSet) appendMembers(dst []int) []int {
	for id, in := range s.bits {
		if in {
			dst = append(dst, id)
		}
	}
	return dst
}

// sorted returns the members ascending in a fresh slice.
func (s *intSet) sorted() []int { return s.appendMembers(make([]int, 0, s.n)) }

// min returns the smallest member; ok is false when empty.
func (s *intSet) min() (int, bool) {
	if s.n == 0 {
		return 0, false
	}
	for id, in := range s.bits {
		if in {
			return id, true
		}
	}
	return 0, false
}
