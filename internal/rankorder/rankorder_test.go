package rankorder

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refSorter is the reference: a full sort.Sort by (key, id), the order the
// protocols used before ranking became lazy.
type refSorter struct {
	ids  []int
	keys []float64
}

func (s *refSorter) Len() int { return len(s.ids) }
func (s *refSorter) Less(i, j int) bool {
	if s.keys[i] != s.keys[j] {
		return s.keys[i] < s.keys[j]
	}
	return s.ids[i] < s.ids[j]
}
func (s *refSorter) Swap(i, j int) {
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// hostileKeys draws n keys from a small pool dominated by ties, signed
// zeros and infinities, plus the odd fresh value.
func hostileKeys(rng *rand.Rand, n int) []float64 {
	pool := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		1, -1, 2.5, 1e-300, -1e300, math.MaxFloat64, math.SmallestNonzeroFloat64}
	keys := make([]float64, n)
	for i := range keys {
		if rng.Intn(4) == 0 {
			keys[i] = rng.NormFloat64() * 10
		} else {
			keys[i] = pool[rng.Intn(len(pool))]
		}
	}
	return keys
}

// checkAgainstRef ranks (ids, keys) lazily through o and compares every
// prefix length 0..n, and every Rank, against the reference full sort.
func checkAgainstRef(t *testing.T, o *Order, ids []int, keys []float64) {
	t.Helper()
	ref := refSorter{ids: append([]int(nil), ids...), keys: append([]float64(nil), keys...)}
	sort.Sort(&ref)
	n := len(ids)
	for m := 0; m <= n; m++ {
		// A fresh fill per prefix length: reading exactly m ranks must give
		// the reference's first m, whatever was (not) popped before.
		o.Reset()
		for i, id := range ids {
			o.Add(id, keys[i])
		}
		o.Init()
		if o.Len() != n {
			t.Fatalf("Len = %d, want %d", o.Len(), n)
		}
		got := o.Prefix(m)
		if len(got) != m {
			t.Fatalf("Prefix(%d) has %d ids", m, len(got))
		}
		for i := 0; i < m; i++ {
			if got[i] != ref.ids[i] {
				t.Fatalf("n=%d Prefix(%d)[%d] = %d, want %d", n, m, i, got[i], ref.ids[i])
			}
		}
	}
	// One pass reading rank by rank, then past the end via Prefix.
	for i := 0; i < n; i++ {
		id, key := o.Rank(i)
		if id != ref.ids[i] || math.Float64bits(key) != math.Float64bits(ref.keys[i]) {
			t.Fatalf("Rank(%d) = (%d, %v), want (%d, %v)", i, id, key, ref.ids[i], ref.keys[i])
		}
	}
	if got := o.Prefix(n + 5); len(got) != n {
		t.Fatalf("Prefix past the end has %d ids, want %d", len(got), n)
	}
}

// TestLazyRankMatchesFullSort is the exactness test: random tie-heavy keys
// with ±0 and ±Inf, non-dense shuffled ids, and one Order reused across
// sizes that grow and shrink.
func TestLazyRankMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var o Order
	for _, n := range []int{0, 1, 2, 3, 7, 64, 5, 33, 200, 1, 129} {
		for trial := 0; trial < 3; trial++ {
			keys := hostileKeys(rng, n)
			ids := rng.Perm(3 * n)[:n] // distinct, sparse, unordered
			checkAgainstRef(t, &o, ids, keys)
		}
	}
}

// TestPrefixExtendsInPlace pins the aliasing contract: a longer Prefix call
// extends the earlier slice rather than reordering it.
func TestPrefixExtendsInPlace(t *testing.T) {
	var o Order
	for i, k := range []float64{5, 3, 3, 9, 1, 3} {
		o.Add(i, k)
	}
	o.Init()
	first := append([]int(nil), o.Prefix(2)...)
	all := o.Prefix(6)
	if first[0] != all[0] || first[1] != all[1] {
		t.Fatalf("Prefix(2) = %v, then Prefix(6) = %v", first, all)
	}
	// Key 3 is shared by ids 1, 2 and 5, which therefore rank by id.
	want := []int{4, 1, 2, 5, 0, 3}
	for i := range want {
		if all[i] != want[i] {
			t.Fatalf("order = %v, want %v", all, want)
		}
	}
}

func TestAddPanicsOnNaN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NaN key did not panic")
		}
	}()
	var o Order
	o.Add(0, math.NaN())
}

// TestWarmOrderAllocatesNothing pins the allocation policy: once the
// buffers have grown, a full fill, heapify and read allocates nothing.
func TestWarmOrderAllocatesNothing(t *testing.T) {
	var o Order
	run := func() {
		o.Reset()
		for i := 0; i < 500; i++ {
			o.Add(i, float64((i*7919)%263))
		}
		o.Init()
		o.Prefix(40)
		o.Rank(499)
	}
	run()
	if a := testing.AllocsPerRun(50, run); a != 0 {
		t.Fatalf("warm Order allocates %v per run", a)
	}
}

// FuzzLazyRank holds the lazy order to the full sort on arbitrary keys:
// the input is read as 8-byte key bit patterns (NaNs are dropped, every
// other pattern — subnormals, ±0, ±Inf — is kept), ids are a seeded
// permutation, and every prefix length is compared.
func FuzzLazyRank(f *testing.F) {
	f.Add([]byte{}, int64(0))
	f.Add(binary.LittleEndian.AppendUint64(
		binary.LittleEndian.AppendUint64(nil, math.Float64bits(0)),
		math.Float64bits(math.Copysign(0, -1))), int64(1))
	seed := make([]byte, 0, 8*16)
	for _, k := range []float64{1, 1, 1, math.Inf(1), math.Inf(-1), 0, 2, 2, -3, 1e308, -1e-308, 1, 0, 5, 5, 5} {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(k))
	}
	f.Add(seed, int64(7))
	var o Order
	f.Fuzz(func(t *testing.T, data []byte, s int64) {
		var keys []float64
		for len(data) >= 8 && len(keys) < 256 {
			k := math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
			if !math.IsNaN(k) {
				keys = append(keys, k)
			}
		}
		ids := rand.New(rand.NewSource(s)).Perm(len(keys) + 3)[:len(keys)]
		checkAgainstRef(t, &o, ids, keys)
	})
}
