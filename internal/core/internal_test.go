package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"adaptivefilters/internal/query"
	"adaptivefilters/internal/rankorder"
	"adaptivefilters/internal/server"
)

func TestIntSetBasics(t *testing.T) {
	s := newIntSet()
	if s.len() != 0 {
		t.Fatalf("fresh set len = %d", s.len())
	}
	if _, ok := s.min(); ok {
		t.Fatal("min of empty set returned ok")
	}
	s.add(5)
	s.add(2)
	s.add(9)
	s.add(2) // duplicate
	if s.len() != 3 {
		t.Fatalf("len = %d, want 3", s.len())
	}
	if !s.has(2) || s.has(3) {
		t.Fatal("membership wrong")
	}
	if got := s.sorted(); len(got) != 3 || got[0] != 2 || got[2] != 9 {
		t.Fatalf("sorted = %v", got)
	}
	if m, ok := s.min(); !ok || m != 2 {
		t.Fatalf("min = %d,%v", m, ok)
	}
	s.remove(2)
	if s.has(2) || s.len() != 2 {
		t.Fatal("remove failed")
	}
	s.remove(100) // absent: no-op
}

func TestSelectionPickBoundaryNearest(t *testing.T) {
	score := func(id int) float64 { return float64(10 - id) } // id 9 scores 1
	got := SelectBoundaryNearest.pick([]int{1, 5, 9, 3}, score, 2, rand.New(rand.NewSource(1)))
	if len(got) != 2 || got[0] != 9 || got[1] != 5 {
		t.Fatalf("pick = %v, want [9 5] (smallest scores)", got)
	}
}

func TestSelectionPickTieBreaksByID(t *testing.T) {
	score := func(int) float64 { return 1 }
	got := SelectBoundaryNearest.pick([]int{7, 3, 5}, score, 2, rand.New(rand.NewSource(1)))
	if got[0] != 3 || got[1] != 5 {
		t.Fatalf("tied pick = %v, want [3 5]", got)
	}
}

func TestSelectionPickBounds(t *testing.T) {
	score := func(int) float64 { return 0 }
	rng := rand.New(rand.NewSource(2))
	if got := SelectBoundaryNearest.pick(nil, score, 3, rng); got != nil {
		t.Fatalf("pick from empty = %v", got)
	}
	if got := SelectBoundaryNearest.pick([]int{1}, score, 0, rng); got != nil {
		t.Fatalf("pick 0 = %v", got)
	}
	if got := SelectBoundaryNearest.pick([]int{1, 2}, score, 5, rng); len(got) != 2 {
		t.Fatalf("pick beyond population = %v", got)
	}
}

func TestSelectionPickRandomIsSeededAndComplete(t *testing.T) {
	ids := []int{0, 1, 2, 3, 4, 5, 6, 7}
	score := func(int) float64 { return 0 }
	a := SelectRandom.pick(ids, score, 4, rand.New(rand.NewSource(3)))
	b := SelectRandom.pick(ids, score, 4, rand.New(rand.NewSource(3)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("random pick not reproducible for equal seeds")
		}
	}
	// Input slice must not be mutated.
	for i, v := range ids {
		if v != i {
			t.Fatal("pick mutated its input")
		}
	}
	// All picks are members, no duplicates.
	seen := map[int]bool{}
	for _, id := range a {
		if id < 0 || id > 7 || seen[id] {
			t.Fatalf("bad pick %v", a)
		}
		seen[id] = true
	}
}

func TestQuickSelectionPickProperties(t *testing.T) {
	f := func(raw []uint8, n uint8, seed int64, random bool) bool {
		ids := make([]int, 0, len(raw))
		seen := map[int]bool{}
		for _, r := range raw {
			id := int(r % 32)
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
		sel := SelectBoundaryNearest
		if random {
			sel = SelectRandom
		}
		score := func(id int) float64 { return float64(id % 5) }
		got := sel.pick(ids, score, int(n%40), rand.New(rand.NewSource(seed)))
		want := int(n % 40)
		if want > len(ids) {
			want = len(ids)
		}
		if len(got) != want {
			return false
		}
		dup := map[int]bool{}
		for _, id := range got {
			if !seen[id] || dup[id] {
				return false
			}
			dup[id] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRankTableOrdersByDistanceThenID(t *testing.T) {
	c := server.NewCluster([]float64{10, 30, 20, 30})
	c.SetProtocol(&nopProto{})
	c.Initialize()
	c.ProbeAll()
	var o rankorder.Order
	rankByTable(&o, c, query.At(25))
	got := o.Prefix(c.N())
	// dists: id0=15, id1=5, id2=5, id3=5 → order [1 2 3 0]... ids 1,3 share
	// value 30 (dist 5) and id2 has dist 5 as well: tie broken by id.
	want := []int{1, 2, 3, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rankByTable order = %v, want %v", got, want)
		}
	}
}

func TestRankTableChargesServerOps(t *testing.T) {
	c := server.NewCluster(make([]float64, 7))
	c.SetProtocol(&nopProto{})
	c.Initialize()
	before := c.Counter().ServerOps
	var o rankorder.Order
	rankByTable(&o, c, query.Top())
	if got := c.Counter().ServerOps - before; got != 7 {
		t.Fatalf("rankByTable charged %d ops, want 7", got)
	}
	// The charge is the modelled full re-rank, however few ranks are read.
	o.Prefix(1)
	if got := c.Counter().ServerOps - before; got != 7 {
		t.Fatalf("reading a rank charged %d ops, want none", got-7)
	}
}

func TestMidpoint(t *testing.T) {
	if midpoint(4, 10) != 7 {
		t.Fatalf("midpoint(4,10) = %v", midpoint(4, 10))
	}
	if midpoint(-10, -4) != -7 {
		t.Fatalf("midpoint(-10,-4) = %v", midpoint(-10, -4))
	}
}

func TestSortByTableDist(t *testing.T) {
	c := server.NewCluster([]float64{100, 400, 250})
	c.SetProtocol(&nopProto{})
	c.Initialize()
	c.ProbeAll()
	var o rankorder.Order
	rankIDs(&o, c, query.At(300), []int{0, 1, 2})
	ids := o.Prefix(3)
	if !sort.SliceIsSorted(ids, func(a, b int) bool {
		return tableDist(c, query.At(300), ids[a]) <= tableDist(c, query.At(300), ids[b])
	}) {
		t.Fatalf("not sorted: %v", ids)
	}
	if ids[0] != 2 || ids[1] != 1 || ids[2] != 0 {
		t.Fatalf("order = %v, want [2 1 0]", ids)
	}
}

type nopProto struct{}

func (nopProto) Name() string              { return "nop" }
func (nopProto) Initialize()               {}
func (nopProto) HandleUpdate(int, float64) {}
func (nopProto) Answer() []int             { return nil }
