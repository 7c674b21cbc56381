package main

import (
	"fmt"
	"sort"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/multidim"
	"adaptivefilters/internal/oracle"
	"adaptivefilters/internal/protospec"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/runtime"
)

// checker is the benchmark's ground truth. It replays the same inputs the
// program received (outside any timed window) and, at event-count
// barriers, checks every tenant's and query's answer in a runtime.Report —
// whichever plane produced it — against the paper's tolerance definitions:
// internal/oracle for the 1-D protocols, a brute-force planar k-NN for the
// 2-D ones.
type checker struct {
	in      *Inputs
	oracles []*oracle.Checker // 1-D tenants
	points  [][]filter.Point  // spatial tenants
	// slots[ti] lists composite tenant ti's query specs by slot, churned
	// queries included, so removed and added slots check against the spec
	// they were admitted with.
	slots   [][]protospec.Spec
	applied []int // per lane, events folded into the truth so far

	// Reused scratch, so checking allocates nothing that a GC cycle inside
	// a later timed window would have to collect.
	seen         []uint32 // per stream, the check epoch that last saw it
	epoch        uint32
	dist, sorted []float64

	checks, violations uint64
	firstViolations    []string
}

func newChecker(in *Inputs) *checker {
	c := &checker{
		in:      in,
		oracles: make([]*oracle.Checker, len(in.Tenants)),
		points:  make([][]filter.Point, len(in.Tenants)),
		slots:   make([][]protospec.Spec, len(in.Tenants)),
		applied: make([]int, len(in.Lanes)),
	}
	for i := range in.Tenants {
		t := &in.Tenants[i]
		if t.Points != nil {
			c.points[i] = append([]filter.Point(nil), t.Points...)
		} else {
			c.oracles[i] = oracle.New(t.Initial)
		}
		c.slots[i] = append([]protospec.Spec(nil), t.Queries...)
	}
	return c
}

// addSlot records a query admitted onto composite tenant ti at runtime.
func (c *checker) addSlot(ti int, s protospec.Spec) { c.slots[ti] = append(c.slots[ti], s) }

// advance folds every lane's events up to the end of segment seg (exclusive
// of later segments) into the truth.
func (c *checker) advance(seg int) {
	for l, lane := range c.in.Lanes {
		upto := (seg + 1) * c.in.Seg
		if upto > len(lane) {
			upto = len(lane)
		}
		for _, ev := range lane[c.applied[l]:upto] {
			if p := c.points[ev.Tenant]; p != nil {
				p[ev.Stream] = filter.Point{X: ev.Value, Y: ev.Y}
			} else {
				c.oracles[ev.Tenant].Apply(ev.Stream, ev.Value)
			}
		}
		if upto > c.applied[l] {
			c.applied[l] = upto
		}
	}
}

// check validates every live answer of rep against the truth as advanced.
func (c *checker) check(rep *runtime.Report) {
	if len(rep.Tenants) != len(c.in.Tenants) {
		c.violate(fmt.Sprintf("report has %d tenants, want %d", len(rep.Tenants), len(c.in.Tenants)))
		return
	}
	for ti := range rep.Tenants {
		tr := &rep.Tenants[ti]
		if !tr.Alive {
			c.violate(fmt.Sprintf("tenant %d is not alive", ti))
			continue
		}
		if len(c.slots[ti]) > 0 {
			if len(tr.Queries) != len(c.slots[ti]) {
				c.violate(fmt.Sprintf("tenant %d reports %d query slots, want %d", ti, len(tr.Queries), len(c.slots[ti])))
				continue
			}
			for qi, qr := range tr.Queries {
				if qr.Alive {
					c.record(ti, qi, c.checkOne(ti, c.slots[ti][qi], qr.Answer))
				}
			}
			continue
		}
		c.record(ti, -1, c.checkOne(ti, c.in.Tenants[ti].Spec, tr.Answer))
	}
}

func (c *checker) record(ti, qi int, err error) {
	c.checks++
	if err != nil {
		c.violate(fmt.Sprintf("tenant %d query %d: %v", ti, qi, err))
	}
}

func (c *checker) violate(msg string) {
	c.violations++
	if len(c.firstViolations) < 5 {
		c.firstViolations = append(c.firstViolations, msg)
	}
}

// checkOne validates one answer against one protocol spec.
func (c *checker) checkOne(ti int, s protospec.Spec, answer []int) error {
	if err := c.distinctIDs(answer, c.in.Tenants[ti].streams()); err != nil {
		return err
	}
	if s.Spatial() {
		c.dist, c.sorted = planarDistances(c.points[ti], s, c.dist, c.sorted)
		return checkPlanar(c.dist, c.sorted, answer, s)
	}
	o := c.oracles[ti]
	center := query.At(s.Q)
	if s.Top {
		center = query.Top()
	}
	tol := core.FractionTolerance{EpsPlus: s.EpsPlus, EpsMinus: s.EpsMinus}
	switch s.Protocol {
	case "rtp":
		return o.CheckRank(answer, center, core.RankTolerance{K: s.K, R: s.R})
	case "ft-rp":
		return o.CheckFractionKNN(answer, query.KNN{Q: center, K: s.K}, tol)
	case "ft-nrp", "zt-nrp":
		return o.CheckFractionRange(answer, query.NewRange(s.Lo, s.Hi), tol)
	}
	return fmt.Errorf("no oracle for protocol %q", s.Protocol)
}

func (t *tenantDef) streams() int {
	if t.Points != nil {
		return len(t.Points)
	}
	return len(t.Initial)
}

// distinctIDs rejects answers naming an unknown stream or one stream twice.
func (c *checker) distinctIDs(answer []int, n int) error {
	if len(c.seen) < n {
		c.seen = make([]uint32, n)
	}
	c.epoch++
	for _, id := range answer {
		if id < 0 || id >= n {
			return fmt.Errorf("answer names stream %d outside [0,%d)", id, n)
		}
		if c.seen[id] == c.epoch {
			return fmt.Errorf("answer names stream %d twice", id)
		}
		c.seen[id] = c.epoch
	}
	return nil
}

// planarDistances fills dist with every object's distance to the spatial
// query point and sorted with the same distances in ascending order,
// reusing the given buffers.
func planarDistances(pts []filter.Point, s protospec.Spec, dist, sorted []float64) ([]float64, []float64) {
	q := filter.Point{X: s.QX, Y: s.QY}
	dist = dist[:0]
	for _, p := range pts {
		dist = append(dist, multidim.Dist(p, q))
	}
	sorted = append(sorted[:0], dist...)
	sort.Float64s(sorted)
	return dist, sorted
}

// checkPlanar is the brute-force reference for the 2-D k-NN protocols over
// planarDistances' output: favorable ranks under ties (1 + the number
// strictly closer), Definition 1 for rtp2d and Definition 3 with the
// answer-size window for ft-rp2d.
func checkPlanar(dist, sorted []float64, answer []int, s protospec.Spec) error {
	rank := func(id int) int { return sort.SearchFloat64s(sorted, dist[id]) + 1 }
	switch s.Protocol {
	case "rtp2d":
		tol := core.RankTolerance{K: s.K, R: s.R}
		if len(answer) != tol.K {
			return fmt.Errorf("rank2d: |A|=%d, want exactly k=%d", len(answer), tol.K)
		}
		for _, id := range answer {
			if r := rank(id); r > tol.Eps() {
				return fmt.Errorf("rank2d: object %d has true rank %d > ε=%d", id, r, tol.Eps())
			}
		}
		return nil
	case "ft-rp2d":
		tol := core.FractionTolerance{EpsPlus: s.EpsPlus, EpsMinus: s.EpsMinus}
		minA, maxA := tol.AnswerBounds(s.K)
		if len(answer) < minA || len(answer) > maxA {
			return fmt.Errorf("knn2d-fraction: |A|=%d outside [%d,%d]", len(answer), minA, maxA)
		}
		ePlus := 0
		for _, id := range answer {
			if rank(id) > s.K {
				ePlus++
			}
		}
		// Everyone within the k-th nearest distance satisfies the query
		// (ties share rank k favorably, so this can exceed k).
		kd := sorted[s.K-1]
		satisfying := sort.Search(len(sorted), func(i int) bool { return sorted[i] > kd })
		fp, fm := fractions(len(answer), ePlus, satisfying-(len(answer)-ePlus))
		const slack = 1e-12
		if fp > tol.EpsPlus+slack {
			return fmt.Errorf("knn2d-fraction: F⁺=%.4f > ε⁺=%.4f", fp, tol.EpsPlus)
		}
		if fm > tol.EpsMinus+slack {
			return fmt.Errorf("knn2d-fraction: F⁻=%.4f > ε⁻=%.4f", fm, tol.EpsMinus)
		}
		return nil
	}
	return fmt.Errorf("no planar oracle for protocol %q", s.Protocol)
}

// fractions is Equations 1–2: the false-positive share of the answer and
// the false-negative share of the true result.
func fractions(aSize, ePlus, eMinus int) (fPlus, fMinus float64) {
	eMinus = max(eMinus, 0)
	if aSize > 0 {
		fPlus = float64(ePlus) / float64(aSize)
	}
	if denom := aSize - ePlus + eMinus; denom > 0 {
		fMinus = float64(eMinus) / float64(denom)
	} else if eMinus > 0 {
		fMinus = 1
	}
	return fPlus, fMinus
}
