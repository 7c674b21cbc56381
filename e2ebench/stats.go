package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// p99 needs 1000 samples, a p50 needs 20. Fewer, and the figure is one or
// two unlucky samples rather than a percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of samples:
// the ceil(q·n)-th smallest. It refuses sample sets too small to have
// minBeyond samples past the percentile. samples is sorted in place.
func percentile(samples []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %g outside (0,1)", q)
	}
	need := int(math.Ceil(minBeyond/(1-q) - 1e-9))
	if len(samples) < need {
		return 0, fmt.Errorf("p%g needs at least %d samples, have %d", q*100, need, len(samples))
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(q*float64(len(samples)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return samples[rank-1], nil
}

// percentileWindow is how many consecutive samples windowedPercentile
// takes a percentile over: the fewest that support a p99.
const percentileWindow = 1000

// windowedPercentile is the nearest-rank q-quantile of each run of
// percentileWindow consecutive samples (the last partial window is folded
// into its predecessor), reported as the median over windows. A stall that
// lands in one window moves that window's figure, not the run's, so the
// tail reflects what the run typically saw rather than its single worst
// burst. With fewer than two windows it is the plain percentile. samples
// is not modified.
func windowedPercentile(samples []float64, q float64) (float64, error) {
	n := len(samples) / percentileWindow
	if n < 2 {
		return percentile(append([]float64(nil), samples...), q)
	}
	per := make([]float64, n)
	for w := 0; w < n; w++ {
		hi := (w + 1) * percentileWindow
		if w == n-1 {
			hi = len(samples)
		}
		v, err := percentile(append([]float64(nil), samples[w*percentileWindow:hi]...), q)
		if err != nil {
			return 0, err
		}
		per[w] = v
	}
	return median(per), nil
}

// median is the middle value (mean of the two middle ones for an even
// count) of a small set of per-pass figures; samples is sorted in place.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sort.Float64s(samples)
	m := len(samples) / 2
	if len(samples)%2 == 1 {
		return samples[m]
	}
	return (samples[m-1] + samples[m]) / 2
}

// skew is max/mean of a set of per-partition loads (1 = perfectly even).
func skew(loads []float64) float64 {
	if len(loads) == 0 {
		return 0
	}
	var sum, mx float64
	for _, v := range loads {
		sum += v
		mx = math.Max(mx, v)
	}
	if sum == 0 {
		return 0
	}
	return mx / (sum / float64(len(loads)))
}

// outcomes counts operations by result. A failure is anything the caller
// did not get done: a shed, lost or errored ingest batch, a batch dropped
// while the link was down, or a control op that returned an error.
type outcomes struct {
	Attempted uint64
	Shed      uint64
	Lost      uint64
	Dropped   uint64
	Errored   uint64
}

func (o outcomes) failed() uint64 { return o.Shed + o.Lost + o.Dropped + o.Errored }

// errorRate is failed over attempted (0 for no attempts).
func (o outcomes) errorRate() float64 {
	if o.Attempted == 0 {
		return 0
	}
	return float64(o.failed()) / float64(o.Attempted)
}

func (o *outcomes) add(p outcomes) {
	o.Attempted += p.Attempted
	o.Shed += p.Shed
	o.Lost += p.Lost
	o.Dropped += p.Dropped
	o.Errored += p.Errored
}
