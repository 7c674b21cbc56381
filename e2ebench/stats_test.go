package main

import (
	"testing"
	"time"

	"adaptivefilters/client"
	"adaptivefilters/internal/wire"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // descending: percentile must sort
	}
	return s
}

func TestPercentileIsNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want float64
	}{
		{1000, 0.99, 990},
		{1000, 0.50, 500},
		{1001, 0.99, 991}, // ceil(990.99) = 991
		{20, 0.50, 10},
		{2500, 0.99, 2475},
	} {
		got, err := percentile(seq(c.n), c.q)
		if err != nil {
			t.Fatalf("n=%d q=%g: %v", c.n, c.q, err)
		}
		if got != c.want {
			t.Errorf("n=%d q=%g: got %g, want %g", c.n, c.q, got, c.want)
		}
	}
}

func TestPercentileRefusesThinSamples(t *testing.T) {
	if _, err := percentile(seq(999), 0.99); err == nil {
		t.Error("p99 of 999 samples was accepted")
	}
	if _, err := percentile(seq(1000), 0.99); err != nil {
		t.Errorf("p99 of 1000 samples refused: %v", err)
	}
	if _, err := percentile(seq(19), 0.5); err == nil {
		t.Error("p50 of 19 samples was accepted")
	}
	if _, err := percentile(seq(99), 0.9); err == nil {
		t.Error("p90 of 99 samples was accepted")
	}
}

func TestErrorRateCountsEveryFailureKind(t *testing.T) {
	o := outcomes{Attempted: 200, Shed: 1, Lost: 2, Dropped: 3, Errored: 4}
	if got := o.failed(); got != 10 {
		t.Fatalf("failed = %d, want 10", got)
	}
	if got := o.errorRate(); got != 0.05 {
		t.Fatalf("error rate = %g, want 0.05", got)
	}
	if (outcomes{}).errorRate() != 0 {
		t.Fatal("no attempts must read as no errors")
	}
}

// The wire sender's ack accounting turns shed, lost and errored batches into
// failures and only successful open-loop acks into latency samples.
func TestWireAckAccounting(t *testing.T) {
	wc := &wireConn{}
	now := time.Now()
	open := sendRec{due: now.Add(-time.Millisecond), sent: now, open: true}
	wc.settle(open, now, wire.StatusOK)
	wc.settle(sendRec{}, now, wire.StatusOK) // unpaced: no latency sample
	wc.settle(open, now, wire.StatusShed)
	wc.settle(open, now, client.StatusLost)
	wc.settle(open, now, wire.StatusError)
	if len(wc.acks) != 1 || wc.acks[0] != 1 {
		t.Fatalf("ack samples %v, want one of 1ms", wc.acks)
	}
	if wc.out.Shed != 1 || wc.out.Lost != 1 || wc.out.Errored != 1 {
		t.Fatalf("outcomes %+v, want one shed, one lost, one errored", wc.out)
	}
	var total outcomes
	total.add(wc.out)
	total.Attempted = 5
	total.Dropped = 1 // a batch refused while the link was down
	if total.failed() != 4 {
		t.Fatalf("failed = %d, want 4", total.failed())
	}
}

func TestMedianAndSkew(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %g, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
	if s := skew([]float64{1, 1, 4}); s != 2 {
		t.Errorf("skew = %g, want 2", s)
	}
}
