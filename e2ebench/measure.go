package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	gort "runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far (all threads).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap reads the live heap as of the last GC mark through
// runtime/metrics, which does not stop the world.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// heapPeak samples the live heap every few milliseconds until stopped and
// keeps the largest figure. A forced GC at the end of a pass gives the
// final state size; the sampler catches any larger mark in between.
type heapPeak struct {
	quit chan struct{}
	done chan struct{}
	once sync.Once
	peak uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			if v := liveHeap(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.quit:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends the sampler and waits for it; it may be called more than once.
func (h *heapPeak) stop() {
	h.once.Do(func() {
		close(h.quit)
		<-h.done
	})
}

// finish stops the sampler, forces a GC while the pass's state is still
// reachable, and returns the peak live heap.
func (h *heapPeak) finish() uint64 {
	h.stop()
	gort.GC()
	if v := liveHeap(); v > h.peak {
		h.peak = v
	}
	return h.peak
}

// span is one call into a layer as the benchmark saw it: the layer and
// operation, the batch or op id it served, the span that caused it (0 for
// none), and its start and end in nanoseconds since the run began.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory, one log per recording goroutine so that
// lanes never contend, and writes them out when the run ends. A nil
// *tracer records nothing, which is how untraced runs stay free of it.
type tracer struct {
	t0   time.Time
	mu   sync.Mutex
	logs []*spanLog
	next uint64
}

type spanLog struct {
	tr    *tracer
	base  uint64
	seq   uint64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// log returns a fresh span log for one goroutine. Span ids are unique per
// log: each log owns a disjoint id block.
func (t *tracer) log() *spanLog {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	l := &spanLog{tr: t, base: t.next << 40, spans: make([]span, 0, 1<<14)}
	t.logs = append(t.logs, l)
	return l
}

// begin opens a span and returns its id and start stamp; end closes it.
func (l *spanLog) begin() (uint64, time.Time) {
	if l == nil {
		return 0, time.Time{}
	}
	l.seq++
	return l.base | l.seq, time.Now()
}

func (l *spanLog) end(id, parent, op uint64, layer, name string, start time.Time) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Op: op, Layer: layer, Name: name,
		Start: start.Sub(l.tr.t0).Nanoseconds(), End: time.Since(l.tr.t0).Nanoseconds(),
	})
}

// do records fn as one span.
func (l *spanLog) do(parent, op uint64, layer, name string, fn func() error) error {
	if l == nil {
		return fn()
	}
	id, st := l.begin()
	err := fn()
	l.end(id, parent, op, layer, name, st)
	return err
}

func (t *tracer) all() []span {
	var out []span
	for _, l := range t.logs {
		out = append(out, l.spans...)
	}
	return out
}

// layerSelf is each layer's self time from the spans: its spans' total
// duration minus the part covered by their child spans.
func layerSelf(spans []span) map[string]time.Duration {
	byID := make(map[uint64]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		d := time.Duration(s.End - s.Start)
		self[s.Layer] += d
		if p, ok := byID[s.Parent]; ok && s.Parent != 0 {
			self[p.Layer] -= d
		}
	}
	return self
}

// write dumps the descriptor and every span, one JSON object per line.
func (t *tracer) write(path string, desc any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"descriptor": desc}); err != nil {
		f.Close()
		return err
	}
	spans := t.all()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelf prints the span-derived self time of every layer.
func printSelf(spans []span) {
	self := layerSelf(spans)
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("span self time  %-9s %v\n", k, self[k].Round(time.Microsecond))
	}
}
