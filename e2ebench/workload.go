package main

import (
	"fmt"

	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/protospec"
	"adaptivefilters/internal/runtime"
	"adaptivefilters/internal/sim"
	"adaptivefilters/internal/workload"
)

// Workload is one named traffic mix: the tenants it hosts, how its
// pre-generated events are laid out over concurrent callers ("lanes"), and
// when control operations interrupt the ingest. Every field is recorded in
// the result descriptor, so a number is never separated from the shape that
// produced it.
type Workload struct {
	Name string `json:"name"`
	// Why states which layers the workload loads and which it bypasses, so
	// a later change can name where it should move a number and where the
	// prediction is "no move".
	Why      string   `json:"why"`
	Loads    []string `json:"loads"`
	Bypasses []string `json:"bypasses"`

	Tenants         int    `json:"tenants"`
	Queries         int    `json:"queries_per_tenant"`
	EventsPerTenant int    `json:"events_per_tenant"`
	Batch           int    `json:"batch"`
	Lanes           int    `json:"lanes"`
	Shards          int    `json:"shards"`
	Members         int    `json:"members"`
	ControlEvery    int    `json:"control_every_events"`
	Loop            string `json:"loop"`
	// OpenLoopRate is the offered rate of range-wire's first phase, in
	// events per second across both connections (0 elsewhere), and
	// OpenLoopShare the fraction of the input played in that phase.
	OpenLoopRate  float64 `json:"open_loop_rate_eps"`
	OpenLoopShare float64 `json:"open_loop_share"`
	// Window is the client's per-connection inflight batch window.
	Window int `json:"client_window"`
}

// The three workloads. Sizes are fixed here, not derived from the machine:
// a run on a slower box does the same work and takes longer.
var workloads = []Workload{
	{
		Name: "rank-knn",
		Why: "rank protocols re-sort the value table on every re-rank, so core and multidim do most of the work; " +
			"wire, netserve, client and cluster are bypassed",
		Loads:    []string{"core", "multidim", "server", "runtime"},
		Bypasses: []string{"wire", "client", "netserve", "cluster", "snapshot"},
		Tenants:  8, Queries: 1, EventsPerTenant: 200_000, Batch: 256,
		Lanes: 2, Shards: 2, ControlEvery: 8192, Loop: "closed, unpaced, 2 runtime.Ingesters",
	},
	{
		Name: "range-wire",
		Why: "FT-NRP and ZT-NRP steps are nearly free, so the wire codec, netserve, client pipelining and runtime routing dominate; " +
			"the rankers and cluster are bypassed",
		Loads:    []string{"wire", "client", "netserve", "runtime"},
		Bypasses: []string{"multidim", "cluster", "snapshot", "core rankers"},
		Tenants:  16, Queries: 1, EventsPerTenant: 60_000, Batch: 128,
		Lanes: 2, Shards: 2, ControlEvery: 8192,
		Loop:         "phase 1 open loop at a fixed rate, phase 2 unpaced; 2 client connections over loopback",
		OpenLoopRate: 3_000_000, OpenLoopShare: 0.25, Window: 32,
	},
	{
		Name: "composite-churn",
		Why: "the composite query index, drain barriers, snapshot export/import and cluster routing dominate, with reads and " +
			"query churn beside ingest; wire and the rankers are bypassed",
		Loads:    []string{"server", "runtime", "cluster", "snapshot"},
		Bypasses: []string{"wire", "client", "netserve", "multidim", "core rankers"},
		Tenants:  8, Queries: 64, EventsPerTenant: 120_000, Batch: 256,
		Lanes: 1, Shards: 1, Members: 2, ControlEvery: 8192,
		Loop: "closed, unpaced, one cluster.Cluster caller; control ops rotate read, churn, migrate, stats",
	},
}

func findWorkload(name string) (Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// tenantDef is one tenant of a workload: its declarative protocol spec(s)
// and its stream partition at t0. Exactly one of Initial and Points is set.
type tenantDef struct {
	Name    string
	Spec    protospec.Spec   // single-query tenants
	Queries []protospec.Spec // composite tenants
	Initial []float64
	Points  []filter.Point
}

// kind names the tenant's protocol for per-kind metrics.
func (t *tenantDef) kind() string {
	if len(t.Queries) > 0 {
		return "composite"
	}
	return t.Spec.Protocol
}

// Inputs is everything a pass replays, generated before any timing starts.
// Lanes[l] is the event sequence caller l sends, in order; tenant i's
// events all travel on lane i mod Lanes, so per-tenant order is fixed no
// matter how lanes interleave — the schedule under which every plane's
// answers are byte-identical.
type Inputs struct {
	W       Workload
	Seed    int64
	Tenants []tenantDef
	Lanes   [][]runtime.Event
	// Seg is the per-lane segment length: control operations and oracle
	// barriers fall after every Seg events of every lane, so they are
	// scheduled by event count, never by wall clock.
	Seg int
}

// Events is the total event count of one pass.
func (in *Inputs) Events() int {
	n := 0
	for _, l := range in.Lanes {
		n += len(l)
	}
	return n
}

// Segments is the number of ingest segments per pass; a control op follows
// every segment but the last.
func (in *Inputs) Segments() int {
	return (len(in.Lanes[0]) + in.Seg - 1) / in.Seg
}

// segment returns lane l's events of segment j.
func (in *Inputs) segment(l, j int) []runtime.Event {
	lane := in.Lanes[l]
	lo := j * in.Seg
	hi := lo + in.Seg
	if hi > len(lane) {
		hi = len(lane)
	}
	if lo > hi {
		lo = hi
	}
	return lane[lo:hi]
}

// workloadSeedStream labels per-tenant input derivation from the run seed.
const workloadSeedStream int64 = 0xB3AC

// Generate builds a workload's inputs from the seed. It is deterministic:
// the same (workload, seed) gives identical tenants and lanes.
func Generate(w Workload, seed int64) (*Inputs, error) {
	in := &Inputs{W: w, Seed: seed, Tenants: make([]tenantDef, w.Tenants)}
	streams := make([][]runtime.Event, w.Tenants)
	for i := 0; i < w.Tenants; i++ {
		ts := sim.DeriveSeed(seed, workloadSeedStream, int64(i))
		def, evs, err := genTenant(w, i, ts)
		if err != nil {
			return nil, fmt.Errorf("%s tenant %d: %w", w.Name, i, err)
		}
		in.Tenants[i] = def
		streams[i] = evs
	}
	in.Lanes = interleave(streams, w.Lanes)
	in.Seg = w.ControlEvery / w.Lanes
	return in, nil
}

// interleave lays tenant streams out on lanes: tenant i rides lane i mod
// lanes, and within a lane tenants alternate event by event.
func interleave(streams [][]runtime.Event, lanes int) [][]runtime.Event {
	out := make([][]runtime.Event, lanes)
	for l := 0; l < lanes; l++ {
		var mine [][]runtime.Event
		total := 0
		for i := l; i < len(streams); i += lanes {
			mine = append(mine, streams[i])
			total += len(streams[i])
		}
		lane := make([]runtime.Event, 0, total)
		for k := 0; len(lane) < total; k++ {
			for _, s := range mine {
				if k < len(s) {
					lane = append(lane, s[k])
				}
			}
		}
		out[l] = lane
	}
	return out
}

// genTenant builds tenant i of workload w and its first EventsPerTenant
// events. Tenant kinds alternate in pairs (kind = i/2 mod kinds) so that
// with two lanes and two shards every lane and shard carries every kind.
func genTenant(w Workload, i int, seed int64) (tenantDef, []runtime.Event, error) {
	m := w.EventsPerTenant
	var def tenantDef
	var it workload.Iterator
	switch w.Name {
	case "rank-knn":
		switch (i / 2) % 4 {
		case 0: // RTP k-NN around the domain centre on the random walk
			syn, err := workload.NewSynthetic(synthetic(2000, m, seed))
			if err != nil {
				return def, nil, err
			}
			def = tenantDef{Initial: syn.Initial(), Spec: protospec.Spec{Protocol: "rtp", K: 20, R: 5, Q: 500}}
			it = syn.Events()
		case 1: // FT-RP top-k on the skewed TCP-like workload
			cfg := workload.DefaultTCPLike(2*m, seed)
			cfg.N = 2000
			tcp, err := workload.NewTCPLike(cfg)
			if err != nil {
				return def, nil, err
			}
			def = tenantDef{Initial: tcp.Initial(), Spec: protospec.Spec{
				Protocol: "ft-rp", K: 50, Top: true, EpsPlus: 0.2, EpsMinus: 0.2}}
			it = tcp.Events()
		default: // RTP2D and FT-RP2D around the plane's centre
			cfg := workload.DefaultSpatial2D(1.2*float64(m)*20/1000, seed)
			cfg.N = 1000
			sp, err := workload.NewSpatial2D(cfg)
			if err != nil {
				return def, nil, err
			}
			spec := protospec.Spec{Protocol: "rtp2d", K: 20, R: 5, QX: 500, QY: 500}
			if (i/2)%4 == 3 {
				spec = protospec.Spec{Protocol: "ft-rp2d", K: 50, EpsPlus: 0.2, EpsMinus: 0.2, QX: 500, QY: 500}
			}
			def = tenantDef{Points: sp.InitialPoints(), Spec: spec}
			it = sp.Events()
		}
	case "range-wire":
		syn, err := workload.NewSynthetic(synthetic(500, m, seed))
		if err != nil {
			return def, nil, err
		}
		lo := 300 + 25*float64(i%8)
		spec := protospec.Spec{Protocol: "ft-nrp", Lo: lo, Hi: lo + 200, EpsPlus: 0.2, EpsMinus: 0.2}
		if (i/2)%2 == 1 {
			spec = protospec.Spec{Protocol: "zt-nrp", Lo: lo, Hi: lo + 200}
		}
		def = tenantDef{Initial: syn.Initial(), Spec: spec}
		it = syn.Events()
	case "composite-churn":
		syn, err := workload.NewSynthetic(synthetic(1000, m, seed))
		if err != nil {
			return def, nil, err
		}
		qs := make([]protospec.Spec, w.Queries)
		for j := range qs {
			qs[j] = churnQuery(float64(j) * 850 / float64(w.Queries-1))
		}
		def = tenantDef{Initial: syn.Initial(), Queries: qs}
		it = syn.Events()
	default:
		return def, nil, fmt.Errorf("no generator for workload %q", w.Name)
	}
	def.Name = fmt.Sprintf("%s-%d", def.kind(), i)
	evs := make([]runtime.Event, 0, m)
	for len(evs) < m {
		ev, ok := it.Next()
		if !ok {
			return def, nil, fmt.Errorf("generator ran dry after %d of %d events", len(evs), m)
		}
		evs = append(evs, runtime.Event{Tenant: i, Stream: ev.Stream, Value: ev.Value, Y: ev.Y})
	}
	return def, evs, nil
}

// churnQuery is the composite workloads' FT-NRP range query of width 150
// starting at lo.
func churnQuery(lo float64) protospec.Spec {
	return protospec.Spec{Protocol: "ft-nrp", Lo: lo, Hi: lo + 150, EpsPlus: 0.2, EpsMinus: 0.2}
}

// synthetic is the paper's random walk over n streams with a horizon long
// enough to yield m events (n/MeanGap events per time unit) with margin.
func synthetic(n, m int, seed int64) workload.SyntheticConfig {
	cfg := workload.DefaultSynthetic(0, seed)
	cfg.N = n
	cfg.Horizon = 1.2 * float64(m) * cfg.MeanGap / float64(n)
	return cfg
}
