package runtime

import (
	"fmt"
	"math"

	"adaptivefilters/internal/comm"
	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/sim"
	"adaptivefilters/internal/snapshot"
	"adaptivefilters/internal/stream"
)

// Per-tenant kind discriminators, as version-3 node snapshots and
// version-2 tenant snapshots record them.
const (
	tenantKindSingle  = 0
	tenantKindMulti   = 1
	tenantKindSpatial = 2
)

// kindName renders a kind discriminator for error messages.
func kindName(kind int64) string {
	switch kind {
	case tenantKindMulti:
		return "multi-query"
	case tenantKindSpatial:
		return "spatial"
	default:
		return "single-query"
	}
}

// fabric is a tenant's serving backend: a private server.Cluster for a
// single-query tenant, a private server.SpatialCluster for a spatial one,
// or a server.Composite for a multi-query one. The node drives every kind
// through this one surface: only newFabric and the snapshot decoders' kind
// discriminators choose between kinds, and the query-plane calls reach a
// composite through a type assertion.
type fabric interface {
	// initialize runs the t0 phase.
	initialize()
	// deliver applies one event — (v, y) is the new location of a spatial
	// stream, y is zero otherwise. It is the shard-loop hot path and must
	// stay allocation-free in steady state.
	deliver(s stream.ID, v, y float64)
	// n returns the stream-partition size.
	n() int
	// counter returns the message counter (one per tenant, shared by every
	// query of a composite).
	counter() *comm.Counter
	// kind returns the snapshot kind discriminator.
	kind() int64
	// report fills the kind-specific answer fields of tr.
	report(tr *TenantReport)
	// exportBody writes the kind-specific snapshot record body, which
	// carries the tenant's event count; an export failure fails w.
	exportBody(w *snapshot.Writer, events uint64)
	// importBody restores a freshly built fabric from a record body written
	// by exportBody and returns the recorded event count.
	importBody(r *snapshot.Reader) (uint64, error)
}

// newFabric validates spec and builds tenant ti's serving backend. Protocol
// factories run here, on the caller's goroutine, seeded from the node seed
// and the tenant's seed label. For a multi-query spec, withQueries controls
// whether the spec's queries are built too (admission) or left for
// importBody to rebuild slot by slot (restore).
func newFabric(spec TenantSpec, ti int, nodeSeed, seedID int64, withQueries bool) (fabric, error) {
	if len(spec.SpatialInitial) > 0 {
		return newSpatialFabric(spec, ti, nodeSeed, seedID)
	}
	if spec.NewSpatial != nil {
		return nil, fmt.Errorf("runtime: tenant %d sets NewSpatial without SpatialInitial", ti)
	}
	if len(spec.Initial) == 0 {
		return nil, fmt.Errorf("runtime: tenant %d has an empty stream partition", ti)
	}
	// A NaN initial value would reach the ranking indexes through the
	// protocols' t0 probe fan-out, where it is a panic, not an error.
	for s, v := range spec.Initial {
		if math.IsNaN(v) {
			return nil, fmt.Errorf("runtime: tenant %d initial value for stream %d is NaN", ti, s)
		}
	}
	if len(spec.Queries) > 0 {
		return newCompositeFabric(spec, ti, nodeSeed, seedID, withQueries)
	}
	if spec.NewProtocol == nil {
		return nil, fmt.Errorf("runtime: tenant %d has no protocol factory", ti)
	}
	cluster := server.NewClusterWith(spec.Initial, spec.Server)
	proto := spec.NewProtocol(cluster, sim.DeriveSeed(nodeSeed, tenantSeedStream, seedID))
	cluster.SetProtocol(proto)
	return &singleFabric{solo{cluster, proto}, cluster}, nil
}

// newSpatialFabric builds a spatial (2-D) tenant's private
// server.SpatialCluster over the initial locations, its protocol seeded
// exactly as a single-query tenant's.
func newSpatialFabric(spec TenantSpec, ti int, nodeSeed, seedID int64) (fabric, error) {
	if spec.NewProtocol != nil || len(spec.Queries) > 0 || len(spec.Initial) > 0 {
		return nil, fmt.Errorf("runtime: tenant %d mixes spatial and 1-D configuration", ti)
	}
	if spec.Server != (server.Config{}) {
		return nil, fmt.Errorf("runtime: tenant %d: Server config is not supported on spatial tenants", ti)
	}
	if spec.NewSpatial == nil {
		return nil, fmt.Errorf("runtime: tenant %d has no spatial protocol factory", ti)
	}
	// A NaN initial location would reach the spatial sources, where it is a
	// panic, not an error.
	for s, p := range spec.SpatialInitial {
		if p.IsNaN() {
			return nil, fmt.Errorf("runtime: tenant %d initial location for stream %d is NaN", ti, s)
		}
	}
	cluster := server.NewSpatialCluster(spec.SpatialInitial)
	proto := spec.NewSpatial(cluster, sim.DeriveSeed(nodeSeed, tenantSeedStream, seedID))
	cluster.SetProtocol(proto)
	return &spatialFabric{solo{cluster, proto}, cluster}, nil
}

// soloHost is what server.Cluster and server.SpatialCluster share: one
// protocol on a private stream partition.
type soloHost interface {
	Initialize()
	N() int
	Counter() *comm.Counter
	ExportState(w *snapshot.Writer)
	ImportState(r *snapshot.Reader) error
}

// soloProtocol is what server.Protocol and server.SpatialProtocol share.
type soloProtocol interface {
	Name() string
	Answer() []stream.ID
}

// statefulState is what server.StatefulProtocol and
// server.SpatialStatefulProtocol add to their protocol kinds.
type statefulState interface {
	ExportState(w *snapshot.Writer)
	ImportState(r *snapshot.Reader) error
}

// solo is the shared half of the single-query and spatial fabrics. Their
// record body keeps the version-1 field order — protocol name, event
// count, host state, protocol state — so the legacy decode paths share it.
type solo struct {
	host  soloHost
	proto soloProtocol
}

func (f *solo) initialize()            { f.host.Initialize() }
func (f *solo) n() int                 { return f.host.N() }
func (f *solo) counter() *comm.Counter { return f.host.Counter() }
func (f *solo) answer() []stream.ID    { return f.proto.Answer() }

func (f *solo) report(tr *TenantReport) {
	tr.Answer = append([]stream.ID(nil), f.proto.Answer()...)
}

func (f *solo) exportBody(w *snapshot.Writer, events uint64) {
	sp, ok := f.proto.(statefulState)
	if !ok {
		w.Fail(fmt.Errorf("runtime: protocol %q does not support snapshots", f.proto.Name()))
		return
	}
	w.String(f.proto.Name())
	w.Uint64(events)
	f.host.ExportState(w)
	sp.ExportState(w)
}

func (f *solo) importBody(r *snapshot.Reader) (uint64, error) {
	protoName := r.String()
	events := r.Uint64()
	if err := r.Err(); err != nil {
		return 0, err
	}
	if got := f.proto.Name(); got != protoName {
		return 0, fmt.Errorf("spec builds protocol %q, snapshot holds %q", got, protoName)
	}
	sp, ok := f.proto.(statefulState)
	if !ok {
		return 0, fmt.Errorf("protocol %q does not support snapshots", protoName)
	}
	if err := f.host.ImportState(r); err != nil {
		return 0, fmt.Errorf("host: %w", err)
	}
	return events, sp.ImportState(r)
}

// singleFabric serves a single-query tenant on a private server.Cluster.
type singleFabric struct {
	solo
	c *server.Cluster
}

func (f *singleFabric) deliver(s stream.ID, v, _ float64) { f.c.Deliver(s, v) }
func (f *singleFabric) kind() int64                       { return tenantKindSingle }

// spatialFabric serves a spatial tenant on a private server.SpatialCluster.
type spatialFabric struct {
	solo
	c *server.SpatialCluster
}

func (f *spatialFabric) deliver(s stream.ID, v, y float64) {
	f.c.Deliver(s, filter.Point{X: v, Y: y})
}
func (f *spatialFabric) kind() int64 { return tenantKindSpatial }

// compositeFabric serves a multi-query tenant on a server.Composite. It
// owns the per-query seed derivation: query qid of the tenant draws
// DeriveSeed(nodeSeed, tenantSeedStream, seedID, querySeedStream, qid).
type compositeFabric struct {
	*server.Composite
	// queries is the spec's query list; a restore rebuilds query slot i
	// from queries[i].
	queries          []QuerySpec
	nodeSeed, seedID int64
	// nextQuerySeed is the monotonic query-admission counter, the
	// per-query analogue of the node's nextSeedID: query seed labels are
	// never reused after a RemoveQuery, and the counter rides in snapshots
	// so admissions after a restore continue the sequence.
	nextQuerySeed int64
}

func newCompositeFabric(spec TenantSpec, ti int, nodeSeed, seedID int64, withQueries bool) (fabric, error) {
	if spec.NewProtocol != nil {
		return nil, fmt.Errorf("runtime: tenant %d sets both NewProtocol and Queries", ti)
	}
	if spec.Server != (server.Config{}) {
		return nil, fmt.Errorf("runtime: tenant %d: Server config is not supported on multi-query tenants", ti)
	}
	for qi, qs := range spec.Queries {
		if qs.NewProtocol == nil {
			return nil, fmt.Errorf("runtime: tenant %d query %d has no protocol factory", ti, qi)
		}
	}
	f := &compositeFabric{
		Composite: server.NewComposite(spec.Initial),
		queries:   spec.Queries,
		nodeSeed:  nodeSeed,
		seedID:    seedID,
	}
	if withQueries {
		for _, qs := range spec.Queries {
			f.addQuery(qs)
		}
	}
	return f, nil
}

// querySeed derives the protocol seed of the query admitted with label qid.
func (f *compositeFabric) querySeed(qid int64) int64 {
	return sim.DeriveSeed(f.nodeSeed, tenantSeedStream, f.seedID, querySeedStream, qid)
}

// addQuery appends one query slot under the next admission label, running
// the protocol factory on the caller's goroutine. The slot is not
// initialized.
func (f *compositeFabric) addQuery(qs QuerySpec) int {
	qid := f.nextQuerySeed
	f.nextQuerySeed++
	name := qs.Name
	if name == "" {
		name = fmt.Sprintf("query-%d", f.QuerySlots())
	}
	seed := f.querySeed(qid)
	return f.AddQuery(name, qid, func(h server.Host) server.Protocol {
		return qs.NewProtocol(h, seed)
	})
}

func (f *compositeFabric) initialize()                       { f.Initialize() }
func (f *compositeFabric) deliver(s stream.ID, v, _ float64) { f.Deliver(s, v) }
func (f *compositeFabric) n() int                            { return f.N() }
func (f *compositeFabric) counter() *comm.Counter            { return f.Counter() }
func (f *compositeFabric) kind() int64                       { return tenantKindMulti }

func (f *compositeFabric) report(tr *TenantReport) {
	tr.MultiQuery = true
	tr.Queries = make([]QueryReport, f.QuerySlots())
	for qi := range tr.Queries {
		if !f.QueryAlive(qi) {
			continue
		}
		tr.Queries[qi] = QueryReport{
			Alive:  true,
			Name:   f.QueryName(qi),
			Answer: append([]stream.ID(nil), f.Answer(qi)...),
		}
	}
}

// exportBody writes the event count, the query-admission counter and the
// whole composite fabric.
func (f *compositeFabric) exportBody(w *snapshot.Writer, events uint64) {
	w.Uint64(events)
	w.Int64(f.nextQuerySeed)
	f.ExportState(w)
}

// importBody decodes what exportBody wrote, rebuilding each live query slot
// from the spec's QuerySpec at that slot with its recorded seed label.
func (f *compositeFabric) importBody(r *snapshot.Reader) (uint64, error) {
	events := r.Uint64()
	nextQuerySeed := r.Int64()
	if err := r.Err(); err != nil {
		return 0, err
	}
	if nextQuerySeed < 0 {
		return 0, fmt.Errorf("query admission counter %d negative", nextQuerySeed)
	}
	f.nextQuerySeed = nextQuerySeed
	return events, f.ImportState(r,
		func(slot int, name string, seedID int64, h server.Host) (server.Protocol, error) {
			if slot >= len(f.queries) {
				return nil, fmt.Errorf("snapshot holds query slot %d, spec lists %d queries", slot, len(f.queries))
			}
			if seedID < 0 || seedID >= nextQuerySeed {
				return nil, fmt.Errorf("query %d seed label %d outside [0,%d)", slot, seedID, nextQuerySeed)
			}
			return f.queries[slot].NewProtocol(h, f.querySeed(seedID)), nil
		})
}
