package runtime

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"adaptivefilters/internal/server"
	"adaptivefilters/internal/sim"
	"adaptivefilters/internal/snapshot"
)

// pinnedSpecs is the mixed population the encoding pins are taken from:
// FT-NRP and RTP single-query tenants, a composite tenant (three range
// queries and one rank query), an RTP2D spatial tenant, and a fifth tenant
// that is evicted mid-run.
func pinnedSpecs() []TenantSpec {
	specs := testSpecs(2, 12)
	specs = append(specs, qpSpec("pin-mq", 4, 16, 5), spatialSpec("pin-sp", 14, 6))
	evicted := testSpecs(1, 9)[0]
	evicted.Name = "pin-evicted"
	return append(specs, evicted)
}

// pinEvents interleaves per-tenant random walks over every kind of
// partition, 1-D and planar, round-robin.
func pinEvents(specs []TenantSpec, perTenant int, seed int64) []Event {
	rng := sim.NewRNG(seed)
	xs := make([][]float64, len(specs))
	ys := make([][]float64, len(specs))
	for i, spec := range specs {
		xs[i] = append([]float64(nil), spec.Initial...)
		for _, p := range spec.SpatialInitial {
			xs[i] = append(xs[i], p.X)
			ys[i] = append(ys[i], p.Y)
		}
	}
	var evs []Event
	for e := 0; e < perTenant; e++ {
		for i := range specs {
			s := rng.Intn(len(xs[i]))
			xs[i][s] += rng.Normal(0, 40)
			ev := Event{Tenant: i, Stream: s, Value: xs[i][s]}
			if ys[i] != nil {
				ys[i][s] += rng.Normal(0, 40)
				ev.Y = ys[i][s]
			}
			evs = append(evs, ev)
		}
	}
	return evs
}

// pinnedNode runs the pinned population at the given shard count: a
// prefix, then one query removal on the composite tenant and the eviction
// of the last tenant, then a tail for the survivors. It returns the node
// running and drained.
func pinnedNode(t *testing.T, shards int) *Node {
	t.Helper()
	specs := pinnedSpecs()
	node, err := NewNode(Config{Shards: shards, Seed: 42}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	evs := pinEvents(specs, 80, 77)
	half := len(evs) / 2
	if err := node.Ingest(evs[:half]); err != nil {
		t.Fatal(err)
	}
	if err := node.RemoveQuery(2, 1); err != nil {
		t.Fatal(err)
	}
	if err := node.RemoveTenant(4); err != nil {
		t.Fatal(err)
	}
	var tail []Event
	for _, ev := range evs[half:] {
		if ev.Tenant != 4 {
			tail = append(tail, ev)
		}
	}
	if err := node.Ingest(tail); err != nil {
		t.Fatal(err)
	}
	if err := node.Drain(); err != nil {
		t.Fatal(err)
	}
	return node
}

// Pinned sha256 digests of the mixed node's encodings. Any change to them
// is an incompatible change to the snapshot format: bump SnapshotVersion or
// TenantSnapshotVersion and keep the old layout decoding, never re-pin.
const (
	pinnedNodeSnapshot = "621c005a165fd4602e87d4191c6c76d15bac913cd8c26f065b189401bac13144"
)

var pinnedTenantRecords = []string{
	0: "54c15ba88119a40b9eb0c780fe6deb9bb29f50ffe33f8c1e35712cbcba767a80",
	1: "4211e9cb4e60ad7e851f186375af1c2637f7539347d185fff5b5a4c58517dbb7",
	2: "7826e4b12d9527e698db0d53e39f190031638f4a30a83e44113a1f94d34ae64f",
	3: "721e6f8b8b0c95e97f387ab8e8d38d7e3ddb38caae25d4d9491397c7b75429bb",
}

// TestSnapshotBytesPinned pins the node-snapshot and tenant-snapshot
// encodings byte for byte across every tenant kind, a removed query slot
// and an evicted tenant slot — at two shard counts, since the encodings
// carry no placement.
func TestSnapshotBytesPinned(t *testing.T) {
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	for _, shards := range []int{1, 3} {
		node := pinnedNode(t, shards)
		snap, err := node.Snapshot()
		if err != nil {
			node.Stop()
			t.Fatal(err)
		}
		if got := digest(snap); got != pinnedNodeSnapshot {
			t.Errorf("shards=%d: node snapshot sha256 = %s, pinned %s", shards, got, pinnedNodeSnapshot)
		}
		for ti, want := range pinnedTenantRecords {
			rec, err := node.ExportTenant(ti)
			if err != nil {
				node.Stop()
				t.Fatal(err)
			}
			if got := digest(rec); got != want {
				t.Errorf("shards=%d: tenant %d record sha256 = %s, pinned %s", shards, ti, got, want)
			}
		}
		node.Stop()
	}
}

// legacySpecs is the population the legacy-encoding decode tests rebuild
// by hand: one FT-NRP and one RTP single-query tenant plus a composite
// tenant — every kind the pre-spatial encodings could hold.
func legacySpecs() []TenantSpec {
	return append(testSpecs(2, 15), qpSpec("legacy-mq", 4, 18, 9))
}

// writeLegacyBody replays tenant i's share of prefix on a private backend
// built exactly as the runtime builds it under node seed 42, and writes the
// kind-specific record body every encoding version shares: protocol name,
// event count, cluster state and protocol state for a single-query tenant;
// event count, query-admission counter and composite fabric state for a
// multi-query one.
func writeLegacyBody(w *snapshot.Writer, spec TenantSpec, i int, prefix [][]Event) {
	var events uint64
	if len(spec.Queries) > 0 {
		comp := server.NewComposite(spec.Initial)
		for qi, qs := range spec.Queries {
			qs, seed := qs, sim.DeriveSeed(42, tenantSeedStream, int64(i), querySeedStream, int64(qi))
			comp.AddQuery(qs.Name, int64(qi), func(h server.Host) server.Protocol { return qs.NewProtocol(h, seed) })
		}
		comp.Initialize()
		for _, b := range prefix {
			for _, ev := range b {
				if ev.Tenant == i {
					comp.Deliver(ev.Stream, ev.Value)
					events++
				}
			}
		}
		w.Uint64(events)
		w.Int64(int64(len(spec.Queries)))
		comp.ExportState(w)
		return
	}
	cluster := server.NewClusterWith(spec.Initial, spec.Server)
	proto := spec.NewProtocol(cluster, sim.DeriveSeed(42, tenantSeedStream, int64(i)))
	cluster.SetProtocol(proto)
	cluster.Initialize()
	for _, b := range prefix {
		for _, ev := range b {
			if ev.Tenant == i {
				cluster.Deliver(ev.Stream, ev.Value)
				events++
			}
		}
	}
	w.String(proto.Name())
	w.Uint64(events)
	cluster.ExportState(w)
	proto.(server.StatefulProtocol).ExportState(w)
}

// withTrailer seals w with the crc32c trailer every encoding version
// carries.
func withTrailer(t *testing.T, w *snapshot.Writer) []byte {
	t.Helper()
	b, err := seal(w)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRestoreDecodesVersion2 pins backward compatibility with the
// version-2 node encoding, whose per-tenant kind is a multi-query bool: a
// snapshot rebuilt here byte for byte must restore and continue
// bit-identically with an uninterrupted current-version run.
func TestRestoreDecodesVersion2(t *testing.T) {
	specs := legacySpecs()
	batches := testEvents(specs, 120, 37)
	cut := len(batches) / 2
	ref := runNode(t, 2, specs, batches)

	w := snapshot.NewWriter()
	w.String(snapshotMagic)
	w.Uint64(2)
	w.Int64(42)                // node seed
	w.Int64(int64(len(specs))) // nextSeedID
	var ingested uint64
	for _, b := range batches[:cut] {
		ingested += uint64(len(b))
	}
	w.Uint64(ingested)
	w.Int(len(specs))
	for i, spec := range specs {
		w.Bool(true)
		w.Bool(len(spec.Queries) > 0)
		w.String(spec.Name)
		w.Int64(int64(i))
		writeLegacyBody(w, spec, i, batches[:cut])
	}
	v2 := withTrailer(t, w)

	rn, err := RestoreNode(Config{Shards: 3}, specs, v2)
	if err != nil {
		t.Fatalf("version-2 snapshot rejected: %v", err)
	}
	if got := rn.TotalEvents(); got != ingested {
		t.Fatalf("TotalEvents = %d, want %d", got, ingested)
	}
	if err := rn.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, rn, batches[cut:])
	if err := rn.Drain(); err != nil {
		t.Fatal(err)
	}
	rn.Stop()
	if got, want := rn.Report().Text(), ref.Report().Text(); got != want {
		t.Errorf("restored version-2 run diverged:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestImportTenantDecodesVersion1 pins backward compatibility with the
// version-1 tenant encoding, whose kind is a multi-query bool: every tenant
// of the population, rebuilt here byte for byte and imported onto an empty
// node in slot order, must continue bit-identically with an uninterrupted
// run.
func TestImportTenantDecodesVersion1(t *testing.T) {
	specs := legacySpecs()
	batches := testEvents(specs, 120, 41)
	cut := len(batches) / 2
	ref := runNode(t, 2, specs, batches)

	node, err := NewNodeLabeled(Config{Shards: 3, Seed: 42}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	for i, spec := range specs {
		w := snapshot.NewWriter()
		w.String(tenantSnapshotMagic)
		w.Uint64(1)
		w.Int64(42) // node seed
		w.String(spec.Name)
		w.Int64(int64(i))
		w.Bool(len(spec.Queries) > 0)
		writeLegacyBody(w, spec, i, batches[:cut])
		ti, err := node.ImportTenant(spec, withTrailer(t, w))
		if err != nil {
			t.Fatalf("version-1 record of tenant %d rejected: %v", i, err)
		}
		if ti != i {
			t.Fatalf("tenant %d imported into slot %d", i, ti)
		}
	}
	ingestAll(t, node, batches[cut:])
	if err := node.Drain(); err != nil {
		t.Fatal(err)
	}
	if got, want := node.Report().Text(), ref.Report().Text(); got != want {
		t.Errorf("imported version-1 tenants diverged:\n got:\n%s\nwant:\n%s", got, want)
	}
}
