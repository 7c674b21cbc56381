package runtime

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"adaptivefilters/internal/snapshot"
)

// snapshotMagic and SnapshotVersion head every node snapshot. The version
// covers the whole encoding transitively — tenant layout, cluster state,
// protocol state — and is bumped on any incompatible change; RestoreNode
// rejects versions it does not know (DESIGN.md §6).
const (
	snapshotMagic = "adaptivefilters/node-snapshot"
	// SnapshotVersion is the current encoding version. Version 3 widened the
	// per-tenant kind discriminator from a bool to an integer to admit
	// spatial (2-D) tenants; version 2 added multi-query composite tenants;
	// version 1 snapshots — single-query tenants only — still decode, as do
	// version 2 ones (DESIGN.md §7.4, §11).
	SnapshotVersion = 3
)

// Snapshot captures a barrier-consistent, versioned encoding of the node's
// full tenant state: for every live slot, the server value table, message
// counters, pending queue, every source's value/filter/side, the protocol's
// dynamic state (including its selection-RNG position), and the event
// count; for spatial tenants, the same over planar locations and regions;
// for multi-query tenants, the whole composite fabric (ground truth, shared
// table, per-stream constraint vectors and sides, the shared counter, and
// every query slot's protocol state and seed label). It drains first, so
// the snapshot reflects exactly the events ingested before the call — the
// barrier every shard loop has passed.
//
// The encoding carries no placement information: a snapshot is
// byte-identical no matter how many shards the node runs, and RestoreNode
// may restore it at any shard count. Every hosted protocol must implement
// server.StatefulProtocol (all of internal/core does) or, on a spatial
// tenant, server.SpatialStatefulProtocol (both of internal/multidim do).
//
// Like the other control calls, Snapshot must be called from the single
// control-side goroutine; its barrier quiesces concurrent ingesters first,
// so the snapshot reflects exactly the batches whose Ingest returned before
// the barrier completed.
func (n *Node) Snapshot() ([]byte, error) {
	n.ingestMu.Lock()
	defer n.ingestMu.Unlock()
	if !n.started || n.stopped {
		return nil, fmt.Errorf("runtime: node not running")
	}
	if err := n.drainLocked(); err != nil {
		return nil, err
	}
	w := snapshot.NewWriter()
	w.String(snapshotMagic)
	w.Uint64(SnapshotVersion)
	w.Int64(n.cfg.Seed)
	w.Int64(n.nextSeedID)
	w.Uint64(n.ingested.Load())
	w.Int(len(n.tenants))
	for _, t := range n.tenants {
		w.Bool(t != nil)
		if t == nil {
			continue
		}
		w.Int64(t.fab.kind())
		w.String(t.name)
		w.Int64(t.seedID)
		t.fab.exportBody(w, t.events)
	}
	return seal(w)
}

// seal appends the crc32c trailer every node and tenant snapshot ends with.
// The structural validation in the decoders catches truncation and
// implausible values, but a flipped bit inside a float payload is a legal
// encoding of different state — only an integrity check can tell. The
// trailer is appended outside the Writer, which Bytes retires.
func seal(w *snapshot.Writer) ([]byte, error) {
	if err := w.Err(); err != nil {
		return nil, err
	}
	payload := w.Bytes()
	var trailer [8]byte
	binary.LittleEndian.PutUint64(trailer[:], uint64(crc32.Checksum(payload, crcTable)))
	return append(payload, trailer[:]...), nil
}

// unseal checks a sealed encoding's crc32c trailer, magic and version, and
// returns a reader positioned after the version together with the version.
// what names the encoding in errors.
func unseal(data []byte, magic, what string, maxVersion uint64) (*snapshot.Reader, uint64, error) {
	if len(data) < 8 {
		return nil, 0, fmt.Errorf("runtime: not a %s", what)
	}
	payload, trailer := data[:len(data)-8], data[len(data)-8:]
	if got, want := binary.LittleEndian.Uint64(trailer), uint64(crc32.Checksum(payload, crcTable)); got != want {
		return nil, 0, fmt.Errorf("runtime: %s checksum mismatch (stored %x, computed %x)", what, got, want)
	}
	r := snapshot.NewReader(payload)
	if m := r.String(); r.Err() != nil || m != magic {
		return nil, 0, fmt.Errorf("runtime: not a %s", what)
	}
	version := r.Uint64()
	if r.Err() != nil || version < 1 || version > maxVersion {
		return nil, 0, fmt.Errorf("runtime: unsupported %s version %d (have %d)", what, version, maxVersion)
	}
	return r, version, nil
}

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms the node serves from.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// tenantHeader is the per-tenant record header both snapshot encodings
// carry, each in its own field order.
type tenantHeader struct {
	name         string
	seedID, kind int64
}

// restoreTenant is the decode half both RestoreNode and ImportTenant share:
// it builds tenant slot ti from spec without running its t0 phase, checks
// the spec builds the recorded kind, and restores the record body. where
// names the record in errors.
func (n *Node) restoreTenant(r *snapshot.Reader, spec TenantSpec, ti int, h tenantHeader, where string) (*tenant, error) {
	if h.kind < tenantKindSingle || h.kind > tenantKindSpatial {
		return nil, fmt.Errorf("runtime: %s kind %d unknown", where, h.kind)
	}
	t, err := n.buildTenant(spec, ti, h.seedID, false)
	if err != nil {
		return nil, err
	}
	if got := t.fab.kind(); got != h.kind {
		return nil, fmt.Errorf("runtime: %s holds a %s tenant, spec builds a %s tenant",
			where, kindName(h.kind), kindName(got))
	}
	if t.events, err = t.fab.importBody(r); err != nil {
		return nil, fmt.Errorf("runtime: %s: %w", where, err)
	}
	t.name = h.name
	t.initialized = true
	return t, nil
}

// RestoreNode rebuilds a node from a Snapshot. specs must describe the same
// tenants as the snapshotting node, one per slot in slot order — including
// slots that were already evicted (their specs are ignored) — with the same
// Initial values, Server config and protocol configuration; a multi-query
// tenant's spec must list one QuerySpec per query slot the tenant ever
// admitted, in admission order (for a node that never saw lifecycle changes
// that is simply the spec list NewNode was given). The snapshot's own seed
// overrides cfg.Seed, so protocol and loss-injection randomness resume at
// their recorded positions no matter what the caller passes.
//
// The restored node continues bit-identically: started (Start skips the t0
// phase for restored tenants) and fed the events after the snapshot
// barrier, its answers and counters match an uninterrupted run at any shard
// count. The current encoding (version 3) is accepted, as are version 2
// (multi-query kind as a bool) and the pre-query-plane version 1.
// Corrupted, truncated or mismatched snapshots return an error; decoding
// never panics.
func RestoreNode(cfg Config, specs []TenantSpec, data []byte) (*Node, error) {
	r, version, err := unseal(data, snapshotMagic, "node snapshot", SnapshotVersion)
	if err != nil {
		return nil, err
	}
	seed := r.Int64()
	nextSeedID := r.Int64()
	ingested := r.Uint64()
	slots := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if slots != len(specs) {
		return nil, fmt.Errorf("runtime: snapshot has %d tenant slots, got %d specs", slots, len(specs))
	}
	if slots <= 0 {
		return nil, fmt.Errorf("runtime: snapshot has no tenant slots")
	}
	cfg.Seed = seed
	n := &Node{cfg: cfg, nextSeedID: nextSeedID}
	n.ingested.Store(ingested)
	for ti := 0; ti < slots; ti++ {
		alive := r.Bool()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if !alive {
			n.tenants = append(n.tenants, nil)
			continue
		}
		// Version 1 predates the query plane: every record is single-query
		// and carries no kind discriminator. Version 2 wrote the kind as a
		// multi-query bool; version 3 widened it to an integer for spatial
		// tenants.
		var h tenantHeader
		switch {
		case version == 2:
			if r.Bool() {
				h.kind = tenantKindMulti
			}
		case version >= 3:
			h.kind = r.Int64()
		}
		h.name = r.String()
		h.seedID = r.Int64()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if h.seedID < 0 || h.seedID >= nextSeedID {
			return nil, fmt.Errorf("runtime: tenant %d seed label %d outside [0,%d)", ti, h.seedID, nextSeedID)
		}
		t, err := n.restoreTenant(r, specs[ti], ti, h, fmt.Sprintf("tenant %d snapshot", ti))
		if err != nil {
			return nil, err
		}
		n.tenants = append(n.tenants, t)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	n.initChannels(cfg.shards())
	return n, nil
}

// TotalEvents returns how many events the node has accepted over its whole
// life — including events for since-evicted tenants, so after a restore it
// is exactly the number of merged-stream events the driver should skip to
// resume where the snapshot was taken, no matter what the tenant set did
// in between. Safe to call concurrently with ingest (atomic read), though a
// meaningful figure wants a barrier first.
func (n *Node) TotalEvents() uint64 { return n.ingested.Load() }
