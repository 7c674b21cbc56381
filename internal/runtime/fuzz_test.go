package runtime

import (
	"context"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// fuzzSpecs is the fixed tenant configuration every fuzz input is decoded
// against: small, heterogeneous (FT-NRP with random selection, RTP, a
// multi-query composite tenant and an RTP2D spatial tenant), so cluster,
// spatial-cluster and composite fabric state, protocol state and RNG
// positions all appear in the encoding.
func fuzzSpecs() []TenantSpec {
	return append(testSpecs(2, 10), qpSpec("fz-mq", 3, 10, 5), spatialSpec("fz-sp", 10, 8))
}

// validFuzzSnapshot produces a pristine snapshot of a short run, used both
// as the seed input and as the baseline the fuzzer mutates.
func validFuzzSnapshot(tb testing.TB) []byte {
	specs := fuzzSpecs()
	node, err := NewNode(Config{Shards: 2, Seed: 21}, specs)
	if err != nil {
		tb.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		tb.Fatal(err)
	}
	defer node.Stop()
	if err := node.Ingest(pinEvents(specs, 40, 17)); err != nil {
		tb.Fatal(err)
	}
	snap, err := node.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	return snap
}

// FuzzRestoreNode pins the decode contract of ISSUE 4: RestoreNode must
// reject corrupted or truncated snapshots with an error — it must never
// panic, hang, or allocate unboundedly — and anything it does accept must
// yield a node that can start, serve events and snapshot again.
func FuzzRestoreNode(f *testing.F) {
	valid := validFuzzSnapshot(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-8]) // payload without its checksum trailer
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:7])
	f.Add([]byte{})
	for i := 0; i < len(valid); i += 101 {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0x5A
		f.Add(mut)
	}
	// tryRestore asserts the contract on one input: either a clean error,
	// or a node that can serve — start, answer, ingest, drain, re-snapshot
	// — so latent decode corruption cannot hide until first use.
	tryRestore := func(t *testing.T, data []byte) {
		node, err := RestoreNode(Config{Shards: 2}, fuzzSpecs(), data)
		if err != nil {
			return // rejected cleanly: exactly the contract
		}
		if err := node.Start(context.Background()); err != nil {
			t.Fatalf("restored node failed to start: %v", err)
		}
		defer node.Stop()
		for ti := 0; ti < node.NumTenants(); ti++ {
			if !node.Alive(ti) {
				continue
			}
			readAnswers(node, ti)
			if err := node.Ingest([]Event{{Tenant: ti, Stream: 0, Value: 500}}); err != nil {
				t.Fatalf("restored node refused an event for live tenant %d: %v", ti, err)
			}
		}
		if err := node.Drain(); err != nil {
			t.Fatalf("restored node failed to drain: %v", err)
		}
		if _, err := node.Snapshot(); err != nil {
			t.Fatalf("restored node failed to re-snapshot: %v", err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Raw path: arbitrary bytes mostly die on the checksum trailer.
		tryRestore(t, data)
		// Decoder path: the input as a payload behind a valid checksum.
		tryRestore(t, withChecksum(data))
	})
}

// readAnswers reads live tenant ti's answer set(s) and counter, so latent
// decode corruption in them surfaces as a panic under the fuzzer.
func readAnswers(node *Node, ti int) {
	if node.MultiQuery(ti) {
		for qi := 0; qi < node.NumQueries(ti); qi++ {
			if node.QueryAlive(ti, qi) {
				_ = node.QueryAnswer(ti, qi)
			}
		}
	} else {
		_ = node.Answer(ti)
	}
	_ = node.Counter(ti)
}

// withChecksum treats data as a payload and appends a valid crc32c
// trailer, so fuzz mutations reach the structural decoders behind the
// integrity check.
func withChecksum(data []byte) []byte {
	fixed := make([]byte, len(data)+8)
	copy(fixed, data)
	sum := crc32.Checksum(data, crcTable)
	binary.LittleEndian.PutUint64(fixed[len(data):], uint64(sum))
	return fixed
}

// validTenantRecords exports one record per fuzzSpecs tenant after a short
// run in which the composite tenant lost a query.
func validTenantRecords(tb testing.TB) [][]byte {
	specs := fuzzSpecs()
	node, err := NewNode(Config{Shards: 2, Seed: 21}, specs)
	if err != nil {
		tb.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		tb.Fatal(err)
	}
	defer node.Stop()
	if err := node.Ingest(pinEvents(specs, 40, 19)); err != nil {
		tb.Fatal(err)
	}
	if err := node.RemoveQuery(2, 0); err != nil {
		tb.Fatal(err)
	}
	recs := make([][]byte, len(specs))
	for ti := range specs {
		if recs[ti], err = node.ExportTenant(ti); err != nil {
			tb.Fatal(err)
		}
	}
	return recs
}

// FuzzImportTenant pins ImportTenant's decode contract: a rejected record
// returns an error and leaves the node unchanged and serving; an accepted
// one yields a tenant that answers, ingests, drains and re-exports. Each
// input is decoded against the fuzzSpecs entry its spec byte selects.
func FuzzImportTenant(f *testing.F) {
	for ti, rec := range validTenantRecords(f) {
		f.Add(uint8(ti), rec)
		f.Add(uint8(ti), rec[:len(rec)-8])
		f.Add(uint8(ti), rec[:len(rec)/2])
		for i := 0; i < len(rec); i += 67 {
			mut := append([]byte(nil), rec...)
			mut[i] ^= 0x5A
			f.Add(uint8(ti), mut)
		}
	}
	f.Add(uint8(0), []byte{})
	tryImport := func(t *testing.T, spec TenantSpec, data []byte) {
		// The resident tenant's seed label cannot collide with a record's.
		node, err := NewNodeLabeled(Config{Shards: 1, Seed: 21}, testSpecs(1, 8), []int64{1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		defer node.Stop()
		ti, err := node.ImportTenant(spec, data)
		if err != nil {
			if got := node.NumTenants(); got != 1 {
				t.Fatalf("rejected record changed NumTenants to %d", got)
			}
			if err := node.Ingest([]Event{{Tenant: 0, Stream: 0, Value: 500}}); err != nil {
				t.Fatalf("node stopped serving after a rejected record: %v", err)
			}
			if err := node.Drain(); err != nil {
				t.Fatalf("node failed to drain after a rejected record: %v", err)
			}
			return
		}
		readAnswers(node, ti)
		if err := node.Ingest([]Event{{Tenant: ti, Stream: 0, Value: 500}}); err != nil {
			t.Fatalf("imported tenant refused an event: %v", err)
		}
		if err := node.Drain(); err != nil {
			t.Fatalf("node failed to drain after an import: %v", err)
		}
		if _, err := node.ExportTenant(ti); err != nil {
			t.Fatalf("imported tenant failed to re-export: %v", err)
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		specs := fuzzSpecs()
		spec := specs[int(which)%len(specs)]
		tryImport(t, spec, data)
		tryImport(t, spec, withChecksum(data))
	})
}
