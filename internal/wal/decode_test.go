package wal

import (
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/value"
)

// TestDecodeBatchBoundsAllocation decodes a 10-byte payload whose tuple block
// claims 1<<29 tuples: the decoder must refuse it without sizing anything by
// the claimed count (which would be a 12 GiB tuple slice).
func TestDecodeBatchBoundsAllocation(t *testing.T) {
	payload := []byte{1, byte(store.OpInsert), 1, 'R', 1}
	payload = binary.AppendUvarint(payload, 1<<29)
	if len(payload) != 10 {
		t.Fatalf("payload is %d bytes, want 10", len(payload))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeBatch(payload)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("DecodeBatch accepted a tuple count far beyond its payload")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("DecodeBatch allocated %d bytes for a 10-byte payload", grew)
	}
}

// TestDecodeBatchNullaryBlock round-trips the tuple block of a relation with
// no attributes: the empty tuple encodes in no bytes, so the block is arity 0
// with one tuple. A block claiming more tuples at arity 0 is corrupt.
func TestDecodeBatchNullaryBlock(t *testing.T) {
	p, err := EncodeBatch([]store.Mutation{{Op: store.OpInsert, Name: "Flag", Tuples: []value.Tuple{{}}}})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := DecodeBatch(p)
	if err != nil {
		t.Fatalf("DecodeBatch refused the empty tuple: %v", err)
	}
	if len(batch) != 1 || batch[0].Name != "Flag" || len(batch[0].Tuples) != 1 || len(batch[0].Tuples[0]) != 0 {
		t.Fatalf("decoded %+v, want one insert of the empty tuple into Flag", batch)
	}
	two := []byte{1, byte(store.OpInsert), 4, 'F', 'l', 'a', 'g', 0, 2}
	if _, err := DecodeBatch(two); err == nil {
		t.Fatal("DecodeBatch accepted two tuples at arity 0")
	}
}

// FuzzDecodeBatch feeds arbitrary payloads to the replication and recovery
// decoder: it may reject them, but must never panic, and what it accepts can
// hold no more mutations or tuples than the payload has bytes. Hand-written
// hostile seeds live in testdata/fuzz/FuzzDecodeBatch.
func FuzzDecodeBatch(f *testing.F) {
	rel := relation.MustFromTuples(pairType("edge"), tup("a", "b"), tup("b", "c"))
	for _, batch := range [][]store.Mutation{
		{{Op: store.OpDeclare, Name: "Edge", Type: pairType("edge")}},
		{{Op: store.OpInsert, Name: "Edge", Tuples: []value.Tuple{tup("x", "y")}}},
		{{Op: store.OpAssign, Name: "Edge", Rel: rel}, {Op: store.OpAssign, Name: "Link", Rel: relation.New(pairType("link"))}},
		{{Op: store.OpInsert, Name: "Flag", Tuples: []value.Tuple{{}}}},
	} {
		p, err := EncodeBatch(batch)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		batch, err := DecodeBatch(payload)
		if err != nil {
			return
		}
		if len(batch) > len(payload) {
			t.Fatalf("decoded %d mutations from %d bytes", len(batch), len(payload))
		}
		for _, m := range batch {
			if n := len(m.Tuples); n > len(payload) {
				t.Fatalf("decoded %d tuples from %d bytes", n, len(payload))
			}
		}
	})
}
