package store

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

var binT = schema.RelationType{Name: "bin",
	Element: schema.RecordType{Attrs: []schema.Attribute{
		{Name: "a", Type: schema.StringType()},
		{Name: "b", Type: schema.StringType()},
	}}}

var keyedT = schema.RelationType{Name: "keyed",
	Element: schema.RecordType{Attrs: []schema.Attribute{
		{Name: "id", Type: schema.IntType()},
		{Name: "v", Type: schema.StringType()},
	}}, Key: []string{"id"}}

func pair(a, b string) value.Tuple { return value.NewTuple(value.Str(a), value.Str(b)) }

func TestDeclareAssignGet(t *testing.T) {
	db := NewDatabase()
	if err := db.Declare("R", binT); err != nil {
		t.Fatal(err)
	}
	if err := db.Declare("R", binT); err == nil {
		t.Error("duplicate declare must fail")
	}
	rex := relation.MustFromTuples(binT, pair("a", "b"))
	if err := db.Assign("R", rex); err != nil {
		t.Fatal(err)
	}
	got, ok := db.Get("R")
	if !ok || got.Len() != 1 {
		t.Error("get after assign failed")
	}
	if err := db.Assign("Nope", rex); err == nil {
		t.Error("assign to undeclared must fail")
	}
}

func TestGuardedAssignmentAtomicity(t *testing.T) {
	db := NewDatabase()
	_ = db.Declare("R", binT)
	_ = db.Assign("R", relation.MustFromTuples(binT, pair("keep", "me")))
	guard := Guard{Name: "onlyx", Pred: func(t value.Tuple) (bool, error) {
		return t[0] == value.Str("x"), nil
	}}
	bad := relation.MustFromTuples(binT, pair("x", "1"), pair("y", "2"))
	err := db.Assign("R", bad, guard)
	var gv *GuardViolationError
	if err == nil {
		t.Fatal("guard must reject")
	}
	if g, ok := err.(*GuardViolationError); ok {
		gv = g
	} else {
		t.Fatalf("expected GuardViolationError, got %T", err)
	}
	if gv.Guard != "onlyx" {
		t.Errorf("violation names guard %q", gv.Guard)
	}
	got, _ := db.Get("R")
	if got.Len() != 1 || !got.Contains(pair("keep", "me")) {
		t.Error("failed assignment must leave the old value")
	}
	if err := db.Assign("R", relation.MustFromTuples(binT, pair("x", "1")), guard); err != nil {
		t.Errorf("conforming assignment rejected: %v", err)
	}
}

func TestKeyConstraintOnAssign(t *testing.T) {
	db := NewDatabase()
	_ = db.Declare("K", keyedT)
	// Source relation with whole-tuple semantics can hold key duplicates.
	src := relation.MustFromTuples(
		schema.RelationType{Element: keyedT.Element},
		value.NewTuple(value.Int(1), value.Str("a")),
		value.NewTuple(value.Int(1), value.Str("b")))
	if err := db.Assign("K", src); err == nil {
		t.Error("key conflict on assignment must fail")
	}
}

func TestTransactions(t *testing.T) {
	db := NewDatabase()
	_ = db.Declare("R", binT)
	_ = db.Assign("R", relation.MustFromTuples(binT, pair("a", "b")))

	tx := db.Begin()
	if err := tx.Insert("R", pair("c", "d")); err != nil {
		t.Fatal(err)
	}
	inTx, _ := tx.Get("R")
	if inTx.Len() != 2 {
		t.Error("transaction must see its own writes")
	}
	outside, _ := db.Get("R")
	if outside.Len() != 1 {
		t.Error("uncommitted writes must be invisible")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	after, _ := db.Get("R")
	if after.Len() != 2 {
		t.Error("commit must publish")
	}
	if err := tx.Commit(); err == nil {
		t.Error("double commit must fail")
	}

	tx2 := db.Begin()
	_ = tx2.Insert("R", pair("e", "f"))
	tx2.Rollback()
	final, _ := db.Get("R")
	if final.Len() != 2 {
		t.Error("rollback must discard")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := NewDatabase()
	_ = db.Declare("R", binT)
	_ = db.Declare("K", keyedT)
	subT := schema.RelationType{Name: "sub",
		Element: schema.RecordType{Attrs: []schema.Attribute{
			{Name: "n", Type: schema.RangeType("small", 1, 9)},
		}}, Key: []string{"n"}}
	_ = db.Declare("S", subT)
	_ = db.Insert("R", pair("a", "b"), pair("c", "d"))
	_ = db.Insert("K", value.NewTuple(value.Int(7), value.Str("x")))
	_ = db.Insert("S", value.NewTuple(value.Int(3)))

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"R", "K", "S"} {
		a, _ := db.Get(name)
		b, ok := db2.Get(name)
		if !ok || !a.Equal(b) {
			t.Errorf("%s: round trip mismatch", name)
		}
		ta, _ := db.Type(name)
		tb, _ := db2.Type(name)
		if ta.String() != tb.String() {
			t.Errorf("%s: type %s != %s", name, ta, tb)
		}
	}
	// Subrange bounds survive: out-of-range insert still fails after load.
	if err := db2.Insert("S", value.NewTuple(value.Int(10))); err == nil {
		t.Error("subrange must survive the round trip")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a store")); err == nil {
		t.Error("garbage input must fail")
	}
}

// TestLoadBoundsAllocation loads a 15-byte image whose first variable name
// claims 1<<29 bytes. Read from memory, as a replica reads its bootstrap
// image, it must be refused without allocating the claimed length.
func TestLoadBoundsAllocation(t *testing.T) {
	img := append([]byte(magic), version)
	img = binary.AppendUvarint(img, 1)
	img = binary.AppendUvarint(img, 1<<29)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Load(bytes.NewReader(img))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Load accepted a name longer than its image")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("Load allocated %d bytes for a %d-byte image", grew, len(img))
	}
}

// TestLoadNullaryRelation round-trips a relation with no attributes holding
// the empty tuple, stored last so its tuple ends the image with no bytes, and
// refuses an in-memory image claiming more than that one tuple: each would
// read zero bytes, so the count alone must be bounded.
func TestLoadNullaryRelation(t *testing.T) {
	flagT := schema.RelationType{Name: "flag"}
	db := NewDatabase()
	if err := db.Declare("Flag", flagT); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("Flag", value.Tuple{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	db2, err := Load(bytes.NewReader(img))
	if err != nil {
		t.Fatalf("Load refused the empty tuple: %v", err)
	}
	if r, _ := db2.Get("Flag"); r.Len() != 1 {
		t.Fatalf("Flag loaded with %d tuples, want 1", r.Len())
	}

	// The image ends in the tuple count 1; claim 1<<63 instead.
	hostile := binary.AppendUvarint(append([]byte(nil), img[:len(img)-1]...), 1<<63)
	if _, err := Load(bytes.NewReader(hostile)); err == nil {
		t.Fatal("Load accepted 1<<63 tuples of a relation with no attributes")
	}
}
