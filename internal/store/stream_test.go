package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/relation"
)

// recCommits is a Consumer keeping every Commit it receives.
type recCommits struct{ got []*Commit }

func (r *recCommits) Committed(c *Commit) { r.got = append(r.got, c) }

// attachRec attaches a fresh recorder to db, capturing the attach-time image
// into image when it is non-nil.
func attachRec(t *testing.T, db *Database, image io.Writer) *recCommits {
	t.Helper()
	r := &recCommits{}
	if err := db.Attach(r, image); err != nil {
		t.Fatal(err)
	}
	return r
}

// testLogger is a Logger that records appends and checkpoints and fails
// Append while fail is set.
type testLogger struct {
	fail        bool
	appends     int
	checkpoints int
}

func (l *testLogger) Append(batch []Mutation, state func(io.Writer) error) error {
	if l.fail {
		return errors.New("disk full")
	}
	l.appends++
	return nil
}

func (l *testLogger) Checkpoint(state func(io.Writer) error) error {
	l.checkpoints++
	return state(io.Discard)
}

// streamWorkload commits one of every mutation shape against db.
func streamWorkload(t *testing.T, db *Database) {
	t.Helper()
	steps := []func() error{
		func() error { return db.Declare("S", binT) },
		func() error { return db.Insert("R", pair("c", "d"), pair("d", "e")) },
		func() error { return db.Assign("S", relation.MustFromTuples(binT, pair("s", "t"))) },
		func() error {
			tx := db.Begin()
			if err := tx.Insert("R", pair("e", "f")); err != nil {
				return err
			}
			if err := tx.Assign("S", relation.MustFromTuples(binT, pair("u", "v"))); err != nil {
				return err
			}
			return tx.Commit()
		},
		func() error { return db.Insert("S", pair("w", "x")) },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

// describe renders a record's batch as "op name" pairs.
func describe(c *Commit) string {
	var b bytes.Buffer
	for i, m := range c.Batch {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d %s", m.Op, m.Name)
	}
	return b.String()
}

func TestStreamRecordsArriveInCommitOrder(t *testing.T) {
	db := NewDatabase()
	_ = db.Declare("R", binT)
	rec := attachRec(t, db, nil)
	streamWorkload(t, db)
	want := []string{"1 S", "3 R", "2 S", "2 R, 2 S", "3 S"}
	if len(rec.got) != len(want) {
		t.Fatalf("got %d records, want %d", len(rec.got), len(want))
	}
	for i, c := range rec.got {
		if got := describe(c); got != want[i] {
			t.Fatalf("record %d = %q, want %q", i, got, want[i])
		}
		if len(c.Writes) != len(c.Batch) {
			t.Fatalf("record %d has %d writes for %d mutations", i, len(c.Writes), len(c.Batch))
		}
		for j, w := range c.Writes {
			if w.Rel == nil {
				t.Fatalf("record %d write %d = %+v does not publish mutation %q", i, j, w, c.Batch[j].Name)
			}
		}
	}
	// The last record carries the values the store now publishes.
	last := rec.got[len(rec.got)-1].Writes[0]
	if cur, _ := db.Get("S"); cur != last.Rel {
		t.Fatal("the record's published value is not the store's current value")
	}
}

func TestStreamFailedAppendDeliversAndPublishesNothing(t *testing.T) {
	db := NewDatabase()
	_ = db.Declare("R", binT)
	_ = db.Insert("R", pair("a", "b"))
	log := &testLogger{fail: true}
	db.SetLogger(log)
	rec := attachRec(t, db, nil)
	before, _ := db.Get("R")

	if err := db.Insert("R", pair("b", "c")); err == nil {
		t.Fatal("Insert succeeded with a failing logger")
	}
	if err := db.Assign("R", relation.New(binT)); err == nil {
		t.Fatal("Assign succeeded with a failing logger")
	}
	if err := db.Declare("S", binT); err == nil {
		t.Fatal("Declare succeeded with a failing logger")
	}
	tx := db.Begin()
	_ = tx.Insert("R", pair("c", "d"))
	if err := tx.Commit(); err == nil {
		t.Fatal("Tx.Commit succeeded with a failing logger")
	}
	if len(rec.got) != 0 {
		t.Fatalf("failed commits delivered %d records", len(rec.got))
	}
	if cur, _ := db.Get("R"); cur != before {
		t.Fatal("a failed commit published a new value")
	}
	if _, ok := db.Type("S"); ok {
		t.Fatal("a failed Declare declared the variable")
	}
	// Once the logger recovers, the same commit goes through and is delivered.
	log.fail = false
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(rec.got) != 1 || log.appends != 1 {
		t.Fatalf("after recovery: %d records, %d appends, want 1 and 1", len(rec.got), log.appends)
	}
}

// replay applies a record's batch to db the way a follower would.
func replay(t *testing.T, db *Database, c *Commit) {
	t.Helper()
	for _, m := range c.Batch {
		var err error
		switch m.Op {
		case OpDeclare:
			err = db.Declare(m.Name, m.Type)
		case OpAssign:
			err = db.Assign(m.Name, m.Rel)
		case OpInsert:
			err = db.Insert(m.Name, m.Tuples...)
		}
		if err != nil {
			t.Fatalf("replaying %s: %v", describe(c), err)
		}
	}
}

func TestStreamImagePlusRecordsReproduceStore(t *testing.T) {
	db := NewDatabase()
	_ = db.Declare("R", binT)
	_ = db.Insert("R", pair("a", "b"))
	var image bytes.Buffer
	rec := attachRec(t, db, &image)
	streamWorkload(t, db)

	follower, err := Load(&image)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rec.got {
		replay(t, follower, c)
	}
	var want, got bytes.Buffer
	if err := db.Save(&want); err != nil {
		t.Fatal(err)
	}
	if err := follower.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("attach image plus records does not reproduce the store")
	}
}

func TestStreamReplaceMovesConsumersAndResets(t *testing.T) {
	db := NewDatabase()
	_ = db.Declare("R", binT)
	log := &testLogger{}
	db.SetLogger(log)
	a, b := attachRec(t, db, nil), attachRec(t, db, nil)

	next := NewDatabase()
	_ = next.Declare("N", binT)
	if err := db.ReplaceWith(next); err != nil {
		t.Fatal(err)
	}
	if log.checkpoints != 1 {
		t.Fatalf("replacement cut %d checkpoints, want 1", log.checkpoints)
	}
	for _, r := range []*recCommits{a, b} {
		if len(r.got) != 1 || r.got[0].Replaced != next || len(r.got[0].Batch) != 0 {
			t.Fatalf("consumer got %d records, want one reset naming the replacement", len(r.got))
		}
	}

	// The stream now runs off the replacement: its commits are logged and
	// delivered, the replaced store's are neither.
	if err := db.Insert("R", pair("old", "store")); err != nil {
		t.Fatal(err)
	}
	if err := next.Insert("N", pair("new", "store")); err != nil {
		t.Fatal(err)
	}
	if log.appends != 1 || len(a.got) != 2 || len(b.got) != 2 || describe(a.got[1]) != "3 N" {
		t.Fatalf("after the swap: %d appends, %d and %d records", log.appends, len(a.got), len(b.got))
	}

	// Detach and Attach through the replaced store follow the stream.
	db.Detach(a)
	late := attachRec(t, db, nil)
	if err := next.Insert("N", pair("n2", "n3")); err != nil {
		t.Fatal(err)
	}
	if len(a.got) != 2 || len(b.got) != 3 || len(late.got) != 1 {
		t.Fatalf("after detach/attach via the replaced store: %d, %d, %d records", len(a.got), len(b.got), len(late.got))
	}
}
