package store

import (
	"fmt"
	"testing"

	"repro/internal/relation"
)

// recObserver is a Consumer recording every delivered write in order, as
// "grow <name> +<tuples>" or "reset <name>".
type recObserver struct {
	events []string
	nexts  []*relation.Relation
}

func (o *recObserver) Committed(c *Commit) {
	for i, w := range c.Writes {
		name := c.Batch[i].Name
		if w.Grow != nil {
			o.events = append(o.events, fmt.Sprintf("grow %s +%d", name, len(w.Grow)))
		} else {
			o.events = append(o.events, "reset "+name)
		}
		o.nexts = append(o.nexts, w.Rel)
	}
}

// observe attaches a fresh recorder to db.
func observe(t *testing.T, db *Database) *recObserver {
	t.Helper()
	obs := &recObserver{}
	if err := db.Attach(obs, nil); err != nil {
		t.Fatal(err)
	}
	return obs
}

func TestObserverInsertGrow(t *testing.T) {
	db := NewDatabase()
	_ = db.Declare("R", binT)
	obs := observe(t, db)
	if err := db.Insert("R", pair("a", "b"), pair("b", "c")); err != nil {
		t.Fatal(err)
	}
	if len(obs.events) != 1 || obs.events[0] != "grow R +2" {
		t.Fatalf("events = %v, want [grow R +2]", obs.events)
	}
	// The published pointer the observer saw is the store's current value.
	cur, _ := db.Get("R")
	if obs.nexts[0] != cur {
		t.Fatal("observer saw a different pointer than the published relation")
	}
	// An empty insert publishes nothing and must not notify.
	if err := db.Insert("R"); err != nil {
		t.Fatal(err)
	}
	if len(obs.events) != 1 {
		t.Fatalf("empty insert notified: %v", obs.events)
	}
}

func TestObserverAssignAndDeclareReset(t *testing.T) {
	db := NewDatabase()
	obs := observe(t, db)
	_ = db.Declare("R", binT)
	if err := db.Assign("R", relation.MustFromTuples(binT, pair("a", "b"))); err != nil {
		t.Fatal(err)
	}
	want := []string{"reset R", "reset R"}
	if len(obs.events) != 2 || obs.events[0] != want[0] || obs.events[1] != want[1] {
		t.Fatalf("events = %v, want %v", obs.events, want)
	}
}

func TestObserverTxInsertOnlyIsGrow(t *testing.T) {
	db := NewDatabase()
	_ = db.Declare("R", binT)
	_ = db.Insert("R", pair("a", "b"))
	obs := observe(t, db)

	tx := db.Begin()
	if err := tx.Insert("R", pair("b", "c")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("R", pair("c", "d")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(obs.events) != 1 || obs.events[0] != "grow R +2" {
		t.Fatalf("events = %v, want [grow R +2]", obs.events)
	}
}

func TestObserverTxOverwriteIsReset(t *testing.T) {
	db := NewDatabase()
	_ = db.Declare("R", binT)
	_ = db.Insert("R", pair("a", "b"))
	obs := observe(t, db)

	// Assign inside the transaction: even with a later insert, the commit is
	// a reset — the write is not expressible as a pure growth delta.
	tx := db.Begin()
	if err := tx.Assign("R", relation.MustFromTuples(binT, pair("x", "y"))); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("R", pair("y", "z")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(obs.events) != 1 || obs.events[0] != "reset R" {
		t.Fatalf("events = %v, want [reset R]", obs.events)
	}
}

func TestObserverTxInsertOverStaleBaseIsReset(t *testing.T) {
	db := NewDatabase()
	_ = db.Declare("R", binT)
	obs := observe(t, db)

	// A concurrent writer moves R between Begin and Commit: the transaction's
	// inserts were validated against a superseded base, so the commit must
	// surface as a reset, not a growth delta over the current value.
	tx := db.Begin()
	if err := tx.Insert("R", pair("b", "c")); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("R", pair("a", "b")); err != nil {
		t.Fatal(err)
	}
	obs.events = nil
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(obs.events) != 1 || obs.events[0] != "reset R" {
		t.Fatalf("events = %v, want [reset R]", obs.events)
	}
}

func TestNameOf(t *testing.T) {
	db := NewDatabase()
	_ = db.Declare("R", binT)
	_ = db.Declare("S", binT)
	_ = db.Insert("R", pair("a", "b"))
	cur, _ := db.Get("R")
	if name, ok := db.NameOf(cur); !ok || name != "R" {
		t.Fatalf("NameOf(current R) = %q, %v", name, ok)
	}
	// A stale pointer (pre-mutation value) is no longer any variable's value.
	if err := db.Insert("R", pair("b", "c")); err != nil {
		t.Fatal(err)
	}
	if name, ok := db.NameOf(cur); ok {
		t.Fatalf("NameOf(stale pointer) = %q, want miss", name)
	}
	if _, ok := db.NameOf(relation.New(binT)); ok {
		t.Fatal("NameOf(foreign relation) should miss")
	}
}

func TestReadLockedSeesPublishedState(t *testing.T) {
	db := NewDatabase()
	_ = db.Declare("R", binT)
	_ = db.Insert("R", pair("a", "b"))
	cur, _ := db.Get("R")
	called := false
	db.ReadLocked(func(get func(string) (*relation.Relation, bool)) {
		called = true
		if r, ok := get("R"); !ok || r != cur {
			t.Error("ReadLocked get does not see the published pointer")
		}
		if _, ok := get("nope"); ok {
			t.Error("ReadLocked get invented a variable")
		}
	})
	if !called {
		t.Fatal("ReadLocked never invoked the callback")
	}
}
