package store

// The storage-engine split: Database owns semantics (guarded assignment,
// the commit stream, transactions, access paths)
// and delegates the physical binding of variable names to relation values to
// a pluggable Engine. The memory engine below keeps everything resident —
// byte-for-byte the pre-split behavior — while internal/pagestore implements
// the same contract over heap-file pages behind a buffer pool.

import (
	"io"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// Engine is a pluggable storage backend for the Database's variable
// bindings. The Database owns all synchronization: every Engine method is
// called with db.mu held (write-held for Declare/Publish/PublishDelta, at
// least read-held for the rest), so a purely in-memory implementation needs
// no internal locking, while an implementation that mutates internal state
// on reads (a buffer pool faulting pages in) must add its own.
//
// Published relation values remain immutable under every engine: Publish and
// PublishDelta install a fresh pointer and the engine must hand exactly that
// pointer back from Get until the next publication, so pointer-identity
// invariants (access-path keys, the matview cache, NameOf) keep holding.
type Engine interface {
	// EngineName identifies the implementation ("memory", "paged") for
	// health reporting.
	EngineName() string
	// Declare creates a variable of the given type bound to an empty
	// relation. The Database has already validated the type and rejected
	// duplicates.
	Declare(name string, typ schema.RelationType)
	// Get returns the current published value of a variable, faulting it in
	// from secondary storage if necessary. An error reports an I/O or
	// corruption failure (never "not declared"); ok reports declaration.
	Get(name string) (*relation.Relation, bool, error)
	// Cached returns the variable's published value only if it is resident
	// in memory right now — no I/O. Used where the pointer is wanted
	// opportunistically (dropping access paths) and a miss is acceptable.
	Cached(name string) (*relation.Relation, bool)
	// Type returns the declared type of a variable.
	Type(name string) (schema.RelationType, bool)
	// Names returns the declared variable names in no particular order.
	Names() []string
	// Current returns the variable whose current published value is rel
	// (pointer identity), without materializing anything.
	Current(rel *relation.Relation) (string, bool)
	// Publish replaces a variable's value wholesale (Assign, Tx overwrite).
	// It must not fail logically: the mutation is already logged. An engine
	// that hits an I/O failure keeps the state in memory and surfaces the
	// problem through its own health reporting.
	Publish(name string, rel *relation.Relation)
	// PublishDelta publishes growth: next is exactly the previous published
	// value plus tuples, so an engine can append rather than rewrite.
	PublishDelta(name string, tuples []value.Tuple, next *relation.Relation)
	// SetReleaseHook registers fn to be called whenever the engine drops a
	// previously handed-out published relation from memory (residency
	// eviction). The Database uses it to discard access paths built over the
	// evicted value. fn must be callable from inside any Engine method.
	SetReleaseHook(fn func(old *relation.Relation))
	// Close releases engine resources (file handles). The Database does not
	// call it; the owner of the engine does.
	Close() error
}

// CheckpointWriter is implemented by engines whose checkpoint format is not
// the logical Save image — the paged engine writes a page manifest and
// flushes only dirty pages, making checkpoint cost O(dirty), not
// O(database). The Database routes WAL checkpoint state through it when
// present; Attach images for replication always use Save.
type CheckpointWriter interface {
	WriteCheckpoint(w io.Writer) error
}

// memEngine is the fully resident engine: two maps, exactly the storage the
// Database embedded before the split. No internal locking — db.mu covers it.
type memEngine struct {
	vars map[string]*relation.Relation
	typs map[string]schema.RelationType
}

// NewMemoryEngine returns the fully resident storage engine (the default).
func NewMemoryEngine() Engine {
	return &memEngine{
		vars: make(map[string]*relation.Relation),
		typs: make(map[string]schema.RelationType),
	}
}

func (e *memEngine) EngineName() string { return "memory" }

func (e *memEngine) Declare(name string, typ schema.RelationType) {
	e.vars[name] = relation.New(typ)
	e.typs[name] = typ
}

func (e *memEngine) Get(name string) (*relation.Relation, bool, error) {
	r, ok := e.vars[name]
	return r, ok, nil
}

func (e *memEngine) Cached(name string) (*relation.Relation, bool) {
	r, ok := e.vars[name]
	return r, ok
}

func (e *memEngine) Type(name string) (schema.RelationType, bool) {
	t, ok := e.typs[name]
	return t, ok
}

func (e *memEngine) Names() []string {
	out := make([]string, 0, len(e.vars))
	for n := range e.vars {
		out = append(out, n)
	}
	return out
}

func (e *memEngine) Current(rel *relation.Relation) (string, bool) {
	for n, r := range e.vars {
		if r == rel {
			return n, true
		}
	}
	return "", false
}

func (e *memEngine) Publish(name string, rel *relation.Relation) {
	e.vars[name] = rel
}

func (e *memEngine) PublishDelta(name string, tuples []value.Tuple, next *relation.Relation) {
	e.vars[name] = next
}

func (e *memEngine) SetReleaseHook(func(old *relation.Relation)) {
	// The memory engine never drops a published value.
}

func (e *memEngine) Close() error { return nil }
