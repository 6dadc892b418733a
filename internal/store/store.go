// Package store implements the database-variable layer of the DBPL
// environment: named, typed relation variables with the paper's guarded
// assignment semantics (section 2.2–2.3), snapshot transactions, and binary
// persistence.
//
// Assignment to a relation variable re-checks the key constraint (the
// run-time test of section 2.2) and any selector guards: the paper defines
// assignment through a selected relation variable, Infront[refint] := rex,
// to be equivalent to
//
//	IF ALL x IN rex (pred(x)) THEN Infront := rex ELSE <exception>
package store

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"

	"repro/internal/accesspath"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// Op identifies one kind of logged mutation.
type Op byte

// The logged mutation kinds.
const (
	// OpDeclare introduces a variable (module DDL or programmatic Declare).
	OpDeclare Op = 1
	// OpAssign replaces a variable's value wholesale (assignment statements,
	// programmatic Assign, and each variable written by a committed Tx).
	OpAssign Op = 2
	// OpInsert adds tuples to a variable.
	OpInsert Op = 3
)

// Mutation is one committed state change, as handed to the Logger and, inside
// a Commit, to every Consumer.
type Mutation struct {
	Op     Op
	Name   string
	Type   schema.RelationType // OpDeclare
	Rel    *relation.Relation  // OpAssign: the full new value
	Tuples []value.Tuple       // OpInsert
}

// Logger receives every committed batch before it is published (write-ahead).
// state serializes the pre-batch published state, so the logger can cut a
// snapshot checkpoint at exactly the log position it is appending to.
//
// Every mutation path (Declare, Assign, Insert, Tx.Commit) commits through one
// step that holds the database's write lock from start to end, and that step
// is the single ordering and error contract of the store's commit stream:
//
//  1. the Logger appends the batch — the only step that can fail, and its
//     error aborts the mutation with nothing published and nothing delivered;
//  2. the batch is published and access paths over replaced values dropped;
//  3. each attached Consumer receives one Commit, in attachment order.
//
// Consumers therefore see records in exactly the order the logger logged
// them. Neither a Logger nor a Consumer may call back into the Database: the
// store lock is always acquired before any lock of theirs.
type Logger interface {
	Append(batch []Mutation, state func(io.Writer) error) error
	Checkpoint(state func(io.Writer) error) error
}

// Commit is one committed batch as handed to consumers.
type Commit struct {
	// Batch is the mutation batch the logger accepted.
	Batch []Mutation
	// Writes is the publication of each mutation: Writes[i] is the value
	// Batch[i] published.
	Writes []Write
	// Replaced is set, with Batch and Writes empty, when ReplaceWith handed
	// the stream to a replacement store: every variable may have changed,
	// and every later record comes from Replaced.
	Replaced *Database
}

// Write is the published result of one mutation; the variable it wrote is
// the mutation's Name.
type Write struct {
	// Rel is the variable's new published value.
	Rel *relation.Relation
	// Grow holds the inserted tuples when Rel is exactly the previous
	// published value plus them (Insert, and insert-only Tx writes whose base
	// was not overtaken). nil means reset — an overwrite, a shrink, a fresh
	// declaration — for which the only safe reaction is invalidation.
	Grow []value.Tuple
}

// Consumer receives every Commit after it is logged and published, under the
// contract documented on Logger. The materialized-view cache and replication feeds
// implement it. Committed runs with the database's write lock held, so it
// must be fast and must not call back into the Database.
type Consumer interface {
	Committed(c *Commit)
}

// Guard is a tuple predicate enforced on assignment (a selector's predicate
// with its parameters instantiated).
type Guard struct {
	Name string
	Pred func(value.Tuple) (bool, error)
}

// GuardViolationError reports a tuple rejected by a selector guard.
type GuardViolationError struct {
	Variable string
	Guard    string
	Tuple    value.Tuple
}

// Error implements error.
func (e *GuardViolationError) Error() string {
	return fmt.Sprintf("store: assignment to %s[%s] rejected: tuple %s violates the selector predicate",
		e.Variable, e.Guard, e.Tuple)
}

// maxCachedPaths bounds the physical access-path cache; beyond it, arbitrary
// entries are evicted (the cache is a performance aid, never a correctness
// dependency).
const maxCachedPaths = 64

// pathKey identifies one physical access path: a published relation value
// partitioned on one attribute position. Because published relations are
// immutable (writers replace, never mutate), the pointer is a sound identity:
// any write that changes a variable's value swaps in a new pointer, which
// simply never matches the stale cache entries (copy-on-write invalidation).
type pathKey struct {
	rel *relation.Relation
	pos int
}

// Database is a set of named, typed relation variables.
type Database struct {
	mu sync.RWMutex
	// engine binds variable names to relation values (see Engine); the
	// default is the fully resident memory engine.
	engine Engine
	// logger and consumers are the commit stream (see commitLocked);
	// ReplaceWith moves both to the replacing database and records it as
	// successor.
	logger    Logger
	consumers []Consumer
	successor *Database

	// pathMu guards the lazily built physical access paths (section 4's
	// "physical access path ... partitions [the relation] according to the
	// different constant values"), keyed by published relation pointer and
	// attribute position.
	pathMu sync.Mutex
	paths  map[pathKey]*accesspath.Physical
	// parallelism bounds the worker fan-out of physical path builds
	// (SetParallelism); 0 or 1 builds serially.
	parallelism int
}

// SetParallelism sets the worker fan-out for physical access-path builds.
// Call before sharing the database across goroutines (session Open does).
func (db *Database) SetParallelism(n int) { db.parallelism = n }

// NewDatabase returns an empty database on the memory engine.
func NewDatabase() *Database {
	return NewDatabaseWith(NewMemoryEngine())
}

// NewDatabaseWith returns an empty database bound to the given storage
// engine. The database registers its access-path invalidation as the
// engine's release hook, so paths built over a relation the engine later
// evicts from memory are dropped with it.
func NewDatabaseWith(engine Engine) *Database {
	db := &Database{
		engine: engine,
		paths:  make(map[pathKey]*accesspath.Physical),
	}
	engine.SetReleaseHook(db.dropPaths)
	return db
}

// EngineName identifies the storage engine backing the database.
func (db *Database) EngineName() string { return db.engine.EngineName() }

// Declare introduces a variable of the given type, initialized empty.
func (db *Database) Declare(name string, typ schema.RelationType) error {
	if err := typ.Validate(); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.engine.Type(name); dup {
		return fmt.Errorf("store: variable %q already declared", name)
	}
	return db.commitLocked(&Commit{
		Batch:  []Mutation{{Op: OpDeclare, Name: name, Type: typ}},
		Writes: make([]Write, 1),
	})
}

// commitLocked is the one commit step (see Logger): log c.Batch, publish
// c.Writes, deliver c. A declaration's Write gets its Rel from the engine,
// which builds the empty value. Caller holds db.mu.
func (db *Database) commitLocked(c *Commit) error {
	if db.logger != nil {
		if err := db.logger.Append(c.Batch, db.ckptStateLocked); err != nil {
			return err
		}
	}
	for i := range c.Writes {
		w, name := &c.Writes[i], c.Batch[i].Name
		if old, ok := db.engine.Cached(name); ok {
			db.dropPaths(old)
		}
		switch {
		case c.Batch[i].Op == OpDeclare:
			db.engine.Declare(name, c.Batch[i].Type)
			w.Rel, _, _ = db.engine.Get(name)
		case w.Grow != nil:
			db.engine.PublishDelta(name, w.Grow, w.Rel)
		default:
			db.engine.Publish(name, w.Rel)
		}
	}
	for _, con := range db.consumers {
		con.Committed(c)
	}
	return nil
}

// ckptStateLocked is the checkpoint-state closure handed to the logger: the
// engine's native checkpoint format when it has one (the paged engine's
// dirty-page flush plus manifest), otherwise the logical Save image. Caller
// holds db.mu. Attach images deliberately do not come through here — a
// replica is a memory-engine store and needs the logical image regardless of
// the primary's engine.
func (db *Database) ckptStateLocked(w io.Writer) error {
	if cw, ok := db.engine.(CheckpointWriter); ok {
		return cw.WriteCheckpoint(w)
	}
	return db.saveLocked(w)
}

// Attach registers c to receive every Commit made after the call. With image
// non-nil it first writes the current state there in Save format, under the
// same write lock, so the image plus the records c receives reproduce the
// store with no gap and no overlap. Attaching to a database that ReplaceWith
// has superseded attaches to its replacement.
func (db *Database) Attach(c Consumer, image io.Writer) error {
	db = db.lockCurrent()
	defer db.mu.Unlock()
	if image != nil {
		if err := db.saveLocked(image); err != nil {
			return err
		}
	}
	db.consumers = append(db.consumers, c)
	return nil
}

// Detach unregisters c, following the registration across store
// replacements; c receives no record after Detach returns.
func (db *Database) Detach(c Consumer) {
	db = db.lockCurrent()
	defer db.mu.Unlock()
	if i := slices.Index(db.consumers, c); i >= 0 {
		db.consumers = slices.Delete(db.consumers, i, i+1)
	}
}

// lockCurrent write-locks and returns the database that now holds db's commit
// stream: db itself, or the last replacement in its ReplaceWith chain.
func (db *Database) lockCurrent() *Database {
	for {
		db.mu.Lock()
		next := db.successor
		if next == nil {
			return db
		}
		db.mu.Unlock()
		db = next
	}
}

// ReplaceWith hands db's commit stream to next, which replaces db wholesale
// (a session's LoadStore). The attached logger first checkpoints next's full
// state, superseding everything it logged for db; on failure nothing moves
// and db stays attached and durable. Then the logger and every consumer move
// to next, and the consumers receive one Commit with Replaced set. next must
// be a fresh database no one else holds yet.
func (db *Database) ReplaceWith(next *Database) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	next.mu.Lock()
	defer next.mu.Unlock()
	if db.logger != nil {
		if err := db.logger.Checkpoint(next.ckptStateLocked); err != nil {
			return err
		}
	}
	next.logger, next.consumers = db.logger, db.consumers
	db.logger, db.consumers, db.successor = nil, nil, next
	c := &Commit{Replaced: next}
	for _, con := range next.consumers {
		con.Committed(c)
	}
	return nil
}

// NameOf returns the variable whose current published value is rel (pointer
// identity — published values are immutable and every write publishes a fresh
// pointer, so a match means rel is exactly some variable's current state).
func (db *Database) NameOf(rel *relation.Relation) (string, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.engine.Current(rel)
}

// ReadLocked runs fn with the database read-locked, passing a getter over the
// current variable bindings. No mutation can publish (and therefore no
// Consumer can run) while fn executes, which lets a cache verify a set of
// published pointers and install an entry atomically with respect to
// writers. fn must not call back into the Database.
func (db *Database) ReadLocked(fn func(get func(string) (*relation.Relation, bool))) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	fn(func(name string) (*relation.Relation, bool) {
		r, ok, _ := db.engine.Get(name)
		return r, ok
	})
}

// SetLogger attaches (nil detaches) the write-ahead logger without logging
// anything — used right after recovery, when the log already represents the
// database's state.
func (db *Database) SetLogger(l Logger) {
	db.mu.Lock()
	db.logger = l
	db.mu.Unlock()
}

// Checkpoint asks the attached logger to cut a snapshot of the current state
// and truncate the log; it is a no-op without a logger. Concurrent mutations
// wait (they need the write lock); concurrent queries proceed against their
// snapshots.
func (db *Database) Checkpoint() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.logger == nil {
		return nil
	}
	return db.logger.Checkpoint(db.ckptStateLocked)
}

// Get returns the current value of a variable. The returned relation is the
// live value; callers must not mutate it (use Assign). On the paged engine a
// cold variable is materialized from its pages; an I/O failure there reports
// as not-found here (the engine records the cause) — paths that must surface
// the error (Save, Insert) use the engine directly.
func (db *Database) Get(name string) (*relation.Relation, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r, ok, _ := db.engine.Get(name)
	return r, ok
}

// Type returns the declared type of a variable.
func (db *Database) Type(name string) (schema.RelationType, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.engine.Type(name)
}

// Names returns the declared variable names, sorted.
func (db *Database) Names() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := db.engine.Names()
	sort.Strings(out)
	return out
}

// checkedValue re-types rex into the variable's declared type, enforcing the
// key constraint and element domains, and applies the guards.
func checkedValue(name string, typ schema.RelationType, rex *relation.Relation, guards []Guard) (*relation.Relation, error) {
	// Kind compatibility statically; the per-tuple Insert below re-checks
	// the element domains (subranges) and the key constraint.
	if !rex.Type().Element.KindCompatibleWith(typ.Element) {
		return nil, fmt.Errorf("store: cannot assign %s to %q of type %s",
			rex.Type().Element, name, typ.Element)
	}
	out := relation.New(typ)
	var failure error
	rex.Each(func(t value.Tuple) bool {
		for _, g := range guards {
			ok, err := g.Pred(t)
			if err != nil {
				failure = err
				return false
			}
			if !ok {
				failure = &GuardViolationError{Variable: name, Guard: g.Name, Tuple: t}
				return false
			}
		}
		if err := out.Insert(t); err != nil {
			failure = err
			return false
		}
		return true
	})
	if failure != nil {
		return nil, failure
	}
	return out, nil
}

// Assign replaces the variable's value with rex after re-checking the key
// constraint and the given guards. On any violation the variable keeps its
// previous value (assignment is atomic, as the paper's conditional pattern
// requires).
//
// The checks run outside db.mu: guard predicates are arbitrary selector
// bodies that may themselves query the store (including Partition, which
// read-locks db.mu), so holding the write lock across them would
// self-deadlock. The check examines only rex — never the variable's current
// value — so check-then-swap preserves the atomic last-writer-wins
// semantics.
func (db *Database) Assign(name string, rex *relation.Relation, guards ...Guard) error {
	typ, ok := db.Type(name)
	if !ok {
		return fmt.Errorf("store: assignment to undeclared variable %q", name)
	}
	out, err := checkedValue(name, typ, rex, guards)
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.commitLocked(&Commit{
		Batch:  []Mutation{{Op: OpAssign, Name: name, Rel: out}},
		Writes: []Write{{Rel: out}},
	})
}

// Insert adds tuples to a variable, under the key constraint. The variable's
// published relation is never mutated in place: the new value is built on a
// copy and swapped in atomically, so snapshot readers keep iterating a
// consistent state. On any violation the variable keeps its previous value.
//
// The copy is per call, not per tuple — batch tuples into one Insert where
// possible; n single-tuple calls clone the relation n times. An Insert of no
// tuples changes nothing and commits nothing.
func (db *Database) Insert(name string, tuples ...value.Tuple) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	r, ok, err := db.engine.Get(name)
	if err != nil {
		return fmt.Errorf("store: reading %q: %w", name, err)
	}
	if !ok {
		return fmt.Errorf("store: insert into undeclared variable %q", name)
	}
	if len(tuples) == 0 {
		return nil
	}
	next := r.Clone()
	for _, t := range tuples {
		if err := next.Insert(t); err != nil {
			return err
		}
	}
	return db.commitLocked(&Commit{
		Batch:  []Mutation{{Op: OpInsert, Name: name, Tuples: tuples}},
		Writes: []Write{{Rel: next, Grow: tuples}},
	})
}

// Partition implements eval.PathProvider: it returns the sub-relation of
// base whose attribute at pos equals v, served from a lazily built physical
// access path. The path is built on first use for a (relation value, position)
// pair and reused until the variable is reassigned: writers publish a new
// relation pointer (copy-on-write), so stale paths are invalidated simply by
// key mismatch and dropped eagerly by dropPaths.
//
// Partition declines (ok false) when base is not a currently published
// variable value. That is both a correctness condition — non-published
// relations (transaction overlays, per-execution derived results) may be
// mutated in place or die after one execution, so a pointer-keyed cache over
// them would serve stale or dead partitions — and the policy that keeps the
// cache holding only paths that can actually be reused.
func (db *Database) Partition(base *relation.Relation, pos int, v value.Value) (*relation.Relation, bool) {
	if _, ok := db.NameOf(base); !ok {
		return nil, false
	}
	k := pathKey{rel: base, pos: pos}
	db.pathMu.Lock()
	p, ok := db.paths[k]
	db.pathMu.Unlock()
	if !ok {
		// Build outside pathMu: a large build must not block concurrent
		// lookups on other relations. Two racing builders do redundant work
		// once; last insert wins and both results are correct.
		var err error
		p, err = accesspath.BuildPhysicalAtParallel(base, pos, db.parallelism)
		if err != nil {
			return nil, false
		}
		db.pathMu.Lock()
		if existing, dup := db.paths[k]; dup {
			p = existing
		} else {
			for key := range db.paths {
				if len(db.paths) < maxCachedPaths {
					break
				}
				delete(db.paths, key)
			}
			db.paths[k] = p
		}
		db.pathMu.Unlock()
	}
	// Lookup is read-only on the immutable partition map once built; the
	// returned partition is itself a published value and must not be mutated.
	return p.Lookup(v), true
}

// CachedPaths reports the number of materialized physical access paths (for
// tests and monitoring).
func (db *Database) CachedPaths() int {
	db.pathMu.Lock()
	defer db.pathMu.Unlock()
	return len(db.paths)
}

// dropPaths discards the access paths built over a replaced relation value.
// Correctness does not depend on it (stale pointers never match a lookup);
// it just keeps the cache from holding dead partitions alive.
func (db *Database) dropPaths(old *relation.Relation) {
	if old == nil {
		return
	}
	db.pathMu.Lock()
	for k := range db.paths {
		if k.rel == old {
			delete(db.paths, k)
		}
	}
	db.pathMu.Unlock()
}

// Snapshot returns the current binding of every variable. The map is a
// private copy; the relations are the published values, which are immutable
// once published (writers replace, never mutate), so the snapshot can be read
// without further locking while writers proceed.
func (db *Database) Snapshot() map[string]*relation.Relation {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.snapshotLocked()
}

// snapshotLocked materializes every variable's current value. Caller holds
// db.mu. A variable whose materialization fails (paged-engine I/O error) is
// omitted — queries then report it unknown, and the engine records the
// cause.
func (db *Database) snapshotLocked() map[string]*relation.Relation {
	names := db.engine.Names()
	out := make(map[string]*relation.Relation, len(names))
	for _, n := range names {
		if r, ok, err := db.engine.Get(n); err == nil && ok {
			out[n] = r
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------------

// Tx is a snapshot transaction: reads see the database as of Begin plus the
// transaction's own writes; Commit publishes all writes atomically (last
// writer wins, as DBPL transactions are serialized); Rollback discards them.
type Tx struct {
	db      *Database
	overlay map[string]*relation.Relation
	base    map[string]*relation.Relation
	done    bool
	// inserted tracks, per variable, the tuples added by Tx.Insert while the
	// write set for that variable is still pure growth over the Begin
	// snapshot; a Tx.Assign overwrites the variable and moves it to
	// overwritten permanently. Commit uses this to classify each published
	// write as growth (Write.Grow) or a reset.
	inserted    map[string][]value.Tuple
	overwritten map[string]bool
}

// Begin starts a transaction over a stable snapshot.
func (db *Database) Begin() *Tx {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return &Tx{
		db:          db,
		base:        db.snapshotLocked(),
		overlay:     make(map[string]*relation.Relation),
		inserted:    make(map[string][]value.Tuple),
		overwritten: make(map[string]bool),
	}
}

// Get reads a variable inside the transaction.
func (tx *Tx) Get(name string) (*relation.Relation, bool) {
	if r, ok := tx.overlay[name]; ok {
		return r, true
	}
	r, ok := tx.base[name]
	return r, ok
}

// Assign writes a variable inside the transaction (checked like
// Database.Assign).
func (tx *Tx) Assign(name string, rex *relation.Relation, guards ...Guard) error {
	if tx.done {
		return fmt.Errorf("store: transaction already finished")
	}
	typ, ok := tx.db.Type(name)
	if !ok {
		return fmt.Errorf("store: assignment to undeclared variable %q", name)
	}
	out, err := checkedValue(name, typ, rex, guards)
	if err != nil {
		return err
	}
	tx.overlay[name] = out
	tx.overwritten[name] = true
	delete(tx.inserted, name)
	return nil
}

// Insert adds tuples inside the transaction, copying on first write. An
// Insert of no tuples writes nothing.
func (tx *Tx) Insert(name string, tuples ...value.Tuple) error {
	if tx.done {
		return fmt.Errorf("store: transaction already finished")
	}
	cur, ok := tx.Get(name)
	if !ok {
		return fmt.Errorf("store: insert into undeclared variable %q", name)
	}
	if len(tuples) == 0 {
		return nil
	}
	if _, own := tx.overlay[name]; !own {
		cur = cur.Clone()
	}
	for _, t := range tuples {
		if err := cur.Insert(t); err != nil {
			return err
		}
	}
	tx.overlay[name] = cur
	if !tx.overwritten[name] {
		tx.inserted[name] = append(tx.inserted[name], tuples...)
	}
	return nil
}

// Commit publishes the transaction's writes atomically. With a logger
// attached, the whole write set is logged as one batch before anything is
// published, so recovery sees either the entire transaction or none of it; a
// log failure leaves the transaction open and the store untouched.
//
// Each written variable is logged at its full final value, not as a delta:
// the overlay is a snapshot-based last-writer-wins replacement, so the full
// value is what the commit means — a delta replayed over a concurrently
// changed base would diverge from the published state. Callers appending
// large volumes outside a transaction should prefer Database.Insert, whose
// log records carry only the inserted tuples.
func (tx *Tx) Commit() error {
	if tx.done {
		return fmt.Errorf("store: transaction already finished")
	}
	tx.db.mu.Lock()
	defer tx.db.mu.Unlock()
	if len(tx.overlay) == 0 {
		tx.done = true
		return nil
	}
	names := tx.Writes()
	c := &Commit{Batch: make([]Mutation, len(names)), Writes: make([]Write, len(names))}
	for i, n := range names {
		r := tx.overlay[n]
		c.Batch[i] = Mutation{Op: OpAssign, Name: n, Rel: r}
		c.Writes[i] = Write{Rel: r}
		// The write is growth only if it is pure insertion AND the variable
		// still holds the Begin snapshot: a concurrent writer between Begin
		// and Commit means r is base+inserts over a value that is no longer
		// published (last-writer-wins replacement), so the delta relative to
		// the current value is not the insert list. (A paged engine that
		// evicted the value since Begin misses the comparison and reports a
		// reset — correct, just not incremental.)
		if tups, ok := tx.inserted[n]; ok && !tx.overwritten[n] {
			if prev, _ := tx.db.engine.Cached(n); prev != nil && tx.base[n] == prev {
				c.Writes[i].Grow = tups
			}
		}
	}
	if err := tx.db.commitLocked(c); err != nil {
		return err
	}
	tx.done = true
	return nil
}

// Rollback discards the transaction's writes.
func (tx *Tx) Rollback() {
	tx.done = true
	tx.overlay = nil
}

// Names returns the variable names visible inside the transaction (the Begin
// snapshot plus the transaction's own writes), sorted.
func (tx *Tx) Names() []string {
	seen := make(map[string]bool, len(tx.base)+len(tx.overlay))
	for n := range tx.base {
		seen[n] = true
	}
	for n := range tx.overlay {
		seen[n] = true
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Writes returns the names of the variables the transaction has written,
// sorted. Exposed so commit-time guard checks can re-validate exactly the
// written set.
func (tx *Tx) Writes() []string {
	out := make([]string, 0, len(tx.overlay))
	for n := range tx.overlay {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Done reports whether the transaction has been committed or rolled back.
func (tx *Tx) Done() bool { return tx.done }

// DB returns the database the transaction began on; the session layer uses
// the identity to detect a store swap (LoadStore) between Begin and Commit.
func (tx *Tx) DB() *Database { return tx.db }
