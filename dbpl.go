// Package dbpl is a Go reproduction of the database programming language
// extension proposed in M. Jarke, V. Linnemann, J. W. Schmidt, "Data
// Constructors: On the Integration of Rules and Relations" (VLDB 1985).
//
// The package implements the paper's DBPL subset: typed relations with key
// constraints, tuple relational calculus expressions, selectors (predicative
// sub-relation views, section 2.3), and — the paper's contribution —
// constructors: recursively defined derived relations with least-fixpoint
// semantics (section 3), guarded by the positivity constraint (section 3.3),
// compiled through the three-level framework of section 4, and evaluated
// set-orientedly (naive or semi-naive) instead of by tuple-at-a-time proof
// search.
//
// # Sessions
//
// A DB is opened with functional options and is safe for concurrent use:
// queries evaluate against a stable snapshot of the relation variables and
// run in parallel with module execution and assignments.
//
//	db, err := dbpl.Open(dbpl.WithMode(dbpl.SemiNaive))
//	if err != nil { ... }
//	_, err = db.ExecContext(ctx, `
//	  MODULE cad;
//	  TYPE parttype   = STRING;
//	  TYPE infrontrel = RELATION OF RECORD front, back: parttype END;
//	  TYPE aheadrel   = RELATION OF RECORD head, tail: parttype END;
//	  VAR Infront: infrontrel;
//
//	  CONSTRUCTOR ahead FOR Rel: infrontrel (): aheadrel;
//	  BEGIN
//	    EACH r IN Rel: TRUE,
//	    <f.front, b.tail> OF EACH f IN Rel, EACH b IN Rel{ahead}: f.back = b.head
//	  END ahead;
//
//	  Infront := {<"vase","table">, <"table","chair">};
//	  END cad.`)
//
// # Prepared statements and streaming results
//
// Prepare parses and resolves a query once; the statement can then be
// executed repeatedly (concurrently, if desired) with scalar parameters
// bound per call. QueryContext streams the result as a *Rows cursor, so
// large results need not be materialized into slices by the caller:
//
//	stmt, err := db.Prepare(`Infront[hidden_by(Obj)]{ahead}`)
//	rel, err := stmt.Query(ctx, "table")       // binds Obj := "table"
//
//	rows, err := db.QueryContext(ctx, `Infront{ahead}`)
//	defer rows.Close()
//	for rows.Next() {
//		var head, tail string
//		if err := rows.Scan(&head, &tail); err != nil { ... }
//	}
//
// One-shot Query and QuerySet consult an LRU cache of compiled plans keyed
// by source text, so a repeated query string pays the parse and optimization
// cost once. The cache is invalidated whenever declarations change.
//
// # Plans and EXPLAIN
//
// Prepare lowers every query through an ordered optimizer pass pipeline —
// flatten, selection pushdown into non-recursive constructors, magic-sets
// restriction of recursive constructor applications to bound constants, and
// range re-nesting (the section 4 rewrites). The compiled plan is a
// first-class value: Stmt.Plan returns it, Explain compiles without
// executing, and ExplainQuery executes and attaches per-run counters
// (EXPLAIN ANALYZE style); Plan.Text renders it for humans and the struct
// marshals to JSON. Selector applications whose body is an indexable
// equality are answered from lazily built, copy-on-write-invalidated hash
// partitions (the paper's physical access paths) instead of scans.
//
//	plan, err := db.Explain(ctx, `Infront{ahead}[hidden_by("table")]`)
//	fmt.Print(plan.Text())   // pass trace, quantifier order, access paths
//
// WithOptimizer selects or reorders the pipeline by registered pass name;
// WithoutOptimization disables rewrites and access paths entirely (useful
// for debugging and equivalence testing).
//
// # Transactions
//
// Begin returns a snapshot transaction: queries inside it see the state as
// of Begin plus the transaction's own writes, Commit publishes atomically
// after re-checking selector guards against the final state, and Rollback
// discards. Declarations are not transactional.
//
// Contexts are honored end to end: cancellation is checked between fixpoint
// rounds and inside the evaluator's branch loops, so a runaway recursive
// constructor can be aborted.
//
// # Durability
//
// Open(WithPath(dir)) backs the database with a write-ahead log and snapshot
// checkpoints in dir: every state-changing operation on the base relations —
// module DDL, Insert, Assign, LoadStore, and each Tx commit as one atomic
// batch — is logged before it is published, and Open recovers snapshot plus
// committed log tail, truncating a torn or corrupt tail at the last complete
// record. Derived constructor results are never logged; they recompute from
// the recovered base relations. WithSync selects fsync-per-commit
// (SyncAlways, the default) or OS-buffered (SyncNever); WithCheckpointEvery
// tunes automatic log compaction; Checkpoint forces it; Close syncs and
// detaches the log.
//
// The pre-session entry points (New, Exec, Query, QuerySet, Apply) remain
// as thin wrappers over the context-aware API.
package dbpl

import (
	"bytes"
	"context"
	"io"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// Re-exported data types, so downstream code does not need the internal
// packages.
type (
	// Relation is a typed, keyed set of tuples.
	Relation = relation.Relation
	// Tuple is one relation element.
	Tuple = value.Tuple
	// Value is a scalar runtime value.
	Value = value.Value
	// RelationType describes a relation's element type and key.
	RelationType = schema.RelationType
	// RecordType describes a tuple layout.
	RecordType = schema.RecordType
	// Attribute is a named, typed record field.
	Attribute = schema.Attribute
	// ScalarType is an attribute domain.
	ScalarType = schema.ScalarType
	// Stats reports the work done by the last constructor evaluation.
	Stats = core.Stats
)

// Scalar constructors and types, re-exported.
var (
	// Str builds a string value.
	Str = value.Str
	// Int builds an integer value.
	Int = value.Int
	// Bool builds a boolean value.
	Bool = value.Bool
	// StringType is the STRING attribute domain.
	StringType = schema.StringType
	// IntType is the INTEGER attribute domain.
	IntType = schema.IntType
)

// NewTuple builds a tuple.
func NewTuple(vs ...Value) Tuple { return value.NewTuple(vs...) }

// Mode selects the fixpoint strategy for constructor evaluation.
type Mode = core.Mode

// Fixpoint strategies.
const (
	// SemiNaive evaluates constructors differentially (default).
	SemiNaive = core.SemiNaive
	// Naive evaluates with the paper's REPEAT ... UNTIL loop.
	Naive = core.Naive
)

// New returns an empty database with strict positivity checking and default
// options; it is Open with no options.
func New() *DB {
	d, err := Open()
	if err != nil {
		// Open without options cannot fail.
		panic(err)
	}
	return d
}

// Exec compiles and runs a DBPL module against the database, accumulating
// its declarations. It returns the output of SHOW statements.
func (d *DB) Exec(src string) (string, error) {
	return d.ExecContext(context.Background(), src)
}

// ExecTo is Exec with streaming output.
func (d *DB) ExecTo(out io.Writer, src string) error {
	return d.ExecToContext(context.Background(), out, src)
}

// ExecContext is Exec with cancellation: ctx is checked inside fixpoint
// iterations and evaluator loops.
func (d *DB) ExecContext(ctx context.Context, src string) (string, error) {
	var buf bytes.Buffer
	if err := d.ExecToContext(ctx, &buf, src); err != nil {
		return buf.String(), err
	}
	return buf.String(), nil
}

// Query evaluates a range expression (e.g. `Infront[hidden_by("table")]{ahead}`)
// against a snapshot of the current state. Repeated query strings hit the
// plan cache.
func (d *DB) Query(src string) (*Relation, error) {
	st, err := d.prepareCached(src)
	if err != nil {
		return nil, err
	}
	return st.Query(context.Background())
}

// QuerySet evaluates a full set expression (e.g. `{EACH r IN Infront: TRUE}`).
func (d *DB) QuerySet(src string) (*Relation, error) {
	return d.Query(src)
}

// QueryContext evaluates a query with cancellation and returns a streaming
// row cursor over the result.
func (d *DB) QueryContext(ctx context.Context, src string) (*Rows, error) {
	st, err := d.prepareCached(src)
	if err != nil {
		return nil, err
	}
	return st.QueryRows(ctx)
}

// QuerySetContext is QueryContext; set expressions and range expressions
// share one entry point since Prepare accepts both.
func (d *DB) QuerySetContext(ctx context.Context, src string) (*Rows, error) {
	return d.QueryContext(ctx, src)
}

// Apply evaluates a constructor application on an explicit base relation,
// with relation- or scalar-valued arguments.
func (d *DB) Apply(constructor string, base *Relation, args ...any) (*Relation, error) {
	return d.ApplyContext(context.Background(), constructor, base, args...)
}

// Declare introduces a relation variable programmatically.
func (d *DB) Declare(name string, typ RelationType) error {
	if err := d.StoreSnapshot().Declare(name, typ); err != nil {
		return wrapErr(d.noteMutErr(err))
	}
	d.mu.Lock()
	d.Checker.Vars[name] = typ
	// Cached plans may have classified the new name as a scalar parameter.
	d.plans.clear()
	d.mu.Unlock()
	return nil
}

// Insert adds tuples to a relation variable under its key constraint. The
// published relation is replaced copy-on-write, so batch the tuples into one
// call where possible: n single-tuple calls copy the relation n times.
func (d *DB) Insert(name string, tuples ...Tuple) error {
	return wrapErr(d.noteMutErr(d.StoreSnapshot().Insert(name, tuples...)))
}

// Relation returns the current value of a relation variable. The returned
// relation is the published (immutable) value; callers must not mutate it.
func (d *DB) Relation(name string) (*Relation, bool) { return d.StoreSnapshot().Get(name) }

// Assign replaces a relation variable's value (key-checked).
func (d *DB) Assign(name string, rel *Relation) error {
	return wrapErr(d.noteMutErr(d.StoreSnapshot().Assign(name, rel)))
}

// Save writes the database's relation variables to w (binary format).
func (d *DB) Save(w io.Writer) error { return d.StoreSnapshot().Save(w) }

// QuantGraphDOT renders the augmented quant graph of the last executed
// module in Graphviz syntax (Fig 3 of the paper).
func (d *DB) QuantGraphDOT() string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.LastProgram == nil || d.LastProgram.Graph == nil {
		return ""
	}
	return d.LastProgram.Graph.DOT()
}

// QuantGraphASCII renders the augmented quant graph as text.
func (d *DB) QuantGraphASCII() string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.LastProgram == nil || d.LastProgram.Graph == nil {
		return ""
	}
	return d.LastProgram.Graph.ASCII()
}
