package dbpl

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/ast"
	"repro/internal/compile"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/schema"
	"repro/internal/store"
)

// Tx is a snapshot transaction over the database's relation variables: reads
// see the state as of Begin plus the transaction's own writes, queries
// evaluate against that view, and Commit publishes all writes atomically
// (Rollback discards them). It is a thin wrapper over the store's overlay
// transaction; declarations are not transactional — execute modules that
// declare types, selectors, or constructors with DB.Exec before Begin.
//
// Guarded assignments (`Infront[refint] := rex`) are checked twice: at write
// time against the transaction's state then, and again at Commit against the
// transaction's final state — a later write inside the transaction may have
// invalidated a guard whose predicate references another relation, and the
// commit-time re-check keeps the paper's conditional-assignment semantics
// over the state that actually becomes visible. A failed commit check leaves
// the transaction open, so the caller can correct the offending write or
// Rollback.
//
// A Tx is not safe for concurrent use by multiple goroutines.
type Tx struct {
	db *DB
	tx *store.Tx

	mu     sync.Mutex
	done   bool
	guards map[string][]txGuard
}

// txGuard is a recorded guarded-assignment check, re-evaluated at commit
// against the transaction's final state. The arguments are kept as syntax,
// not resolved values, so the commit-time re-check resolves them (and any
// relations the guard body reads) against the state that actually becomes
// visible.
type txGuard struct {
	decl *ast.SelectorDecl
	elem schema.RecordType
	args []ast.Arg
}

// Begin starts a transaction over a stable snapshot of the relation
// variables.
func (d *DB) Begin(ctx context.Context) (*Tx, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &Tx{db: d, tx: d.StoreSnapshot().Begin(), guards: make(map[string][]txGuard)}, nil
}

// Exec runs a DBPL module's statements (SHOW and assignment, including
// guarded assignment) inside the transaction, returning the SHOW output.
// Writes land in the transaction's overlay; nothing is visible outside the
// transaction until Commit. Modules with declarations are rejected.
func (t *Tx) Exec(ctx context.Context, src string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return "", ErrTxDone
	}
	m, err := parser.ParseModule(src)
	if err != nil {
		return "", wrapErr(err)
	}
	if len(m.Decls) > 0 {
		return "", fmt.Errorf("dbpl: module %s declares inside a transaction; declarations are not transactional (execute them with DB.Exec first)", m.Name)
	}
	var out bytes.Buffer
	for i, s := range m.Stmts {
		if err := t.runStmt(ctx, s, &out); err != nil {
			return out.String(), wrapErr(fmt.Errorf("statement %d (%s): %w", i+1, s, err))
		}
	}
	return out.String(), nil
}

func (t *Tx) runStmt(ctx context.Context, s ast.Stmt, out io.Writer) error {
	env, _ := t.db.txCallEnv(ctx, t.tx)
	switch st := s.(type) {
	case *ast.Show:
		rel, err := env.Range(st.Expr)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(out, "%s = ", st.Expr); err != nil {
			return err
		}
		if _, err := rel.WriteTo(out); err != nil {
			return err
		}
		_, err = io.WriteString(out, "\n")
		return err
	case *ast.Assign:
		rel, err := env.Range(st.Expr)
		if err != nil {
			return err
		}
		var guards []store.Guard
		var specs []txGuard
		for i := range st.Suffixes {
			suf := &st.Suffixes[i]
			if suf.Kind != ast.SuffixConstructor {
				g, spec, err := t.guardFor(env, suf)
				if err != nil {
					return err
				}
				guards = append(guards, g)
				specs = append(specs, spec)
				continue
			}
			return fmt.Errorf("assignment through a constructed relation %q is not defined (constructors derive, they do not store)", suf.Name)
		}
		if err := t.tx.Assign(st.Target, rel, guards...); err != nil {
			return err
		}
		// Assignment replaces the value wholesale, so this statement's guards
		// supersede any recorded by an earlier assignment to the same target
		// (an unguarded assignment clears them) — matching the non-transactional
		// semantics, where each assignment is checked independently.
		t.guards[st.Target] = specs
		return nil
	default:
		return fmt.Errorf("unknown statement %T", s)
	}
}

// guardFor compiles one guard selector application against the transaction's
// current view and records its spec for the commit-time re-check.
func (t *Tx) guardFor(env *eval.Env, suf *ast.Suffix) (store.Guard, txGuard, error) {
	d := t.db
	d.mu.RLock()
	sig, ok := d.Checker.Selectors[suf.Name]
	d.mu.RUnlock()
	if !ok {
		return store.Guard{}, txGuard{}, fmt.Errorf("unknown selector %q", suf.Name)
	}
	args, err := env.ResolveArgs(suf.Args)
	if err != nil {
		return store.Guard{}, txGuard{}, err
	}
	g, err := compile.SelectorGuard(env, sig.Decl, sig.ForType.Element, args)
	if err != nil {
		return store.Guard{}, txGuard{}, err
	}
	return g, txGuard{decl: sig.Decl, elem: sig.ForType.Element, args: suf.Args}, nil
}

// Query evaluates a query against the transaction's view (snapshot plus own
// writes), binding args positionally like Stmt.Query.
func (t *Tx) Query(ctx context.Context, src string, args ...any) (*Relation, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return nil, ErrTxDone
	}
	st, err := t.db.prepareCached(src)
	if err != nil {
		return nil, err
	}
	env, en := t.db.txCallEnv(ctx, t.tx)
	return st.execWith(ctx, env, en, args, nil)
}

// QueryRows is Query with a streaming row cursor over the result. The cursor
// counts against the session's WithMaxOpenRows cap until it is closed.
func (t *Tx) QueryRows(ctx context.Context, src string, args ...any) (*Rows, error) {
	release, err := t.db.acquireRows()
	if err != nil {
		return nil, err
	}
	rel, err := t.Query(ctx, src, args...)
	if err != nil {
		release()
		return nil, err
	}
	return newRows(ctx, rel, release), nil
}

// Relation returns a variable's value as seen by the transaction.
func (t *Tx) Relation(name string) (*Relation, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return nil, false
	}
	return t.tx.Get(name)
}

// Insert adds tuples to a variable inside the transaction, under its key
// constraint.
func (t *Tx) Insert(name string, tuples ...Tuple) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return ErrTxDone
	}
	return wrapErr(t.tx.Insert(name, tuples...))
}

// Assign replaces a variable's value inside the transaction (key-checked).
// It is unguarded, so it supersedes any guard recorded by an earlier guarded
// assignment to the same variable.
func (t *Tx) Assign(name string, rel *Relation) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return ErrTxDone
	}
	if err := t.tx.Assign(name, rel); err != nil {
		return wrapErr(err)
	}
	delete(t.guards, name)
	return nil
}

// Commit re-checks every recorded guard against the transaction's final
// state and publishes the writes atomically. On a guard violation the
// transaction stays open and nothing is published.
func (t *Tx) Commit() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return ErrTxDone
	}
	if t.db.StoreSnapshot() != t.tx.DB() {
		return fmt.Errorf("dbpl: store was replaced (LoadStore) during the transaction; nothing committed")
	}
	env, _ := t.db.txCallEnv(context.Background(), t.tx)
	for _, name := range t.tx.Writes() {
		specs := t.guards[name]
		if len(specs) == 0 {
			continue
		}
		rel, ok := t.tx.Get(name)
		if !ok {
			continue
		}
		for _, spec := range specs {
			args, err := env.ResolveArgs(spec.args)
			if err != nil {
				return wrapErr(err)
			}
			g, err := compile.SelectorGuard(env, spec.decl, spec.elem, args)
			if err != nil {
				return wrapErr(err)
			}
			var failure error
			rel.Each(func(tp Tuple) bool {
				ok, err := g.Pred(tp)
				if err != nil {
					failure = err
					return false
				}
				if !ok {
					failure = &GuardViolationError{Variable: name, Guard: g.Name, Tuple: tp}
					return false
				}
				return true
			})
			if failure != nil {
				return wrapErr(failure)
			}
		}
	}
	// The store commit write-ahead logs the batch (on a durable DB) before
	// publishing; a log failure leaves both the store and this transaction
	// open, so the caller can retry Commit or Rollback — except a poisoned
	// log (degraded read-only mode), where retrying can never succeed and
	// the error says so.
	if err := t.tx.Commit(); err != nil {
		return wrapErr(t.db.noteMutErr(err))
	}
	t.done = true
	return nil
}

// Rollback discards the transaction's writes.
func (t *Tx) Rollback() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return ErrTxDone
	}
	t.done = true
	t.tx.Rollback()
	return nil
}
