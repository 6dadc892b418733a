package dbpl

import (
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/ast"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/matview"
	"repro/internal/optimizer"
	"repro/internal/pagestore"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/store"
	"repro/internal/typecheck"
	"repro/internal/value"
	"repro/internal/wal"
)

// DB is a DBPL database: relation variables plus the accumulated type,
// selector, and constructor declarations of every executed module.
//
// A DB is safe for concurrent use. Module execution (Exec*) and programmatic
// writes serialize on an internal lock; queries (Query*, Stmt.Query, Apply)
// evaluate against a snapshot of the relation variables in a private
// environment and therefore run in parallel with each other and with
// writers.
type DB struct {
	Store    *store.Database
	Checker  *typecheck.Checker
	Registry *core.Registry
	// Engine is the module-execution engine over the accumulated
	// environment; queries use private per-call engines.
	Engine *core.Engine
	// Strict enforces the positivity constraint (section 3.3) on
	// constructor declarations; it is on by default, as in the paper's
	// compiler. Changing it affects subsequently executed modules; set it
	// before sharing the DB across goroutines (or use WithStrict).
	Strict bool
	// LastProgram is the most recently compiled program (plans, quant
	// graph, positivity reports).
	LastProgram *compile.Program

	// execMu serializes module execution (and other users of the shared
	// exec-path environment and engine) without blocking queries, which
	// never take it.
	execMu sync.Mutex
	// mu guards the accumulated declaration state (env, Checker, Registry
	// registration, LastProgram, Engine configuration) between module
	// execution and the query-side snapshot of that state.
	mu sync.RWMutex
	// env is the accumulated module-execution environment: selector and
	// type declarations from every executed module plus the exec-path
	// relation bindings.
	env *eval.Env
	// decls is the published declaration snapshot queries share: fresh maps
	// rebuilt whenever the accumulated declarations change and never
	// mutated afterwards, so callEnv hands them out without copying.
	decls *declSnapshot

	statsMu   sync.Mutex
	lastStats Stats

	// parallelism and parallelMinRows configure the streaming executor's
	// worker fan-out (WithParallelism / WithParallelThreshold). Fixed at Open
	// and read without locking afterwards.
	parallelism     int
	parallelMinRows int

	plans *planCache

	// maxOpenRows caps concurrently open Rows cursors (WithMaxOpenRows);
	// 0 means uncapped. openRows is the current count, guarded by rowsMu.
	maxOpenRows int
	rowsMu      sync.Mutex
	openRows    int

	// wal is the write-ahead log of a durable database (Open with WithPath);
	// nil for a memory-only one. It is attached to the store as its logger,
	// so every mutation path — module DDL, Insert, Assign, LoadStore, Tx
	// commits — logs through it before publishing.
	wal *wal.Log

	// pager is the paged storage engine backing the store when Open was
	// given WithEngine(EnginePaged); nil on the memory engine. The store
	// owns its use; the session keeps the handle for Health stats, the
	// LoadStore guard, and Close.
	pager *pagestore.Engine

	// views is the materialized derived-relation cache (WithMaterialization;
	// on by default), attached as a consumer of the store's commit stream so
	// committed deltas maintain cached fixpoints incrementally. nil when
	// disabled; the matview API is nil-safe, so unconditional Reset/Snapshot
	// calls are fine, but it is never assigned into an interface field when
	// nil.
	views *matview.Cache

	// passes is the optimizer pass pipeline run at Prepare time; nil when the
	// pipeline is empty. noOptimize additionally disables physical access
	// paths, so every selector application scans. Both are fixed at Open and
	// read without locking afterwards.
	passes     []optimizer.Pass
	noOptimize bool
}

// Open returns a database configured by the given options; with no options
// it matches New: memory-only, strict positivity checking, semi-naive
// fixpoints, and a 128-entry plan cache. With WithPath it is durable: the
// base relations persisted in the directory are recovered (snapshot plus
// committed write-ahead-log tail) and every later mutation is logged before
// it is published. Derived constructor results are not persisted — re-execute
// the schema modules after reopening and they recompute.
func Open(opts ...Option) (*DB, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	env := eval.NewEnv()
	reg := core.NewRegistry()
	d := &DB{
		Checker:         typecheck.New(),
		Registry:        reg,
		env:             env,
		Strict:          cfg.strict,
		plans:           newPlanCache(cfg.planCacheSize),
		noOptimize:      cfg.noOptimize,
		maxOpenRows:     cfg.maxOpenRows,
		parallelism:     cfg.parallelism,
		parallelMinRows: cfg.parallelMinRows,
	}
	env.Parallelism = cfg.parallelism
	env.ParallelMinRows = cfg.parallelMinRows
	d.useStore(store.NewDatabase())
	if cfg.engine == EnginePaged && cfg.path == "" {
		return nil, fmt.Errorf("dbpl: the paged storage engine requires WithPath (the heap file is the primary copy)")
	}
	if cfg.path != "" {
		walOpts := wal.Options{
			Sync:              cfg.syncPolicy,
			CheckpointEvery:   cfg.checkpointEvery,
			CheckpointRetries: cfg.ckptRetries,
			CheckpointBackoff: cfg.ckptBackoff,
			FS:                cfg.fs,
		}
		if cfg.engine == EnginePaged {
			pager, err := pagestore.Open(cfg.path, pagestore.Config{
				FS:        cfg.fs,
				PoolPages: cfg.poolPages,
			})
			if err != nil {
				return nil, fmt.Errorf("dbpl: opening paged storage at %s: %w", cfg.path, err)
			}
			d.pager = pager
			// Recovery builds the store over the page engine: an empty
			// directory starts from blank pages, a snapshot generation loads
			// as a page manifest (contents stay on disk and fault in on
			// demand), and a committed checkpoint retires superseded slots.
			walOpts.NewStore = func() (*store.Database, error) {
				return store.NewDatabaseWith(pager), nil
			}
			walOpts.LoadSnapshot = func(r io.Reader) (*store.Database, error) {
				if err := pager.LoadManifest(r); err != nil {
					return nil, err
				}
				return store.NewDatabaseWith(pager), nil
			}
			walOpts.OnCheckpoint = pager.CheckpointCommitted
		}
		wlog, st, err := wal.Open(cfg.path, walOpts)
		if err != nil {
			if d.pager != nil {
				_ = d.pager.Close()
			}
			return nil, fmt.Errorf("dbpl: opening durable store at %s: %w", cfg.path, err)
		}
		d.useStore(st)
		d.wal = wlog
		st.SetLogger(wlog)
	}
	// Failures past this point must release the opened write-ahead log; a
	// caller retrying Open (bad option, unreadable store image) must not
	// leak a file handle per attempt.
	fail := func(err error) (*DB, error) {
		if d.wal != nil {
			d.wal.Close()
		}
		if d.pager != nil {
			_ = d.pager.Close()
		}
		return nil, err
	}
	if !cfg.noOptimize {
		names := cfg.passNames
		if names == nil {
			names = optimizer.DefaultPassNames()
		}
		for _, n := range names {
			p, ok := optimizer.NewPass(n)
			if !ok {
				return fail(fmt.Errorf("dbpl: unknown optimizer pass %q (registered: %v)",
					n, optimizer.PassNames()))
			}
			d.passes = append(d.passes, p)
		}
	}
	d.Engine = core.NewEngine(reg, env)
	d.Engine.Mode = cfg.mode
	d.Engine.MaxRounds = cfg.maxRounds
	d.Engine.Parallelism = cfg.parallelism
	if cfg.matviews > 0 {
		d.views = matview.New(cfg.matviews, d.Store)
		d.Engine.Views = d.views
	}
	d.rebuildDecls()
	if cfg.storeReader != nil {
		if err := d.LoadStore(cfg.storeReader); err != nil {
			return fail(fmt.Errorf("dbpl: loading initial store: %w", err))
		}
	}
	return d, nil
}

// StoreSnapshot returns the current relation-variable store under the
// session lock. Code that runs concurrently with LoadStore (the network
// server, a replica's health reporting, the DB's own write paths) must use
// this instead of reading the Store field directly, which races with the
// swap.
func (d *DB) StoreSnapshot() *store.Database {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.Store
}

// SetMode selects the fixpoint strategy for constructor evaluation.
func (d *DB) SetMode(m Mode) {
	d.execMu.Lock()
	d.mu.Lock()
	d.Engine.Mode = m
	d.mu.Unlock()
	d.execMu.Unlock()
}

// LastStats reports the most recent constructor evaluation (by any Exec,
// Query, or Apply on this DB). Calls that evaluate no constructor leave it
// untouched.
func (d *DB) LastStats() Stats {
	d.statsMu.Lock()
	defer d.statsMu.Unlock()
	return d.lastStats
}

// recordStats publishes a per-call engine's stats. Whether anything was
// evaluated is decided by the engine's apply counter, never by comparing
// LastStats against the zero value — an evaluation can legitimately produce
// zero-valued stats fields, and it must still replace the previous query's.
func (d *DB) recordStats(en *core.Engine) {
	d.recordStatsSince(en, 0)
}

// recordStatsSince is recordStats for engines that persist across calls (the
// shared exec-path engine): the caller samples Applies before the call and
// stats are recorded only if evaluations happened since.
func (d *DB) recordStatsSince(en *core.Engine, before uint64) {
	if en.Applies.Load() == before {
		return // no constructor evaluated: keep the previous stats
	}
	d.statsMu.Lock()
	d.lastStats = en.LastStats()
	d.statsMu.Unlock()
}

// Parallelism reports the executor's configured worker fan-out
// (WithParallelism; runtime.GOMAXPROCS(0) by default).
func (d *DB) Parallelism() int { return d.parallelism }

// acquireRows claims one open-cursor slot against the WithMaxOpenRows cap,
// returning the release the cursor calls exactly once on Close. With no cap
// configured it costs one mutex round-trip and never fails.
func (d *DB) acquireRows() (release func(), err error) {
	d.rowsMu.Lock()
	defer d.rowsMu.Unlock()
	if d.maxOpenRows > 0 && d.openRows >= d.maxOpenRows {
		return nil, &LimitError{Resource: "open rows", Limit: d.maxOpenRows}
	}
	d.openRows++
	return func() {
		d.rowsMu.Lock()
		d.openRows--
		d.rowsMu.Unlock()
	}, nil
}

// OpenRows reports the number of currently open Rows cursors (for tests and
// monitoring).
func (d *DB) OpenRows() int {
	d.rowsMu.Lock()
	defer d.rowsMu.Unlock()
	return d.openRows
}

// Checkpoint forces a snapshot checkpoint of a durable database: the current
// state is written to a new snapshot and the write-ahead log is truncated.
// It is a no-op for a memory-only database. Concurrent queries proceed
// against their snapshots; writers wait for the checkpoint.
//
// A cleanly failed checkpoint (the snapshot rename — its commit point — was
// never reached) leaves the previous generation intact and the log
// appendable; it is retried automatically per WithCheckpointRetry before the
// error is returned, and remains safe to retry by calling Checkpoint again.
// On a database already degraded to read-only, Checkpoint fails fast with
// the same *DegradedError contract as every other refused write — it does
// not touch the poisoned log.
func (d *DB) Checkpoint() error {
	if d.wal != nil {
		if cause := d.wal.Err(); cause != nil {
			return &DegradedError{Cause: cause}
		}
	}
	return wrapErr(d.noteMutErr(d.StoreSnapshot().Checkpoint()))
}

// Health reports the durability state of the database.
type Health struct {
	// Durable reports whether the database is backed by a write-ahead log
	// (Open with WithPath). Memory-only databases are always ok.
	Durable bool
	// Degraded reports read-only mode: an unrecoverable I/O failure poisoned
	// the write-ahead log, writes are refused with a *DegradedError, and
	// reads keep serving the last published state.
	Degraded bool
	// Cause is the I/O failure that degraded the database; nil while ok.
	Cause error
	// Generation is the current snapshot-checkpoint generation (0 for a
	// memory-only database).
	Generation uint64
	// TailRecords is the number of write-ahead-log records appended since
	// the last checkpoint.
	TailRecords int
	// MatViews reports the materialized derived-relation cache: entry count,
	// read outcomes, and maintenance backlog.
	MatViews MatViewStats
	// Storage reports the paged storage engine's buffer pool and checkpoint
	// counters; zero-valued (Enabled false) on the memory engine.
	Storage StorageStats
}

// StorageStats is the paged-storage section of a health report.
type StorageStats struct {
	// Enabled reports whether this database runs on the paged engine
	// (WithEngine(EnginePaged)).
	Enabled bool
	// PoolPages is the buffer-pool budget in page slots; PoolUsed is the
	// resident footprint, which exceeds the budget only while nothing is
	// evictable (Overflows counts those episodes).
	PoolPages, PoolUsed int
	// Hits and Misses count page accesses served from the pool versus
	// faulted in from the heap file; Evictions and WriteBacks count frames
	// detached and dirty frames flushed by eviction or checkpoint.
	Hits, Misses, Evictions, WriteBacks, Overflows uint64
	// DirtyPages is the number of resident pages awaiting write-back — the
	// incremental cost of the next checkpoint.
	DirtyPages int
	// HeapSlots is the heap file's allocated size in page slots.
	HeapSlots int64
	// LastCheckpointPages and LastCheckpointBytes are the pages flushed and
	// total bytes (pages plus manifest) written by the latest checkpoint.
	LastCheckpointPages, LastCheckpointBytes uint64
	// Err is the most recent page I/O failure; unlike a poisoned log it is
	// informational — the engine keeps serving from memory and retries.
	Err error
}

// HitRate is the fraction of page accesses served from the buffer pool, in
// [0, 1]; 0 before any access.
func (s StorageStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// MatViewStats is the materialized-view section of a health report.
type MatViewStats struct {
	// Enabled reports whether materialization is on (WithMaterialization,
	// the default) for this database.
	Enabled bool
	// Entries is the number of derived relations currently cached.
	Entries int
	// Hits, Misses, and Maintained count constructor reads served from cache
	// unchanged, computed from scratch, and brought current by resuming the
	// fixpoint with committed deltas.
	Hits, Misses, Maintained uint64
	// Invalidations counts cache entries dropped by non-delta-expressible
	// writes, dependency changes, maintenance failures, and eviction.
	Invalidations uint64
	// Backlog is the number of committed delta tuples queued against cached
	// fixpoints but not yet folded in by a read.
	Backlog int
}

// HitRate is the fraction of cacheable constructor reads answered from the
// cache (hits plus incremental maintenance, over all cacheable reads), in
// [0, 1]; 0 before any read.
func (m MatViewStats) HitRate() float64 {
	served := m.Hits + m.Maintained
	total := served + m.Misses
	if total == 0 {
		return 0
	}
	return float64(served) / float64(total)
}

// String renders the state compactly: "ok", "ok generation=3 tail=17", or
// "degraded generation=3 tail=17: <cause>", each followed by a
// " matview entries=… hit-rate=… backlog=…" segment when materialization is
// enabled.
func (h Health) String() string {
	var s string
	switch {
	case !h.Durable:
		s = "ok"
	case h.Degraded:
		s = fmt.Sprintf("degraded generation=%d tail=%d: %v", h.Generation, h.TailRecords, h.Cause)
	default:
		s = fmt.Sprintf("ok generation=%d tail=%d", h.Generation, h.TailRecords)
	}
	if h.MatViews.Enabled {
		s += fmt.Sprintf(" matview entries=%d hit-rate=%.0f%% backlog=%d",
			h.MatViews.Entries, 100*h.MatViews.HitRate(), h.MatViews.Backlog)
	}
	if h.Storage.Enabled {
		s += fmt.Sprintf(" storage pool=%d/%d hit-rate=%.0f%% dirty=%d",
			h.Storage.PoolUsed, h.Storage.PoolPages, 100*h.Storage.HitRate(), h.Storage.DirtyPages)
	}
	return s
}

// Health reports whether the database is fully operational or degraded to
// read-only, the I/O failure that degraded it, the current checkpoint
// generation, and the materialized-view cache state. It is safe to call
// concurrently with reads and writes.
func (d *DB) Health() Health {
	var h Health
	if d.views != nil {
		s := d.views.Snapshot()
		h.MatViews = MatViewStats{
			Enabled:       true,
			Entries:       s.Entries,
			Hits:          s.Hits,
			Misses:        s.Misses,
			Maintained:    s.Maintained,
			Invalidations: s.Invalidations,
			Backlog:       s.Backlog,
		}
	}
	if d.pager != nil {
		st := d.pager.Stats()
		h.Storage = StorageStats{
			Enabled:             true,
			PoolPages:           st.PoolPages,
			PoolUsed:            st.PoolUsed,
			Hits:                st.Hits,
			Misses:              st.Misses,
			Evictions:           st.Evictions,
			WriteBacks:          st.WriteBacks,
			Overflows:           st.Overflows,
			DirtyPages:          st.DirtyPages,
			HeapSlots:           st.HeapSlots,
			LastCheckpointPages: st.LastCheckpointPages,
			LastCheckpointBytes: st.LastCheckpointBytes,
			Err:                 st.LastErr,
		}
	}
	if d.wal == nil {
		return h
	}
	h.Durable = true
	h.Generation = d.wal.Generation()
	h.TailRecords = d.wal.TailRecords()
	if cause := d.wal.Err(); cause != nil {
		h.Degraded = true
		h.Cause = cause
	}
	return h
}

// noteMutErr maps a failed mutation on a database whose write-ahead log has
// been poisoned onto the exported degraded-mode surface: the caller gets a
// *DegradedError (matching errors.Is(err, ErrReadOnly)) wrapping the
// poisoning I/O failure. Failures with a healthy log — key conflicts, guard
// violations, ErrClosed after Close — pass through untouched. The very
// first failing write and every one after it report the same way, so
// callers need exactly one branch.
func (d *DB) noteMutErr(err error) error {
	if err == nil || d.wal == nil {
		return err
	}
	if cause := d.wal.Err(); cause != nil {
		return &DegradedError{Cause: cause}
	}
	return err
}

// Close syncs and closes a durable database's write-ahead log; mutations
// after Close fail with ErrClosed, while queries keep answering from the
// in-memory state. It is a no-op (and returns nil) for a memory-only
// database. Close does not cut a checkpoint; the log tail replays on the
// next Open.
//
// Closing a degraded database does not report success: Close returns a
// *DegradedError carrying the poisoning failure, so an unconditional
// `defer db.Close()` still surfaces the data-loss cause somewhere.
func (d *DB) Close() error {
	if d.wal == nil {
		return nil
	}
	err := d.noteMutErr(d.wal.Close())
	if d.pager != nil {
		// The heap file needs no flush of its own: every committed mutation
		// is in the log, and dirty pages re-flush at the next checkpoint
		// after reopen.
		if cerr := d.pager.Close(); err == nil && cerr != nil {
			err = cerr
		}
	}
	return err
}

// ExecToContext compiles and runs a DBPL module with streaming SHOW output
// and cancellation. Module execution is serialized against other Exec calls;
// concurrent queries keep running against their snapshots while the module's
// statements execute, picking up each assignment as it is published.
func (d *DB) ExecToContext(ctx context.Context, out io.Writer, src string) error {
	m, err := parser.ParseModule(src)
	if err != nil {
		return wrapErr(err)
	}
	d.execMu.Lock()
	defer d.execMu.Unlock()

	// Declaration state mutates under the write lock so query snapshots
	// never observe a half-compiled module.
	d.mu.Lock()
	d.Checker.Strict = d.Strict
	d.Registry.Strict = d.Strict
	p, err := compile.CompileModuleInto(m, d.Checker, d.Registry, compile.Options{Strict: d.Strict})
	if err != nil {
		d.mu.Unlock()
		return wrapErr(err)
	}
	d.LastProgram = p
	rt, err := compile.NewRuntime(p, d.Store, out)
	if err != nil {
		d.mu.Unlock()
		return wrapErr(err)
	}
	// Share the accumulated environment so selectors and variables from
	// earlier modules stay visible.
	d.mergeEnv(rt.Env)
	rt.Env = d.env
	rt.Engine = d.Engine
	d.env.Ctx = ctx
	// The module may have declared new relations, selectors, or
	// constructors: cached plans resolved against the old declarations.
	// Cleared before the unlock so no query sees the new declarations but
	// a stale plan. Materialized views cached fixpoints of constructors the
	// module may have redeclared, so they reset with the plans.
	d.plans.clear()
	d.views.Reset()
	d.mu.Unlock()

	// Statements run outside the declaration lock: writes go through the
	// store's own synchronization, so queries proceed in parallel.
	applies := d.Engine.Applies.Load()
	defer func() {
		d.env.Ctx = nil
		d.recordStatsSince(d.Engine, applies)
	}()
	// Statement failures on a database whose log has been poisoned surface
	// as degraded-mode errors (the module's earlier statements that logged
	// successfully stay published — statements are individually atomic).
	return wrapErr(d.noteMutErr(rt.Run()))
}

// mergeEnv folds a freshly built runtime environment into the accumulated
// one and republishes the declaration snapshot.
func (d *DB) mergeEnv(src *eval.Env) {
	for k, v := range src.Selectors {
		d.env.Selectors[k] = v
	}
	for k, v := range src.RelTypes {
		d.env.RelTypes[k] = v
	}
	d.rebuildDecls()
}

// declSnapshot is an immutable copy of the accumulated declarations, shared
// by reference into every per-call query environment. The maps are never
// mutated after publication.
type declSnapshot struct {
	selectors map[string]*ast.SelectorDecl
	relTypes  map[string]schema.RelationType
	scalars   map[string]value.Value
	// consigs and recursive feed the optimizer pass pipeline: the resolved
	// constructor signatures accumulated by the type checker and the
	// constructors on cycles of the application graph.
	consigs   map[string]*typecheck.ConstructorSig
	recursive map[string]bool
}

// rebuildDecls republishes the declaration snapshot from d.env. Caller holds
// d.mu (or is still single-threaded in Open).
func (d *DB) rebuildDecls() {
	snap := &declSnapshot{
		selectors: make(map[string]*ast.SelectorDecl, len(d.env.Selectors)),
		relTypes:  make(map[string]schema.RelationType, len(d.env.RelTypes)),
		scalars:   make(map[string]value.Value, len(d.env.Scalars)),
		consigs:   make(map[string]*typecheck.ConstructorSig, len(d.Checker.Constructors)),
	}
	for k, v := range d.env.Selectors {
		snap.selectors[k] = v
	}
	for k, v := range d.env.RelTypes {
		snap.relTypes[k] = v
	}
	for k, v := range d.env.Scalars {
		snap.scalars[k] = v
	}
	for k, v := range d.Checker.Constructors {
		snap.consigs[k] = v
	}
	snap.recursive = optimizer.RecursiveFromSigs(snap.consigs)
	d.decls = snap
}

// baseCallEnv builds a private evaluation environment for one query — the
// published declaration snapshot (shared by reference — it is immutable)
// wired to a private engine — leaving the relation bindings to the caller.
// It returns the store pointer sampled under the same lock.
func (d *DB) baseCallEnv(ctx context.Context) (*eval.Env, *core.Engine, *store.Database) {
	d.mu.RLock()
	decls := d.decls
	st := d.Store
	mode := d.Engine.Mode
	maxRounds := d.Engine.MaxRounds
	reg := d.Registry
	d.mu.RUnlock()

	env := eval.NewEnv()
	env.Selectors = decls.selectors
	env.RelTypes = decls.relTypes
	// Scalars get per-call parameter bindings, so this map must be private.
	for k, v := range decls.scalars {
		env.Scalars[k] = v
	}
	if !d.noOptimize {
		// Selector applications over published relations answer from the
		// store's lazily built hash partitions instead of scanning.
		env.Paths = st
	}
	env.Ctx = ctx
	env.Parallelism = d.parallelism
	env.ParallelMinRows = d.parallelMinRows
	en := core.NewEngine(reg, env)
	en.Mode = mode
	en.MaxRounds = maxRounds
	en.Parallelism = d.parallelism
	if d.views != nil {
		en.Views = d.views
	}
	return env, en, st
}

// callEnv is baseCallEnv plus a snapshot of the relation variables. The
// environment is independent of the DB after this returns, so evaluation
// proceeds without holding any DB lock and writers cannot disturb it.
func (d *DB) callEnv(ctx context.Context) (*eval.Env, *core.Engine) {
	env, en, st := d.baseCallEnv(ctx)
	for name, rel := range st.Snapshot() {
		env.Rels[name] = rel
	}
	return env, en
}

// txCallEnv is callEnv with the relation bindings taken from a transaction's
// view (Begin snapshot plus the transaction's own writes) instead of the
// store's current state.
func (d *DB) txCallEnv(ctx context.Context, tx *store.Tx) (*eval.Env, *core.Engine) {
	env, en, _ := d.baseCallEnv(ctx)
	for _, name := range tx.Names() {
		if r, ok := tx.Get(name); ok {
			env.Rels[name] = r
		}
	}
	return env, en
}

// ApplyContext evaluates a constructor application on an explicit base
// relation with cancellation. Arguments may be *Relation, Value, string,
// int, or int64.
func (d *DB) ApplyContext(ctx context.Context, constructor string, base *Relation, args ...any) (*Relation, error) {
	resolved := make([]eval.Resolved, len(args))
	for i, a := range args {
		if rel, ok := a.(*Relation); ok {
			resolved[i] = eval.Resolved{Rel: rel}
			continue
		}
		v, err := toValue(a)
		if err != nil {
			return nil, err
		}
		resolved[i] = eval.Resolved{Scalar: v, IsScalar: true}
	}
	_, en := d.callEnv(ctx)
	out, err := en.ApplyContext(ctx, constructor, base, resolved)
	if err != nil {
		return nil, wrapErr(err)
	}
	d.recordStats(en)
	return out, nil
}

// toValue converts a Go scalar to a DBPL value.
func toValue(a any) (Value, error) {
	switch v := a.(type) {
	case Value:
		return v, nil
	case string:
		return Str(v), nil
	case int:
		return Int(int64(v)), nil
	case int64:
		return Int(v), nil
	case bool:
		return Bool(v), nil
	default:
		return Value{}, fmt.Errorf("dbpl: unsupported argument type %T", a)
	}
}

// LoadStore replaces the database's relation variables with those read from
// r (declarations executed via Exec are kept). Relations that existed only
// in the replaced store stop resolving in queries.
func (d *DB) LoadStore(r io.Reader) error {
	if d.pager != nil {
		// A Save-format image loads into a memory-engine store; swapping it
		// in would strand the page engine and write a memory snapshot into a
		// paged directory. Import through a memory session instead.
		return fmt.Errorf("dbpl: LoadStore is not supported on the paged storage engine (open a memory-engine session and re-insert, or replay the source modules)")
	}
	db, err := store.Load(r)
	if err != nil {
		return err
	}
	d.execMu.Lock()
	defer d.execMu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	// One store call moves the commit stream to the replacement: the
	// write-ahead log checkpoints its full state (on failure the old store
	// stays attached and durable), and the materialized views and follow
	// streams receive one reset — the views drop every entry and re-point at
	// the new store, the follow streams cut their followers off to
	// re-bootstrap.
	if err := d.Store.ReplaceWith(db); err != nil {
		return fmt.Errorf("dbpl: persisting replacement store: %w", d.noteMutErr(err))
	}
	d.useStore(db)
	// Cached plans resolved names against the replaced store.
	d.plans.clear()
	return nil
}

// useStore makes st the session's relation-variable store. Exec-path
// bindings of a previous store are dropped so they stop resolving (the next
// statement re-binds from st); selector applications on the exec path share
// st's physical access paths; st's variables type-check in queries without
// re-running their declaring modules. Caller holds d.mu, or is Open.
func (d *DB) useStore(st *store.Database) {
	d.Store = st
	st.SetParallelism(d.parallelism)
	d.env.Rels = make(map[string]*relation.Relation)
	if !d.noOptimize {
		d.env.Paths = st
	}
	for _, name := range st.Names() {
		if t, ok := st.Type(name); ok {
			d.Checker.Vars[name] = t
		}
	}
}
