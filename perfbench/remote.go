package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	dbpl "repro"
	"repro/client"
	"repro/internal/parser"
	"repro/internal/server"
)

// remoteLookup drives an in-process dbpld server over 127.0.0.1 from one
// client connection. The store holds the 11,110-edge tree of branching 10
// and depth 4 on the memory engine. A round of 20 operations is 16 prepared
// lookups Infront[hidden_by(X)] of an inner node's children, 2 one-shot
// queries with literal constants (which the server compiles every time), and
// 2 write transactions assigning the Notes relation.
type remoteLookup struct {
	seed int64
	db   *dbpl.DB
	dir  string
	srv  *server.Server
	// served is closed when the server's Serve returns.
	served chan struct{}
	addr   string
	conn   *remoteConn
	// probe is the lookup statement prepared on the served database, for
	// the embedded probes of a traced run.
	probe *dbpl.Stmt
}

// remoteConn is the client connection and its operation state. In a traced
// run it has a second connection through a counting relay, used by the
// traced rounds.
type remoteConn struct {
	rng    *rand.Rand
	db     *client.DB
	stmt   *client.Stmt
	relay  *relay
	viaDB  *client.DB
	viaSt  *client.Stmt
	writes int // acknowledged write transactions; the last one's id is writes
}

const (
	remoteBranching = 10
	remoteDepth     = 4
	// remoteInner is the number of inner nodes (those with children) of the
	// tree: 1 + 10 + 100 + 1000.
	remoteInner = 1111
	remoteNodes = 11111
	remoteRound = 20
	lookupQuery = `Infront[hidden_by(X)]`
)

func newRemoteLookup(seed int64) workload { return &remoteLookup{seed: seed} }

// children is the oracle for a lookup: node p's children in the level-order
// tree, computed arithmetically.
func remoteChildren(p int) map[string]bool {
	out := map[string]bool{}
	for c := remoteBranching*p + 1; c <= remoteBranching*p+remoteBranching && c < remoteNodes; c++ {
		out[part(c)] = true
	}
	return out
}

func (w *remoteLookup) build(ctx context.Context, dir string) error {
	db, err := dbpl.Open(durable(dir)...)
	if err != nil {
		return err
	}
	if _, err := db.ExecContext(ctx, cadSchema); err != nil {
		db.Close()
		return err
	}
	if err := insertEdges(db, treeEdges(remoteBranching, remoteDepth)); err != nil {
		db.Close()
		return err
	}
	return db.Close()
}

func (w *remoteLookup) setup(ctx context.Context, dir string) error {
	db, err := dbpl.Open(durable(dir)...)
	if err != nil {
		return err
	}
	w.db, w.dir = db, dir
	if _, err := db.ExecContext(ctx, cadSchema); err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = server.New(db, server.Options{})
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		w.srv.Serve(l) //nolint:errcheck // returns nil once Close shuts it
	}()
	w.addr = l.Addr().String()
	c := &remoteConn{rng: rand.New(rand.NewSource(w.seed))}
	w.conn = c
	if c.db, err = client.Open(w.addr); err != nil {
		return err
	}
	if c.stmt, err = c.db.Prepare(lookupQuery); err != nil {
		return err
	}
	// The first lookup builds the hash partition of Infront.
	if msg := c.lookup(ctx, c.stmt, 0); msg != "" {
		return fmt.Errorf("first lookup: %s", msg)
	}
	return nil
}

func (w *remoteLookup) teardown() error {
	var errs []error
	if c := w.conn; c != nil {
		if c.db != nil {
			errs = append(errs, c.db.Close())
		}
		if c.viaDB != nil {
			errs = append(errs, c.viaDB.Close())
		}
		if c.relay != nil {
			c.relay.stop()
		}
		w.conn = nil
	}
	if w.srv != nil {
		errs = append(errs, w.srv.Close())
		<-w.served
		w.srv = nil
	}
	errs = append(errs, w.db.Close())
	return errors.Join(errs...)
}

// lookup runs the prepared lookup of node p's children and compares the rows
// with the oracle, returning a description of any difference.
func (c *remoteConn) lookup(ctx context.Context, st *client.Stmt, p int) string {
	rows, err := st.QueryRows(ctx, part(p))
	if err != nil {
		return err.Error()
	}
	return checkRows(rows, part(p), remoteChildren(p))
}

// checkRows drains rows of Infront tuples and compares them with the
// expected children of front.
func checkRows(rows *client.Rows, front string, want map[string]bool) string {
	defer rows.Close()
	n := 0
	for rows.Next() {
		t := rows.Tuple()
		if t[0].AsString() != front || !want[t[1].AsString()] {
			return fmt.Sprintf("lookup %s: unexpected tuple %v", front, t)
		}
		n++
	}
	if err := rows.Err(); err != nil {
		return err.Error()
	}
	if n != len(want) {
		return fmt.Sprintf("lookup %s: %d children, want %d", front, n, len(want))
	}
	return ""
}

func (w *remoteLookup) run(ctx context.Context, deadline time.Time, rec *recorder) error {
	c := w.conn
	if rec.traced {
		var err error
		if w.probe, err = w.db.Prepare(lookupQuery); err != nil {
			return err
		}
		if c.relay, err = startRelay(w.addr, rec); err != nil {
			return err
		}
		if c.viaDB, err = client.Open(c.relay.addr()); err != nil {
			return err
		}
		if c.viaSt, err = c.viaDB.Prepare(lookupQuery); err != nil {
			return err
		}
	}
	return loop(deadline, rec, remoteRound, func(traced bool) error {
		w.round(ctx, c, rec, traced)
		return nil
	})
}

// round runs one round of operations on connection c: writes at positions
// 5 and 15, one-shot queries at 10 (a lookup) and 19 (the latest note),
// prepared lookups elsewhere.
func (w *remoteLookup) round(ctx context.Context, c *remoteConn, rec *recorder, traced bool) {
	db, st := c.db, c.stmt
	if traced {
		db, st = c.viaDB, c.viaSt
	}
	for i := 0; i < remoteRound; i++ {
		switch i {
		case 5, 15:
			w.write(ctx, c, db, rec, traced)
		case 10:
			p := c.rng.Intn(remoteInner)
			src := fmt.Sprintf(`Infront[hidden_by(%q)]`, part(p))
			w.read(rec, c, traced, "client.DB.QueryContext", func() (*client.Rows, error) {
				return db.QueryContext(ctx, src)
			}, func(rows *client.Rows) string { return checkRows(rows, part(p), remoteChildren(p)) })
			if traced {
				w.compileProbe(rec, src)
			}
		case 19:
			src := fmt.Sprintf(`{EACH n IN Notes: n.id = %d}`, c.writes)
			w.read(rec, c, traced, "client.DB.QueryContext", func() (*client.Rows, error) {
				return db.QueryContext(ctx, src)
			}, func(rows *client.Rows) string { return checkNote(rows, c) })
		default:
			p := c.rng.Intn(remoteInner)
			w.read(rec, c, traced, "client.Stmt.QueryRows", func() (*client.Rows, error) {
				return st.QueryRows(ctx, part(p))
			}, func(rows *client.Rows) string { return checkRows(rows, part(p), remoteChildren(p)) })
			if traced {
				w.lookupProbe(ctx, rec, p)
			}
		}
	}
}

// read runs one remote query and checks its rows.
func (w *remoteLookup) read(rec *recorder, c *remoteConn, traced bool, name string,
	query func() (*client.Rows, error), check func(*client.Rows) string) {
	var msg string
	op := func() error {
		rows, err := query()
		if err != nil {
			return err
		}
		msg = check(rows)
		return nil
	}
	var d time.Duration
	var frames, bytes int64
	var err error
	if traced {
		d, frames, bytes, err = c.relay.traced(rec, name, op)
	} else {
		start := time.Now()
		err = op()
		d = time.Since(start)
	}
	if !rec.op(err) {
		return
	}
	rec.read(d)
	if msg != "" {
		rec.wrongf("%s", msg)
	}
	if traced {
		rec.add("reads", 1)
		rec.add("read_frames", float64(frames))
		rec.add("read_bytes", float64(bytes))
	} else if rec.traced && name == "client.Stmt.QueryRows" {
		rec.sample("remote_read_ns", float64(d))
	}
}

// checkNote checks that the note query returned exactly the connection's
// latest acknowledged write.
func checkNote(rows *client.Rows, c *remoteConn) string {
	defer rows.Close()
	n := 0
	for rows.Next() {
		t := rows.Tuple()
		if t[0].AsInt() != int64(c.writes) || t[1].AsString() != noteVal(c.writes) {
			return fmt.Sprintf("Notes: read %v, want <%d, %q>", t, c.writes, noteVal(c.writes))
		}
		n++
	}
	if err := rows.Err(); err != nil {
		return err.Error()
	}
	if n != 1 {
		return fmt.Sprintf("Notes: %d tuples for id %d, want 1", n, c.writes)
	}
	return ""
}

func noteVal(id int) string { return fmt.Sprintf("note-%d", id) }

// write assigns the Notes relation in a transaction: Begin, Exec of a
// one-assignment module, Commit.
func (w *remoteLookup) write(ctx context.Context, c *remoteConn, db *client.DB, rec *recorder, traced bool) {
	id := c.writes + 1
	src := fmt.Sprintf("MODULE w; Notes := {<%d, %q>}; END w.", id, noteVal(id))
	tx := func() error {
		t, err := db.Begin(ctx)
		if err != nil {
			return err
		}
		if _, err := t.Exec(ctx, src); err != nil {
			t.Rollback()
			return err
		}
		return t.Commit()
	}
	var d time.Duration
	var frames int64
	var err error
	var log0 int64
	var gen0 uint64
	if traced {
		gen0 = w.db.Health().Generation
		log0 = logSize(w.dir, gen0)
		d, frames, _, err = c.relay.traced(rec, "client.Tx", tx)
	} else {
		start := time.Now()
		err = tx()
		d = time.Since(start)
	}
	if !rec.op(err) {
		return
	}
	rec.commit(d)
	c.writes = id
	if traced {
		rec.add("commits", 1)
		rec.add("commit_frames", float64(frames))
		if w.db.Health().Generation == gen0 {
			rec.sample("log_bytes", float64(logSize(w.dir, gen0)-log0))
		}
	}
}

// lookupProbe runs the lookup of node p on the served database directly: its
// time is the embedded baseline of server.overhead_us, and its plan counters
// give the access paths a lookup takes.
func (w *remoteLookup) lookupProbe(ctx context.Context, rec *recorder, p int) {
	start := time.Now()
	if _, err := w.probe.Query(ctx, part(p)); err != nil {
		rec.wrongf("embedded lookup: %v", err)
		return
	}
	rec.sample("embedded_read_ns", float64(time.Since(start)))
	plan, err := w.probe.ExplainQuery(ctx, part(p))
	if err != nil {
		rec.wrongf("embedded explain: %v", err)
		return
	}
	rec.add("probes", 1)
	for _, op := range plan.Analyze.Operators {
		rec.add("rows_in", float64(op.RowsIn))
	}
	rec.add("lookups", float64(plan.Analyze.PartitionLookups))
	rec.add("scans", float64(plan.Analyze.Scans))
}

// compileProbe times the compilation of a one-shot text on the served
// database: DB.Prepare, and the parser alone.
func (w *remoteLookup) compileProbe(rec *recorder, src string) {
	start := time.Now()
	st, err := w.db.Prepare(src)
	if err != nil {
		rec.wrongf("prepare %s: %v", src, err)
		return
	}
	rec.sample("prepare_ns", float64(time.Since(start)))
	st.Close()
	start = time.Now()
	if _, err := parser.ParseRange(src); err != nil {
		rec.wrongf("parse %s: %v", src, err)
		return
	}
	rec.sample("parse_ns", float64(time.Since(start)))
}

func (w *remoteLookup) verify(ctx context.Context, dir string, rec *recorder) error {
	writes := w.conn.writes
	if err := w.teardown(); err != nil {
		return err
	}
	db, err := dbpl.Open(durable(dir)...)
	if err != nil {
		return err
	}
	defer db.Close()
	if rel, ok := db.Relation("Infront"); !ok || rel.Len() != remoteNodes-1 {
		rec.wrongf("reopened Infront lost tuples")
	}
	rel, ok := db.Relation("Notes")
	want := dbpl.NewTuple(dbpl.Int(int64(writes)), dbpl.Str(noteVal(writes)))
	if !ok || rel.Len() != 1 || !rel.Contains(want) {
		rec.wrongf("reopened Notes lacks the last acknowledged write %v", want)
	}
	return nil
}

func (w *remoteLookup) layers(rec *recorder) map[string]Metric {
	m := zeroLayers()
	m["wire.round_trips_per_read"] = Metric{rec.ratio("read_frames", "reads"), "count"}
	m["wire.bytes_per_read"] = Metric{rec.ratio("read_bytes", "reads"), "B"}
	m["wire.round_trips_per_commit"] = Metric{rec.ratio("commit_frames", "commits"), "count"}
	m["server.overhead_us"] = Metric{(median(rec.samplesOf("remote_read_ns")) - median(rec.samplesOf("embedded_read_ns"))) / 1e3, "us"}
	m["stmt.prepare_us"] = Metric{median(rec.samplesOf("prepare_ns")) / 1e3, "us"}
	m["parser.parse_us"] = Metric{median(rec.samplesOf("parse_ns")) / 1e3, "us"}
	m["eval.rows_in_per_read"] = Metric{rec.ratio("rows_in", "probes"), "count"}
	m["accesspath.lookups_per_read"] = Metric{rec.ratio("lookups", "probes"), "count"}
	m["accesspath.scans_per_read"] = Metric{rec.ratio("scans", "probes"), "count"}
	m["wal.log_bytes_per_commit"] = Metric{median(rec.samplesOf("log_bytes")), "B"}
	return m
}
