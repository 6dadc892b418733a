// Package client is the network counterpart of the embedded dbpl API: a
// client.DB speaks the dbpld wire protocol and mirrors dbpl.DB method for
// method — Exec, Prepare/Stmt with positional parameters, streaming Rows,
// Begin/Tx, Explain, Health — so moving a program between an embedded
// database and a dbpld server is a one-constructor switch (dbpl.Open ↔
// client.Open). Sentinel errors survive the wire: errors.Is(err,
// dbpl.ErrReadOnly), dbpl.ErrLimit, dbpl.ErrClosed, dbpl.ErrTxDone, and
// dbpl.ErrStmtClosed hold against a remote database exactly as against an
// embedded one.
//
// A DB owns one connection, and the protocol is strict request/response, so
// methods serialize on an internal mutex; open one DB per goroutine-heavy
// worker (connections are cheap) rather than sharing a single one under
// contention. Rows fetch tuple batches lazily — the server materializes a
// snapshot but ships only what is pulled, so closing a cursor early costs
// one round trip, not the result set.
package client

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	dbpl "repro"

	"repro/internal/wire"
)

// DefaultFetchSize is how many tuples a Rows pulls per round trip.
const DefaultFetchSize = 256

// Option configures Open.
type Option func(*config)

type config struct {
	token       string
	dialTimeout time.Duration
	fetchSize   int
}

// WithToken presents an auth token during the handshake.
func WithToken(token string) Option { return func(c *config) { c.token = token } }

// WithDialTimeout bounds the TCP connect (default 5s).
func WithDialTimeout(d time.Duration) Option { return func(c *config) { c.dialTimeout = d } }

// WithFetchSize sets the tuples-per-round-trip of Rows (default
// DefaultFetchSize).
func WithFetchSize(n int) Option { return func(c *config) { c.fetchSize = n } }

// DB is a connection to a dbpld server, mirroring the embedded dbpl.DB.
type DB struct {
	mu     sync.Mutex
	conn   net.Conn
	f      *framer
	role   string
	closed bool

	fetchSize int
}

// Open dials a dbpld server and performs the protocol handshake.
func Open(addr string, opts ...Option) (*DB, error) {
	cfg := config{dialTimeout: 5 * time.Second, fetchSize: DefaultFetchSize}
	for _, o := range opts {
		o(&cfg)
	}
	conn, err := net.DialTimeout("tcp", addr, cfg.dialTimeout)
	if err != nil {
		return nil, err
	}
	f := newFramer(conn)
	role, err := wire.ClientHello(conn, f.br, cfg.token)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return &DB{conn: conn, f: f, role: role, fetchSize: cfg.fetchSize}, nil
}

// Role reports what the server announced in the handshake: "primary" or
// "replica".
func (c *DB) Role() string { return c.role }

// Close hangs up. Server-held state of this session (cursors, statements,
// open transactions) is released by the server on disconnect — transactions
// roll back.
func (c *DB) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.conn.Close()
}

// exchange runs one request/response round trip. TErr responses come back as
// *wire.RemoteError (carrying the sentinel mapping); any transport failure
// poisons the connection.
func (c *DB) exchange(ctx context.Context, typ byte, payload []byte, want byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, dbpl.ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if deadline, ok := ctx.Deadline(); ok {
		c.conn.SetDeadline(deadline)
		defer c.conn.SetDeadline(time.Time{})
	}
	resp, rerr, err := c.f.roundTrip(typ, payload)
	if err != nil {
		// The exchange died mid-flight; the stream position is unknown, so
		// the connection cannot be trusted for another frame.
		c.closed = true
		c.conn.Close()
		return nil, err
	}
	if rerr != nil {
		return nil, rerr
	}
	if resp.typ != want {
		c.closed = true
		c.conn.Close()
		return nil, fmt.Errorf("client: expected frame type %d, got %d", want, resp.typ)
	}
	return resp.payload, nil
}

// millisLeft converts a context deadline into the wire's timeout field.
func millisLeft(ctx context.Context) uint64 {
	d, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	ms := time.Until(d).Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return uint64(ms)
}

// encodeArgs appends the positional-argument block (count + scalars).
func encodeArgs(e *wire.Enc, args []any) error {
	e.Uvarint(uint64(len(args)))
	for _, a := range args {
		v, err := toValue(a)
		if err != nil {
			return err
		}
		e.Value(v)
	}
	return nil
}

// toValue converts a Go scalar to a DBPL value, mirroring the embedded API's
// accepted argument types.
func toValue(a any) (dbpl.Value, error) {
	switch v := a.(type) {
	case dbpl.Value:
		return v, nil
	case string:
		return dbpl.Str(v), nil
	case int:
		return dbpl.Int(int64(v)), nil
	case int64:
		return dbpl.Int(v), nil
	case bool:
		return dbpl.Bool(v), nil
	default:
		return dbpl.Value{}, fmt.Errorf("dbpl: unsupported argument type %T", a)
	}
}

// Exec runs a DBPL module on the server, returning its SHOW output.
func (c *DB) Exec(src string) (string, error) {
	return c.ExecContext(context.Background(), src)
}

// ExecContext is Exec with cancellation; the deadline also bounds server-side
// execution.
func (c *DB) ExecContext(ctx context.Context, src string) (string, error) {
	e := wire.NewEnc()
	e.Str(src)
	e.Uvarint(millisLeft(ctx))
	payload, err := e.Payload()
	if err != nil {
		return "", err
	}
	resp, err := c.exchange(ctx, wire.TExec, payload, wire.TExecResult)
	if err != nil {
		return "", err
	}
	return wire.NewDec(resp).Str()
}

// QueryContext evaluates a query, returning a streaming cursor. Positional
// parameters ($1, $2, …) bind from args as in the embedded API.
func (c *DB) QueryContext(ctx context.Context, src string, args ...any) (*Rows, error) {
	e := wire.NewEnc()
	e.Str(src)
	e.Uvarint(millisLeft(ctx))
	if err := encodeArgs(e, args); err != nil {
		return nil, err
	}
	payload, err := e.Payload()
	if err != nil {
		return nil, err
	}
	resp, err := c.exchange(ctx, wire.TQuery, payload, wire.TRowsHeader)
	if err != nil {
		return nil, err
	}
	return c.newRows(ctx, resp)
}

// Query is QueryContext without cancellation.
func (c *DB) Query(src string, args ...any) (*Rows, error) {
	return c.QueryContext(context.Background(), src, args...)
}

// Stmt is a server-side prepared statement.
type Stmt struct {
	c      *DB
	id     uint64
	params []string
	closed bool
}

// Prepare parses and plans a query on the server, returning a reusable
// statement handle.
func (c *DB) Prepare(src string) (*Stmt, error) {
	e := wire.NewEnc()
	e.Str(src)
	payload, err := e.Payload()
	if err != nil {
		return nil, err
	}
	resp, err := c.exchange(context.Background(), wire.TPrepare, payload, wire.TPrepared)
	if err != nil {
		return nil, err
	}
	d := wire.NewDec(resp)
	id, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	n, err := d.Count()
	if err != nil {
		return nil, err
	}
	params := make([]string, 0, n)
	for range n {
		p, err := d.Str()
		if err != nil {
			return nil, err
		}
		params = append(params, p)
	}
	return &Stmt{c: c, id: id, params: params}, nil
}

// Params returns the statement's parameter names in positional order.
func (s *Stmt) Params() []string { return s.params }

// QueryRows executes the statement with positional args, returning a cursor.
func (s *Stmt) QueryRows(ctx context.Context, args ...any) (*Rows, error) {
	if s.closed {
		return nil, dbpl.ErrStmtClosed
	}
	e := wire.NewEnc()
	e.Uvarint(s.id)
	e.Uvarint(millisLeft(ctx))
	if err := encodeArgs(e, args); err != nil {
		return nil, err
	}
	payload, err := e.Payload()
	if err != nil {
		return nil, err
	}
	resp, err := s.c.exchange(ctx, wire.TStmtQuery, payload, wire.TRowsHeader)
	if err != nil {
		return nil, err
	}
	return s.c.newRows(ctx, resp)
}

// Close releases the server-side statement.
func (s *Stmt) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	e := wire.NewEnc()
	e.Uvarint(s.id)
	payload, err := e.Payload()
	if err != nil {
		return err
	}
	_, err = s.c.exchange(context.Background(), wire.TStmtClose, payload, wire.TOK)
	return err
}

// Tx is a server-side snapshot transaction.
type Tx struct {
	c    *DB
	id   uint64
	done bool
}

// Begin starts a transaction on the server. Replicas refuse with
// dbpl.ErrReadOnly.
func (c *DB) Begin(ctx context.Context) (*Tx, error) {
	resp, err := c.exchange(ctx, wire.TBegin, nil, wire.TTxBegun)
	if err != nil {
		return nil, err
	}
	id, err := wire.NewDec(resp).Uvarint()
	if err != nil {
		return nil, err
	}
	return &Tx{c: c, id: id}, nil
}

// Exec runs module statements inside the transaction, returning SHOW output.
func (t *Tx) Exec(ctx context.Context, src string) (string, error) {
	if t.done {
		return "", dbpl.ErrTxDone
	}
	e := wire.NewEnc()
	e.Uvarint(t.id)
	e.Str(src)
	e.Uvarint(millisLeft(ctx))
	payload, err := e.Payload()
	if err != nil {
		return "", err
	}
	resp, err := t.c.exchange(ctx, wire.TTxExec, payload, wire.TExecResult)
	if err != nil {
		return "", err
	}
	return wire.NewDec(resp).Str()
}

// QueryRows evaluates a query against the transaction's view.
func (t *Tx) QueryRows(ctx context.Context, src string, args ...any) (*Rows, error) {
	if t.done {
		return nil, dbpl.ErrTxDone
	}
	e := wire.NewEnc()
	e.Uvarint(t.id)
	e.Str(src)
	e.Uvarint(millisLeft(ctx))
	if err := encodeArgs(e, args); err != nil {
		return nil, err
	}
	payload, err := e.Payload()
	if err != nil {
		return nil, err
	}
	resp, err := t.c.exchange(ctx, wire.TTxQuery, payload, wire.TRowsHeader)
	if err != nil {
		return nil, err
	}
	return t.c.newRows(ctx, resp)
}

func (t *Tx) end(commit bool) error {
	if t.done {
		return dbpl.ErrTxDone
	}
	typ := wire.TTxRollback
	if commit {
		typ = wire.TTxCommit
	}
	e := wire.NewEnc()
	e.Uvarint(t.id)
	payload, err := e.Payload()
	if err != nil {
		return err
	}
	if _, err := t.c.exchange(context.Background(), typ, payload, wire.TOK); err != nil {
		// A failed commit (e.g. a guard re-check) leaves the transaction
		// open on the server, mirroring the embedded semantics: the caller
		// may fix the offending write and retry, or Rollback.
		return err
	}
	t.done = true
	return nil
}

// Commit publishes the transaction's writes atomically.
func (t *Tx) Commit() error { return t.end(true) }

// Rollback discards the transaction's writes.
func (t *Tx) Rollback() error { return t.end(false) }

// Explain returns the server's rendered query plan.
func (c *DB) Explain(ctx context.Context, src string) (string, error) {
	return c.explain(ctx, src, false)
}

// ExplainAnalyze plans and executes the query, returning the plan annotated
// with runtime statistics.
func (c *DB) ExplainAnalyze(ctx context.Context, src string) (string, error) {
	return c.explain(ctx, src, true)
}

func (c *DB) explain(ctx context.Context, src string, analyze bool) (string, error) {
	e := wire.NewEnc()
	e.Str(src)
	e.Bool(analyze)
	e.Uvarint(millisLeft(ctx))
	payload, err := e.Payload()
	if err != nil {
		return "", err
	}
	resp, err := c.exchange(ctx, wire.TExplain, payload, wire.TExplainText)
	if err != nil {
		return "", err
	}
	return wire.NewDec(resp).Str()
}

// Health is the server's health report: durability state plus, for replicas,
// replication progress.
type Health struct {
	// Role is "primary" or "replica".
	Role string
	// Durable/Degraded/Cause/Generation/Tail mirror dbpl.Health on the
	// server's database.
	Durable    bool
	Degraded   bool
	Cause      string
	Generation uint64
	Tail       uint64
	// Applied, Connected, and StreamErr describe a replica's tail of the
	// primary; zero-valued on a primary.
	Applied   uint64
	Connected bool
	StreamErr string
	// Parallelism is the server executor's worker fan-out (dbpld -parallel).
	Parallelism uint64
	// Materialized-view cache state on the server: enabled flag, live
	// entries, read outcome counters, and queued-delta maintenance backlog.
	MatEnabled    bool
	MatEntries    uint64
	MatHits       uint64
	MatMisses     uint64
	MatMaintained uint64
	MatBacklog    uint64
}

// Health asks the server for its health report.
func (c *DB) Health(ctx context.Context) (Health, error) {
	resp, err := c.exchange(ctx, wire.THealth, nil, wire.THealthInfo)
	if err != nil {
		return Health{}, err
	}
	wh, err := wire.DecodeHealth(resp)
	if err != nil {
		return Health{}, err
	}
	return Health(wh), nil
}

// VarInfo describes one relation variable on the server.
type VarInfo struct {
	Name   string
	Tuples int
}

// Vars lists the server's relation variables and their cardinalities.
func (c *DB) Vars(ctx context.Context) ([]VarInfo, error) {
	resp, err := c.exchange(ctx, wire.TVars, nil, wire.TVarsInfo)
	if err != nil {
		return nil, err
	}
	d := wire.NewDec(resp)
	n, err := d.Count()
	if err != nil {
		return nil, err
	}
	vars := make([]VarInfo, 0, n)
	for range n {
		name, err := d.Str()
		if err != nil {
			return nil, err
		}
		count, err := d.Uvarint()
		if err != nil {
			return nil, err
		}
		vars = append(vars, VarInfo{Name: name, Tuples: int(count)})
	}
	return vars, nil
}
