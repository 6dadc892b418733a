package server

import (
	"bufio"
	"bytes"
	"context"
	"crypto/subtle"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	dbpl "repro"

	"repro/internal/store"
	"repro/internal/value"
	"repro/internal/wal"
	"repro/internal/wire"
)

// session is one client connection. The protocol is strict request/response,
// so a single goroutine owns the read loop, the dispatch, and the response
// writes; stateMu exists only for the drain handshake with Shutdown, which
// runs on another goroutine and needs a consistent view of "is this session
// idle" (no open cursors or transactions, not mid-request).
type session struct {
	srv  *Server
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	// ctx is canceled by hardClose; per-request contexts derive from it.
	ctx    context.Context
	cancel context.CancelFunc

	stateMu  sync.Mutex
	busy     bool // mid-request on the session goroutine
	draining bool // Shutdown observed: refuse new work, finish open work
	closed   bool

	nextID  uint64
	cursors map[uint64]*cursor
	stmts   map[uint64]*dbpl.Stmt
	txs     map[uint64]*dbpl.Tx
}

// cursor is a server-held streaming result: the materialized snapshot plus
// the client's fetch position. The client pulls batches with TFetch, so the
// server ships nothing it has not been asked for. cancel releases the
// cursor's context when it is dropped — the context must outlive the request
// that opened it, because the rows iterate under it across many fetches.
type cursor struct {
	rows   *dbpl.Rows
	cols   []string
	cancel context.CancelFunc
}

func newSession(s *Server, conn net.Conn) *session {
	ctx, cancel := context.WithCancel(context.Background())
	return &session{
		srv:     s,
		conn:    conn,
		br:      bufio.NewReader(conn),
		bw:      bufio.NewWriter(conn),
		ctx:     ctx,
		cancel:  cancel,
		cursors: make(map[uint64]*cursor),
		stmts:   make(map[uint64]*dbpl.Stmt),
		txs:     make(map[uint64]*dbpl.Tx),
	}
}

// refuse rejects a connection that never got a session slot: one error frame,
// then close. The client's handshake read surfaces it as a *RemoteError.
func (s *session) refuse(code, msg string) {
	// Consume the client's hello before answering: refusals happen before the
	// handshake, and closing while the hello is still in flight would reset
	// the connection and discard the buffered error frame.
	s.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	wire.ReadFrame(s.br) //nolint:errcheck // best effort; the refusal follows regardless
	wire.WriteFrame(s.bw, wire.TErr, wire.EncodeErr(code, msg))
	s.bw.Flush()
	s.conn.Close()
	s.cancel()
}

// beginDrain is Shutdown's entry point: refuse new work from now on, and if
// the session is already idle — not mid-request, no cursors, no transactions
// — close it immediately (waking a read blocked on the next request).
func (s *session) beginDrain() {
	s.stateMu.Lock()
	s.draining = true
	idle := !s.busy && len(s.cursors) == 0 && len(s.txs) == 0
	s.stateMu.Unlock()
	if idle {
		s.hardClose()
	}
}

// hardClose force-terminates the session: cancel in-flight work and close the
// socket. The session goroutine's read fails and its cleanup runs.
func (s *session) hardClose() {
	s.stateMu.Lock()
	already := s.closed
	s.closed = true
	s.stateMu.Unlock()
	if already {
		return
	}
	s.cancel()
	s.conn.Close()
}

// role reports what this server announces in the handshake and in health.
func (s *session) role() string {
	if s.srv.opts.Replica != nil {
		return "replica"
	}
	return "primary"
}

// serve runs the session to completion: handshake, then the request loop.
func (s *session) serve() {
	defer func() {
		s.hardClose()
		// Release everything the client left open, in dependency order:
		// cursors free WithMaxOpenRows slots, transactions roll back their
		// overlays, statements last.
		for id, c := range s.cursors {
			c.rows.Close()
			c.cancel()
			delete(s.cursors, id)
		}
		for id, tx := range s.txs {
			tx.Rollback()
			delete(s.txs, id)
		}
		for id, st := range s.stmts {
			st.Close()
			delete(s.stmts, id)
		}
	}()

	if err := s.handshake(); err != nil {
		s.srv.logf("dbpld: %s: handshake: %v", s.conn.RemoteAddr(), err)
		return
	}

	for {
		typ, payload, err := wire.ReadFrame(s.br)
		if err != nil {
			return // client went away (or drain/hardClose closed the socket)
		}
		s.stateMu.Lock()
		if s.closed {
			s.stateMu.Unlock()
			return
		}
		draining := s.draining
		s.busy = true
		s.stateMu.Unlock()

		d := wire.NewDec(payload)
		if draining && !drainAllowed(typ) {
			err = s.respondErr(wire.CodeShutdown, errors.New("dbpld: server is shutting down; no new work"))
		} else if err = s.dispatch(typ, d); err != nil && d.Err() != nil {
			// A malformed request is answered like any failed one; the
			// handler returned before writing a response.
			err = s.respondErr(wire.CodeProto, fmt.Errorf("dbpld: malformed request: %w", err))
		}

		s.stateMu.Lock()
		s.busy = false
		done := s.draining && len(s.cursors) == 0 && len(s.txs) == 0
		s.stateMu.Unlock()
		if err != nil {
			s.srv.logf("dbpld: %s: %v", s.conn.RemoteAddr(), err)
			return
		}
		if done {
			return // drained: last cursor/tx released, hang up
		}
	}
}

// drainAllowed lists the operations a draining server still serves: anything
// that finishes open work (fetching and closing cursors, ending transactions,
// closing statements) plus read-only introspection, so an in-flight streaming
// result drains deterministically instead of truncating.
func drainAllowed(typ byte) bool {
	switch typ {
	case wire.TFetch, wire.TRowsClose, wire.TStmtClose,
		wire.TTxCommit, wire.TTxRollback,
		wire.THealth, wire.TVars:
		return true
	}
	return false
}

// handshake validates THello (magic, version, constant-time token compare)
// and answers TServerHello with the serving role.
func (s *session) handshake() error {
	typ, payload, err := wire.ReadFrame(s.br)
	if err != nil {
		return err
	}
	if typ != wire.THello {
		s.respondErr(wire.CodeProto, fmt.Errorf("expected hello, got frame type %d", typ))
		return fmt.Errorf("expected THello, got %d", typ)
	}
	d := wire.NewDec(payload)
	magic, err := d.Str()
	if err != nil {
		return err
	}
	version, err := d.Uvarint()
	if err != nil {
		return err
	}
	token, err := d.Str()
	if err != nil {
		return err
	}
	if magic != wire.ProtoMagic {
		s.respondErr(wire.CodeProto, errors.New("dbpld: not a dbpl wire client"))
		return errors.New("bad magic")
	}
	if version != wire.ProtoVersion {
		s.respondErr(wire.CodeProto, fmt.Errorf("dbpld: protocol version %d not supported (server speaks %d)", version, wire.ProtoVersion))
		return errors.New("bad version")
	}
	if want := s.srv.opts.AuthToken; want != "" {
		if subtle.ConstantTimeCompare([]byte(token), []byte(want)) != 1 {
			s.respondErr(wire.CodeAuth, errors.New("dbpld: authentication failed"))
			return errors.New("bad token")
		}
	}
	e := wire.NewEnc()
	e.Str(s.role())
	return s.respond(wire.TServerHello, e)
}

// respond writes one response frame and flushes.
func (s *session) respond(typ byte, e *wire.Enc) error {
	payload, err := e.Payload()
	if err != nil {
		return err
	}
	if err := wire.WriteFrame(s.bw, typ, payload); err != nil {
		return err
	}
	return s.bw.Flush()
}

// respondErr maps err onto a TErr frame. A nil code picks one with codeFor.
func (s *session) respondErr(code string, err error) error {
	if code == "" {
		code = codeFor(err)
	}
	if werr := wire.WriteFrame(s.bw, wire.TErr, wire.EncodeErr(code, err.Error())); werr != nil {
		return werr
	}
	return s.bw.Flush()
}

// ok answers with an empty TOK frame.
func (s *session) ok() error {
	if err := wire.WriteFrame(s.bw, wire.TOK, nil); err != nil {
		return err
	}
	return s.bw.Flush()
}

// dispatch handles one request frame. It returns an error only for transport
// failures and malformed requests (d.Err() set; returned as soon as met,
// before any response is written) — session-API errors go back to the client
// as TErr and the connection lives on.
func (s *session) dispatch(typ byte, d *wire.Dec) error {
	switch typ {
	case wire.TExec:
		return s.handleExec(d)
	case wire.TQuery:
		return s.handleQuery(d)
	case wire.TPrepare:
		return s.handlePrepare(d)
	case wire.TStmtQuery:
		return s.handleStmtQuery(d)
	case wire.TStmtClose:
		return s.handleStmtClose(d)
	case wire.TFetch:
		return s.handleFetch(d)
	case wire.TRowsClose:
		return s.handleRowsClose(d)
	case wire.TBegin:
		return s.handleBegin()
	case wire.TTxExec:
		return s.handleTxExec(d)
	case wire.TTxQuery:
		return s.handleTxQuery(d)
	case wire.TTxCommit:
		return s.handleTxEnd(d, true)
	case wire.TTxRollback:
		return s.handleTxEnd(d, false)
	case wire.TExplain:
		return s.handleExplain(d)
	case wire.THealth:
		return s.handleHealth()
	case wire.TVars:
		return s.handleVars()
	case wire.TFollow:
		return s.handleFollow()
	default:
		return s.respondErr(wire.CodeProto, fmt.Errorf("dbpld: unexpected frame type %d", typ))
	}
}

// decodeArgs reads a uvarint count followed by that many scalars.
func decodeArgs(d *wire.Dec) ([]any, error) {
	n, err := d.Count()
	if err != nil {
		return nil, err
	}
	args := make([]any, 0, n)
	for range n {
		v, err := d.Value()
		if err != nil {
			return nil, err
		}
		args = append(args, v)
	}
	return args, nil
}

func (s *session) handleExec(d *wire.Dec) error {
	src, err := d.Str()
	if err != nil {
		return err
	}
	millis, err := d.Uvarint()
	if err != nil {
		return err
	}
	if s.srv.opts.Replica != nil {
		if roErr := replicaModuleError(src); roErr != nil {
			return s.respondErr("", roErr)
		}
	}
	ctx, cancel := timeoutCtx(s.ctx, millis)
	defer cancel()
	out, err := s.srv.db.ExecContext(ctx, src)
	if err != nil {
		return s.respondErr("", err)
	}
	e := wire.NewEnc()
	e.Str(out)
	return s.respond(wire.TExecResult, e)
}

// runQuery runs one cursor-opening query and answers with the cursor header
// or the error. The client's timeout bounds the evaluation only — the timer
// is disarmed once the result is materialized — while the context's cancel
// is tied to the cursor's lifetime, since the rows keep iterating under it
// across later fetches.
func (s *session) runQuery(millis uint64, query func(context.Context) (*dbpl.Rows, error)) error {
	ctx, cancel := context.WithCancel(s.ctx)
	var timer *time.Timer
	if millis > 0 {
		timer = time.AfterFunc(time.Duration(millis)*time.Millisecond, cancel)
	}
	rows, err := query(ctx)
	if timer != nil {
		timer.Stop()
	}
	if err != nil {
		cancel()
		return s.respondErr("", err)
	}
	return s.openCursor(rows, cancel)
}

// openCursor registers rows under a fresh id and answers with the header.
// The per-session cap guards the server's memory against one client opening
// unbounded cursors; the embedded DB's own WithMaxOpenRows cap (shared by all
// sessions) is enforced underneath by QueryRows itself.
func (s *session) openCursor(rows *dbpl.Rows, cancel context.CancelFunc) error {
	if max := s.srv.opts.MaxOpenRows; max > 0 {
		s.stateMu.Lock()
		over := len(s.cursors) >= max
		s.stateMu.Unlock()
		if over {
			rows.Close()
			cancel()
			return s.respondErr("", &dbpl.LimitError{Resource: "session cursors", Limit: max})
		}
	}
	s.nextID++
	id := s.nextID
	c := &cursor{rows: rows, cols: rows.Columns(), cancel: cancel}
	s.stateMu.Lock()
	s.cursors[id] = c
	s.stateMu.Unlock()
	e := wire.NewEnc()
	e.Uvarint(id)
	e.Uvarint(uint64(len(c.cols)))
	for _, col := range c.cols {
		e.Str(col)
	}
	e.Uvarint(uint64(rows.Len()))
	return s.respond(wire.TRowsHeader, e)
}

func (s *session) handleQuery(d *wire.Dec) error {
	src, err := d.Str()
	if err != nil {
		return err
	}
	millis, err := d.Uvarint()
	if err != nil {
		return err
	}
	args, err := decodeArgs(d)
	if err != nil {
		return err
	}
	return s.runQuery(millis, func(ctx context.Context) (*dbpl.Rows, error) {
		st, err := s.srv.db.Prepare(src)
		if err != nil {
			return nil, err
		}
		defer st.Close() // the cursor holds the materialized result; the stmt can go
		return st.QueryRows(ctx, args...)
	})
}

func (s *session) handlePrepare(d *wire.Dec) error {
	src, err := d.Str()
	if err != nil {
		return err
	}
	st, err := s.srv.db.Prepare(src)
	if err != nil {
		return s.respondErr("", err)
	}
	s.nextID++
	id := s.nextID
	s.stmts[id] = st
	params := st.Params()
	e := wire.NewEnc()
	e.Uvarint(id)
	e.Uvarint(uint64(len(params)))
	for _, p := range params {
		e.Str(p)
	}
	return s.respond(wire.TPrepared, e)
}

func (s *session) handleStmtQuery(d *wire.Dec) error {
	id, err := d.Uvarint()
	if err != nil {
		return err
	}
	millis, err := d.Uvarint()
	if err != nil {
		return err
	}
	args, err := decodeArgs(d)
	if err != nil {
		return err
	}
	st, ok := s.stmts[id]
	if !ok {
		return s.respondErr("", dbpl.ErrStmtClosed)
	}
	return s.runQuery(millis, func(ctx context.Context) (*dbpl.Rows, error) {
		return st.QueryRows(ctx, args...)
	})
}

func (s *session) handleStmtClose(d *wire.Dec) error {
	id, err := d.Uvarint()
	if err != nil {
		return err
	}
	if st, ok := s.stmts[id]; ok {
		st.Close()
		delete(s.stmts, id)
	}
	return s.ok()
}

func (s *session) handleFetch(d *wire.Dec) error {
	id, err := d.Uvarint()
	if err != nil {
		return err
	}
	max, err := d.Uvarint()
	if err != nil {
		return err
	}
	if max == 0 {
		max = 128
	}
	s.stateMu.Lock()
	c, ok := s.cursors[id]
	s.stateMu.Unlock()
	if !ok {
		return s.respondErr(wire.CodeClosed, errors.New("dbpld: cursor is closed"))
	}
	// max is the client's word: it bounds the batch, but sizes no allocation
	// past the client's default fetch size.
	tuples := make([]value.Tuple, 0, min(max, 256))
	for uint64(len(tuples)) < max && c.rows.Next() {
		// Rows reuses no buffers — Tuple() hands out the relation's own
		// tuple, safe to keep until encoded below.
		tuples = append(tuples, c.rows.Tuple())
	}
	done := uint64(len(tuples)) < max
	if done {
		if err := c.rows.Err(); err != nil {
			s.dropCursor(id)
			return s.respondErr("", err)
		}
		s.dropCursor(id)
	}
	e := wire.NewEnc()
	e.Uvarint(uint64(len(tuples)))
	for _, tp := range tuples {
		for _, v := range tp {
			e.Value(v)
		}
	}
	e.Bool(done)
	return s.respond(wire.TRowsBatch, e)
}

// dropCursor closes and forgets one cursor, releasing its limit slots.
func (s *session) dropCursor(id uint64) {
	s.stateMu.Lock()
	c, ok := s.cursors[id]
	delete(s.cursors, id)
	s.stateMu.Unlock()
	if ok {
		c.rows.Close()
		c.cancel()
	}
}

func (s *session) handleRowsClose(d *wire.Dec) error {
	id, err := d.Uvarint()
	if err != nil {
		return err
	}
	s.dropCursor(id)
	return s.ok()
}

func (s *session) handleBegin() error {
	if s.srv.opts.Replica != nil {
		return s.respondErr("", &readOnlyError{op: "BEGIN"})
	}
	tx, err := s.srv.db.Begin(s.ctx)
	if err != nil {
		return s.respondErr("", err)
	}
	s.nextID++
	id := s.nextID
	s.stateMu.Lock()
	s.txs[id] = tx
	s.stateMu.Unlock()
	e := wire.NewEnc()
	e.Uvarint(id)
	return s.respond(wire.TTxBegun, e)
}

func (s *session) tx(id uint64) (*dbpl.Tx, bool) {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	tx, ok := s.txs[id]
	return tx, ok
}

func (s *session) handleTxExec(d *wire.Dec) error {
	id, err := d.Uvarint()
	if err != nil {
		return err
	}
	src, err := d.Str()
	if err != nil {
		return err
	}
	millis, err := d.Uvarint()
	if err != nil {
		return err
	}
	tx, ok := s.tx(id)
	if !ok {
		return s.respondErr("", dbpl.ErrTxDone)
	}
	ctx, cancel := timeoutCtx(s.ctx, millis)
	defer cancel()
	out, err := tx.Exec(ctx, src)
	if err != nil {
		return s.respondErr("", err)
	}
	e := wire.NewEnc()
	e.Str(out)
	return s.respond(wire.TExecResult, e)
}

func (s *session) handleTxQuery(d *wire.Dec) error {
	id, err := d.Uvarint()
	if err != nil {
		return err
	}
	src, err := d.Str()
	if err != nil {
		return err
	}
	millis, err := d.Uvarint()
	if err != nil {
		return err
	}
	args, err := decodeArgs(d)
	if err != nil {
		return err
	}
	tx, ok := s.tx(id)
	if !ok {
		return s.respondErr("", dbpl.ErrTxDone)
	}
	return s.runQuery(millis, func(ctx context.Context) (*dbpl.Rows, error) {
		return tx.QueryRows(ctx, src, args...)
	})
}

func (s *session) handleTxEnd(d *wire.Dec, commit bool) error {
	id, err := d.Uvarint()
	if err != nil {
		return err
	}
	tx, ok := s.tx(id)
	if !ok {
		return s.respondErr("", dbpl.ErrTxDone)
	}
	if commit {
		err = tx.Commit()
	} else {
		err = tx.Rollback()
	}
	if err != nil {
		// A failed guard re-check leaves the transaction open on purpose
		// (the client may fix the write and retry Commit), so only a
		// completed end releases the server-held handle.
		return s.respondErr("", err)
	}
	s.stateMu.Lock()
	delete(s.txs, id)
	s.stateMu.Unlock()
	return s.ok()
}

func (s *session) handleExplain(d *wire.Dec) error {
	src, err := d.Str()
	if err != nil {
		return err
	}
	analyze, err := d.Bool()
	if err != nil {
		return err
	}
	millis, err := d.Uvarint()
	if err != nil {
		return err
	}
	ctx, cancel := timeoutCtx(s.ctx, millis)
	defer cancel()
	var plan *dbpl.Plan
	if analyze {
		plan, err = s.srv.db.ExplainQuery(ctx, src)
	} else {
		plan, err = s.srv.db.Explain(ctx, src)
	}
	if err != nil {
		return s.respondErr("", err)
	}
	e := wire.NewEnc()
	e.Str(plan.Text())
	return s.respond(wire.TExplainText, e)
}

func (s *session) handleHealth() error {
	dh := s.srv.db.Health()
	h := wire.Health{
		Role:        s.role(),
		Durable:     dh.Durable,
		Degraded:    dh.Degraded,
		Generation:  dh.Generation,
		Tail:        uint64(dh.TailRecords),
		Parallelism: uint64(s.srv.db.Parallelism()),
	}
	if dh.Cause != nil {
		h.Cause = dh.Cause.Error()
	}
	if mv := dh.MatViews; mv.Enabled {
		h.MatEnabled = true
		h.MatEntries = uint64(mv.Entries)
		h.MatHits = mv.Hits
		h.MatMisses = mv.Misses
		h.MatMaintained = mv.Maintained
		h.MatBacklog = uint64(mv.Backlog)
	}
	if r := s.srv.opts.Replica; r != nil {
		st := r.Status()
		h.Applied = st.Applied
		h.Connected = st.Connected
		if st.LastErr != nil {
			h.StreamErr = st.LastErr.Error()
		}
	}
	if err := wire.WriteFrame(s.bw, wire.THealthInfo, h.Encode()); err != nil {
		return err
	}
	return s.bw.Flush()
}

func (s *session) handleVars() error {
	st := s.srv.db.StoreSnapshot()
	names := st.Names()
	e := wire.NewEnc()
	e.Uvarint(uint64(len(names)))
	for _, name := range names {
		n := 0
		if rel, ok := st.Get(name); ok {
			n = rel.Len()
		}
		e.Str(name)
		e.Uvarint(uint64(n))
	}
	return s.respond(wire.TVarsInfo, e)
}

// handleFollow flips the connection into a replication stream: the state
// captured at attach time as TFollowSnap, then one TFollowBatch per committed
// batch, until the client disconnects, the server drains, or the follower is
// cut off — by falling FollowBuffer batches behind or by a store replacement.
// A cut ends the stream with a "behind" error and the follower reconnects to
// re-bootstrap (the same path that catches up over a checkpoint that
// compacted the log).
func (s *session) handleFollow() error {
	var snap bytes.Buffer
	f := &follower{c: make(chan []store.Mutation, s.srv.opts.FollowBuffer)}
	st := s.srv.db.StoreSnapshot()
	if err := st.Attach(f, &snap); err != nil {
		return s.respondErr("", err)
	}
	defer st.Detach(f)
	if err := wire.WriteFrame(s.bw, wire.TFollowSnap, snap.Bytes()); err != nil {
		return err
	}
	if err := s.bw.Flush(); err != nil {
		return err
	}
	// The session goroutine now blocks on committed batches instead of
	// request frames; a client that hangs up is noticed by the failing
	// write, a drain by drainCh.
	for {
		select {
		case batch, live := <-f.c:
			if !live {
				return s.respondErr(wire.CodeBehind, fmt.Errorf("dbpld: follower fell more than %d batches behind or the store was replaced; reconnect to re-bootstrap", s.srv.opts.FollowBuffer))
			}
			payload, err := wal.EncodeBatch(batch)
			if err != nil {
				return s.respondErr(wire.CodeInternal, err)
			}
			if err := wire.WriteFrame(s.bw, wire.TFollowBatch, payload); err != nil {
				return err
			}
			if err := s.bw.Flush(); err != nil {
				return err
			}
		case <-s.srv.drainCh:
			return s.respondErr(wire.CodeShutdown, errors.New("dbpld: server is shutting down"))
		case <-s.ctx.Done():
			return s.ctx.Err()
		}
	}
}
