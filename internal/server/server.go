// Package server implements dbpld's network layer: a concurrent TCP server
// exposing the full dbpl session API — Exec, prepared statements with
// positional parameters, streaming row cursors with client-driven
// backpressure, snapshot transactions, EXPLAIN, health — over the
// length-prefixed wire protocol of package wire, plus the replication
// endpoints: a FOLLOW stream is a consumer of the store's commit stream, and
// a Replica tails such a stream to serve read-only queries.
//
// One server wraps one *dbpl.DB (safe for concurrent use); each accepted
// connection is a session with its own server-held cursors, prepared
// statements, and transactions, all bounded by per-session and per-server
// resource caps. Shutdown drains: new work is refused with the "shutdown"
// code while open cursors keep serving fetches until they are exhausted or
// the drain deadline forces the connections closed — a cursor observed by a
// client either streams its full snapshot or fails cleanly, never silently
// truncates.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	dbpl "repro"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/store"
	"repro/internal/wire"
)

// DefaultFollowBuffer is the per-follower channel capacity of a FOLLOW
// stream: how many committed batches a slow replica may lag before the
// primary cuts it off to protect writers (the replica then reconnects and
// re-bootstraps).
const DefaultFollowBuffer = 256

// Options configures a Server.
type Options struct {
	// MaxSessions caps concurrently connected sessions; further connections
	// are refused with the "limit" error code. 0 means unlimited.
	MaxSessions int
	// MaxOpenRows caps the server-held cursors of one session; a query that
	// would exceed it fails with the "limit" code until the client closes or
	// exhausts a cursor. 0 means unlimited.
	MaxOpenRows int
	// AuthToken, when non-empty, must be presented by every client in the
	// opening handshake (compared in constant time).
	AuthToken string
	// FollowBuffer is the per-follower batch buffer of FOLLOW streams;
	// 0 means DefaultFollowBuffer.
	FollowBuffer int
	// Replica, when non-nil, serves this database as a read-only replica:
	// writes are refused with the "readonly" code and health reports
	// replication progress. The Replica's own applier is the only writer.
	Replica *Replica
	// Logf, when non-nil, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

// Server serves one database over the wire protocol.
type Server struct {
	db   *dbpl.DB
	opts Options

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	sessions  map[*session]struct{}
	draining  bool
	drainCh   chan struct{}
	wg        sync.WaitGroup
}

// New returns a server over db. The db must outlive the server; Close/
// Shutdown do not close it.
func New(db *dbpl.DB, opts Options) *Server {
	if opts.FollowBuffer <= 0 {
		opts.FollowBuffer = DefaultFollowBuffer
	}
	return &Server{
		db:        db,
		opts:      opts,
		listeners: make(map[net.Listener]struct{}),
		sessions:  make(map[*session]struct{}),
		drainCh:   make(chan struct{}),
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// ListenAndServe listens on addr and serves until Shutdown or Close. It
// returns the bound listener through started (if non-nil) before accepting,
// so callers can learn an ephemeral port.
func (s *Server) ListenAndServe(addr string, started chan<- net.Listener) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		if started != nil {
			close(started)
		}
		return err
	}
	if started != nil {
		started <- l
	}
	return s.Serve(l)
}

// Serve accepts connections on l until the listener is closed (by Shutdown or
// Close). It returns nil after a clean shutdown.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		l.Close()
		return errors.New("server: already shut down")
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
		l.Close()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		s.startSession(conn)
	}
}

// startSession admits one connection, enforcing the session cap.
func (s *Server) startSession(conn net.Conn) {
	sess := newSession(s, conn)
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		sess.refuse(wire.CodeShutdown, "server is shutting down")
		return
	}
	if s.opts.MaxSessions > 0 && len(s.sessions) >= s.opts.MaxSessions {
		limit := s.opts.MaxSessions
		s.mu.Unlock()
		sess.refuse(wire.CodeLimit, (&dbpl.LimitError{Resource: "sessions", Limit: limit}).Error())
		return
	}
	s.sessions[sess] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		defer func() {
			s.mu.Lock()
			delete(s.sessions, sess)
			s.mu.Unlock()
		}()
		sess.serve()
	}()
}

// Shutdown gracefully drains the server: listeners close immediately, new
// work is refused with the "shutdown" code, and sessions stay up while they
// hold open cursors or transactions — fetches keep serving so an in-flight
// streaming result either drains completely or fails cleanly. When ctx
// expires the remaining connections are force-closed. Shutdown returns nil
// when every session ended by draining, or ctx.Err() if the deadline forced
// the close.
func (s *Server) Shutdown(ctx context.Context) error {
	// Every live session learns of the drain before any new connection can
	// see it refused, so a client turned away knows its open sessions refuse
	// new work too.
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.drainCh)
	}
	for sess := range s.sessions {
		sess.beginDrain()
	}
	for l := range s.listeners {
		l.Close()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for sess := range s.sessions {
			sess.hardClose()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Close force-closes the server without draining.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Shutdown(ctx)
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}

// Sessions reports the number of live sessions (for tests and monitoring).
func (s *Server) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// codeFor maps a session-API error onto its wire error code.
func codeFor(err error) string {
	switch {
	case errors.Is(err, dbpl.ErrReadOnly):
		return wire.CodeReadOnly
	case errors.Is(err, dbpl.ErrLimit):
		return wire.CodeLimit
	case errors.Is(err, dbpl.ErrClosed):
		return wire.CodeClosed
	case errors.Is(err, dbpl.ErrTxDone):
		return wire.CodeTxDone
	case errors.Is(err, dbpl.ErrStmtClosed):
		return wire.CodeStmtClosed
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return wire.CodeCanceled
	}
	var pe *dbpl.ParseError
	if errors.As(err, &pe) {
		return wire.CodeParse
	}
	return wire.CodeInternal
}

// readOnlyError is the replica-mode write refusal; it matches
// errors.Is(err, dbpl.ErrReadOnly) so embedded and remote callers share one
// branch with degraded-mode primaries.
type readOnlyError struct{ op string }

func (e *readOnlyError) Error() string {
	return fmt.Sprintf("dbpld: replica is read-only: %s refused (writes go to the primary)", e.op)
}

func (e *readOnlyError) Is(target error) bool { return target == dbpl.ErrReadOnly }

// replicaModuleError reports whether a module may run on a replica: modules that
// only declare types, selectors, and constructors extend the replica's query
// vocabulary without touching the replicated store, so they are allowed;
// variable declarations and statements (assignment, SHOW side effects aside)
// mutate state owned by the primary and are refused.
func replicaModuleError(src string) error {
	m, err := parser.ParseModule(src)
	if err != nil {
		return nil // let the session layer report the parse error
	}
	if len(m.Stmts) > 0 {
		return &readOnlyError{op: "module statement"}
	}
	for _, d := range m.Decls {
		if _, isVar := d.(*ast.VarDecl); isVar {
			return &readOnlyError{op: "VAR declaration"}
		}
	}
	return nil
}

// timeoutCtx applies a client-requested per-request timeout (millis, 0 = none).
func timeoutCtx(parent context.Context, millis uint64) (context.Context, context.CancelFunc) {
	if millis == 0 {
		return context.WithCancel(parent)
	}
	return context.WithTimeout(parent, time.Duration(millis)*time.Millisecond)
}

// follower is the commit consumer behind one FOLLOW stream. It queues each
// committed batch for the session goroutine and never blocks a writer: when
// the follower falls FollowBuffer batches behind, or the store is replaced
// under it (LoadStore), it closes c instead, and the follower reconnects to
// re-bootstrap.
type follower struct {
	c   chan []store.Mutation
	cut bool // c is closed; touched only by Committed, under the store lock
}

// Committed implements store.Consumer.
func (f *follower) Committed(rec *store.Commit) {
	if f.cut {
		return
	}
	if rec.Replaced == nil {
		select {
		case f.c <- rec.Batch:
			return
		default:
		}
	}
	f.cut = true
	close(f.c)
}
