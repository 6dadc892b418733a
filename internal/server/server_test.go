package server_test

// Integration tests for the network layer: a real dbpld server on a loopback
// listener, a real client.DB over TCP — the full session API, error-code
// fidelity (errors.Is against the dbpl sentinels must hold across the wire),
// per-session and per-server resource limits, and the graceful drain.

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	dbpl "repro"
	"repro/client"

	"repro/internal/server"
	"repro/internal/wire"
)

// boot starts a server over db on a loopback listener and returns its
// address. The server (and its listener) shuts down with the test.
func boot(t *testing.T, db *dbpl.DB, opts server.Options) (*server.Server, string) {
	t.Helper()
	srv := server.New(db, opts)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck // exits with the listener at cleanup
	t.Cleanup(func() { srv.Close() })
	return srv, l.Addr().String()
}

const objModule = `
MODULE m;
TYPE namet  = STRING;
TYPE objrel = RELATION OF RECORD name: namet; size: INTEGER END;
VAR Objs: objrel;
Objs := {<"table", 10>, <"vase", 2>, <"cup", 1>};
END m.
`

func openClient(t *testing.T, addr string, opts ...client.Option) *client.DB {
	t.Helper()
	c, err := client.Open(addr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestServerSessionAPI(t *testing.T) {
	ctx := context.Background()
	db, err := dbpl.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	_, addr := boot(t, db, server.Options{})
	c := openClient(t, addr)

	if c.Role() != "primary" {
		t.Fatalf("role = %q, want primary", c.Role())
	}

	// Exec runs a module remotely.
	if _, err := c.ExecContext(ctx, objModule); err != nil {
		t.Fatalf("remote Exec: %v", err)
	}

	// Query with a streaming cursor; exercise batching with fetch size 1.
	small := openClient(t, addr, client.WithFetchSize(1))
	rows, err := small.QueryContext(ctx, `Objs`)
	if err != nil {
		t.Fatalf("remote Query: %v", err)
	}
	if got := rows.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	if cols := rows.Columns(); len(cols) != 2 || cols[0] != "name" || cols[1] != "size" {
		t.Fatalf("Columns = %v", cols)
	}
	seen := map[string]int{}
	for rows.Next() {
		var name string
		var size int
		if err := rows.Scan(&name, &size); err != nil {
			t.Fatal(err)
		}
		seen[name] = size
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || seen["table"] != 10 || seen["cup"] != 1 {
		t.Fatalf("streamed %v", seen)
	}

	// Prepared statement with a positional parameter.
	st, err := c.Prepare(`{EACH o IN Objs: o.name = Who}`)
	if err != nil {
		t.Fatalf("remote Prepare: %v", err)
	}
	if params := st.Params(); len(params) != 1 || params[0] != "Who" {
		t.Fatalf("Params = %v", params)
	}
	prows, err := st.QueryRows(ctx, "vase")
	if err != nil {
		t.Fatal(err)
	}
	if prows.Len() != 1 {
		t.Fatalf("param query matched %d tuples, want 1", prows.Len())
	}
	prows.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Transactions: a rollback leaves no trace, a commit publishes.
	tx, err := c.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(ctx, `
MODULE t1;
Objs := {<"ghost", 0>};
END t1.
`); err != nil {
		t.Fatal(err)
	}
	trows, err := tx.QueryRows(ctx, `Objs`)
	if err != nil {
		t.Fatal(err)
	}
	if trows.Len() != 1 {
		t.Fatalf("tx sees %d tuples, want its own write (1)", trows.Len())
	}
	trows.Close()
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(ctx, "MODULE t2; END t2."); !errors.Is(err, dbpl.ErrTxDone) {
		t.Fatalf("exec after rollback: %v, want ErrTxDone", err)
	}
	after, err := c.QueryContext(ctx, `Objs`)
	if err != nil {
		t.Fatal(err)
	}
	if after.Len() != 3 {
		t.Fatalf("rollback leaked: %d tuples", after.Len())
	}
	after.Close()

	tx2, err := c.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Exec(ctx, `
MODULE t3;
Objs := {<"table", 10>, <"vase", 2>, <"cup", 1>, <"lamp", 4>};
END t3.
`); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	committed, err := c.QueryContext(ctx, `Objs`)
	if err != nil {
		t.Fatal(err)
	}
	if committed.Len() != 4 {
		t.Fatalf("commit lost: %d tuples, want 4", committed.Len())
	}
	committed.Close()

	// Explain returns the optimizer's text plan.
	plan, err := c.Explain(ctx, `Objs`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "Objs") {
		t.Fatalf("plan text does not mention the query: %q", plan)
	}

	// Health and Vars.
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Role != "primary" || h.Durable {
		t.Fatalf("health = %+v, want memory-only primary", h)
	}
	vars, err := c.Vars(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(vars) != 1 || vars[0].Name != "Objs" || vars[0].Tuples != 4 {
		t.Fatalf("vars = %+v", vars)
	}

	// Error fidelity: a parse error arrives as an error mentioning position,
	// not a broken connection; the connection stays usable after it.
	if _, err := c.QueryContext(ctx, `THIS IS NOT DBPL ((`); err == nil {
		t.Fatal("malformed query succeeded")
	}
	ok, err := c.QueryContext(ctx, `Objs`)
	if err != nil {
		t.Fatalf("connection unusable after a query error: %v", err)
	}
	ok.Close()
}

func TestServerAuthAndSessionCap(t *testing.T) {
	db, err := dbpl.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	_, addr := boot(t, db, server.Options{AuthToken: "sesame", MaxSessions: 1})

	// Wrong token is refused at handshake.
	if _, err := client.Open(addr, client.WithToken("wrong")); err == nil {
		t.Fatal("handshake with a wrong token succeeded")
	}
	// Right token connects.
	c := openClient(t, addr, client.WithToken("sesame"))
	if _, err := c.Exec("MODULE a; END a."); err != nil {
		t.Fatal(err)
	}
	// Second session exceeds the cap with the typed limit error.
	_, err = client.Open(addr, client.WithToken("sesame"))
	if !errors.Is(err, dbpl.ErrLimit) {
		t.Fatalf("session over cap: %v, want errors.Is ErrLimit", err)
	}
	// Freeing the slot admits a new session. The server unregisters the
	// session moments after the client sees the close, so poll briefly.
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c2, err := client.Open(addr, client.WithToken("sesame"))
		if err == nil {
			c2.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed after Close: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestServerPerSessionCursorCap(t *testing.T) {
	ctx := context.Background()
	db, err := dbpl.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(objModule); err != nil {
		t.Fatal(err)
	}
	_, addr := boot(t, db, server.Options{MaxOpenRows: 1})
	c := openClient(t, addr, client.WithFetchSize(1))

	r1, err := c.QueryContext(ctx, `Objs`)
	if err != nil {
		t.Fatal(err)
	}
	// r1 is held open (not exhausted); a second cursor exceeds the cap.
	if !r1.Next() {
		t.Fatal("empty cursor")
	}
	if _, err := c.QueryContext(ctx, `Objs`); !errors.Is(err, dbpl.ErrLimit) {
		t.Fatalf("second cursor: %v, want errors.Is ErrLimit", err)
	}
	var limErr *dbpl.LimitError
	_, err = c.QueryContext(ctx, `Objs`)
	if !errors.As(err, &limErr) {
		// The wire flattens the concrete type; the sentinel must survive
		// regardless, and the message names the resource.
		if !strings.Contains(err.Error(), "limit") {
			t.Fatalf("limit error lost its meaning over the wire: %v", err)
		}
	}
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := c.QueryContext(ctx, `Objs`)
	if err != nil {
		t.Fatalf("cursor after release: %v", err)
	}
	r2.Close()
}

func TestServerGracefulDrain(t *testing.T) {
	ctx := context.Background()
	db, err := dbpl.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(objModule); err != nil {
		t.Fatal(err)
	}
	srv, addr := boot(t, db, server.Options{})
	c := openClient(t, addr, client.WithFetchSize(1))

	rows, err := c.QueryContext(ctx, `Objs`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("empty cursor")
	}

	// Shutdown with the cursor mid-stream: the drain must let the remaining
	// fetches finish.
	done := make(chan error, 1)
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { done <- srv.Shutdown(sctx) }()

	// New connections are refused while draining.
	refusedDeadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := client.Open(addr); err != nil {
			break
		}
		if time.Now().After(refusedDeadline) {
			t.Fatal("new connections still accepted during drain")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The held cursor drains completely — no truncation.
	n := 1
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("drain broke the in-flight cursor: %v", err)
	}
	if n != 3 {
		t.Fatalf("cursor streamed %d of 3 tuples through the drain", n)
	}

	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := srv.Sessions(); got != 0 {
		t.Fatalf("%d sessions survived the drain", got)
	}
}

func TestServerDrainRefusesNewWork(t *testing.T) {
	ctx := context.Background()
	db, err := dbpl.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(objModule); err != nil {
		t.Fatal(err)
	}
	srv, addr := boot(t, db, server.Options{})
	c := openClient(t, addr, client.WithFetchSize(1))

	rows, err := c.QueryContext(ctx, `Objs`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("empty cursor")
	}

	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(sctx) }()

	// Wait until the drain has reached this session (new connections are
	// already refused), then try new work on the live one: refused, while
	// the cursor stays serviceable.
	for {
		if _, err := client.Open(addr); err != nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c.ExecContext(ctx, "MODULE x; END x."); err == nil {
		t.Fatal("new work accepted during drain")
	}
	n := 1
	for rows.Next() {
		n++
	}
	if rows.Err() != nil || n != 3 {
		t.Fatalf("cursor did not drain cleanly after refused work: n=%d err=%v", n, rows.Err())
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestServerMalformedArgsKeepSession sends a query whose argument block is a
// single 9-byte count of 1<<62 arguments. The server must answer with a TErr
// frame, not size anything by the count, and keep the session serving.
func TestServerMalformedArgsKeepSession(t *testing.T) {
	db, err := dbpl.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	_, addr := boot(t, db, server.Options{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	if _, err := wire.ClientHello(conn, br, ""); err != nil {
		t.Fatal(err)
	}

	e := wire.NewEnc()
	e.Str("Objs")
	e.Uvarint(0) // no timeout
	payload, err := e.Payload()
	if err != nil {
		t.Fatal(err)
	}
	block := binary.AppendUvarint(nil, 1<<62)
	if len(block) != 9 {
		t.Fatalf("argument block is %d bytes, want 9", len(block))
	}
	if err := wire.WriteFrame(conn, wire.TQuery, append(payload, block...)); err != nil {
		t.Fatal(err)
	}
	typ, resp, err := wire.ReadFrame(br)
	if err != nil {
		t.Fatalf("no answer to the malformed query: %v", err)
	}
	if typ != wire.TErr {
		t.Fatalf("malformed query answered with frame type %d, want TErr", typ)
	}
	if code, _, err := wire.DecodeErr(resp); err != nil || code != wire.CodeProto {
		t.Fatalf("malformed query error code %q (%v), want %q", code, err, wire.CodeProto)
	}

	// The session survives and keeps serving.
	if err := wire.WriteFrame(conn, wire.THealth, nil); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wire.ReadFrame(br); err != nil || typ != wire.THealthInfo {
		t.Fatalf("health after the malformed query: type %d, err %v", typ, err)
	}
}
