package server_test

// End-to-end replication against a shadow-store oracle, in the style of the
// WAL crash-simulation harness: a deterministic mutation workload runs
// against a durable primary behind a real dbpld server, every step is
// mirrored into a shadow store.Database that never touches the network, and
// a checker goroutine continuously fingerprints the replica's state — every
// observation must equal some committed prefix of the workload (the shadow's
// fingerprint history), never a partial batch and never an invented state.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	dbpl "repro"
	"repro/client"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/value"
)

func pairType(name string) schema.RelationType {
	return schema.RelationType{
		Name: name,
		Element: schema.RecordType{Attrs: []schema.Attribute{
			{Name: "a", Type: schema.StringType()},
			{Name: "b", Type: schema.StringType()},
		}},
		Key: []string{"a", "b"},
	}
}

func tup(a, b string) value.Tuple {
	return value.NewTuple(value.Str(a), value.Str(b))
}

func saveBytes(t *testing.T, save func(w io.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		t.Fatalf("saving state: %v", err)
	}
	return buf.Bytes()
}

// repStep is one unit of the replicated workload, expressed against the
// store API so the primary and the shadow run the identical operation.
type repStep struct {
	name string
	run  func(db *store.Database) error
}

func repWorkload() []repStep {
	assignRel := func() *relation.Relation {
		rel := relation.New(pairType("edge"))
		for _, tp := range []value.Tuple{tup("x", "y"), tup("y", "z")} {
			if err := rel.Insert(tp); err != nil {
				panic(err)
			}
		}
		return rel
	}
	return []repStep{
		{"declare-edge", func(db *store.Database) error { return db.Declare("Edge", pairType("edge")) }},
		{"insert-1", func(db *store.Database) error { return db.Insert("Edge", tup("a", "b"), tup("b", "c")) }},
		{"declare-link", func(db *store.Database) error { return db.Declare("Link", pairType("link")) }},
		{"insert-2", func(db *store.Database) error { return db.Insert("Link", tup("l1", "l2")) }},
		{"tx-commit", func(db *store.Database) error {
			// A transaction commit replicates as one batch: the replica must
			// apply both assignments atomically or not at all.
			tx := db.Begin()
			if err := tx.Insert("Edge", tup("c", "d")); err != nil {
				return err
			}
			if err := tx.Insert("Link", tup("l2", "l3")); err != nil {
				return err
			}
			return tx.Commit()
		}},
		{"assign", func(db *store.Database) error { return db.Assign("Edge", assignRel()) }},
		{"insert-3", func(db *store.Database) error { return db.Insert("Link", tup("l3", "l4")) }},
	}
}

// prefixChecker polls a state source and asserts every observation matches a
// known committed-prefix fingerprint.
type prefixChecker struct {
	mu     sync.Mutex
	prints [][]byte
}

func (p *prefixChecker) add(fp []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.prints = append(p.prints, fp)
}

func (p *prefixChecker) matches(got []byte) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, fp := range p.prints {
		if bytes.Equal(got, fp) {
			return true
		}
	}
	return false
}

func (p *prefixChecker) last() []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.prints[len(p.prints)-1]
}

// runStepsMirrored drives the workload: the shadow commits first (so the
// checker's fingerprint set always covers what the replica may observe), then
// the primary — whose commit is what actually replicates.
func runStepsMirrored(t *testing.T, steps []repStep, shadow, primary *store.Database, chk *prefixChecker) {
	t.Helper()
	for _, s := range steps {
		if err := s.run(shadow); err != nil {
			t.Fatalf("shadow step %s: %v", s.name, err)
		}
		chk.add(saveBytes(t, shadow.Save))
		if err := s.run(primary); err != nil {
			t.Fatalf("primary step %s: %v", s.name, err)
		}
	}
}

// waitConverged polls until the replica's fingerprint equals want.
func waitConverged(t *testing.T, rdb *dbpl.DB, want []byte, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := saveBytes(t, rdb.Save)
		if bytes.Equal(got, want) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never converged (%s)", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestReplicationEndToEnd(t *testing.T) {
	ctx := context.Background()

	// Durable primary behind a real server.
	pdb, err := dbpl.Open(dbpl.WithPath(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer pdb.Close()
	_, paddr := boot(t, pdb, server.Options{})

	// Replica: memory-only database + tailer + its own read-only server.
	rdb, err := dbpl.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	rep := server.NewReplica(rdb, paddr, "", t.Logf)
	rep.ReconnectDelay = 10 * time.Millisecond
	_, raddr := boot(t, rdb, server.Options{Replica: rep})
	tailCtx, stopTail := context.WithCancel(ctx)
	defer stopTail()
	tailDone := make(chan struct{})
	go func() { defer close(tailDone); rep.Run(tailCtx) }() //nolint:errcheck

	shadow := store.NewDatabase()
	chk := &prefixChecker{}
	chk.add(saveBytes(t, shadow.Save)) // the empty state is a valid prefix

	// Continuous prefix checking while the workload replicates.
	checkCtx, stopCheck := context.WithCancel(ctx)
	checkDone := make(chan error, 1)
	go func() {
		for checkCtx.Err() == nil {
			var buf bytes.Buffer
			if err := rdb.Save(&buf); err != nil {
				checkDone <- fmt.Errorf("saving replica state: %w", err)
				return
			}
			if !chk.matches(buf.Bytes()) {
				checkDone <- fmt.Errorf("replica state matches no committed prefix (%d bytes)", buf.Len())
				return
			}
			time.Sleep(time.Millisecond)
		}
		checkDone <- nil
	}()

	primaryStore := pdb.StoreSnapshot()
	runStepsMirrored(t, repWorkload(), shadow, primaryStore, chk)
	waitConverged(t, rdb, chk.last(), "after the initial workload")

	stopCheck()
	if err := <-checkDone; err != nil {
		t.Fatal(err)
	}

	// The replica serves the same query results as the primary.
	pc := openClient(t, paddr)
	rc := openClient(t, raddr)
	if rc.Role() != "replica" {
		t.Fatalf("replica announces role %q", rc.Role())
	}
	for _, q := range []string{`Edge`, `Link`} {
		want := queryTuples(t, pc, q)
		got := queryTuples(t, rc, q)
		if want != got {
			t.Fatalf("query %s diverged:\nprimary: %s\nreplica: %s", q, want, got)
		}
	}

	// Writes are rejected with the read-only sentinel.
	_, err = rc.ExecContext(ctx, `
MODULE w;
Edge := {<"no","no">};
END w.
`)
	if !errors.Is(err, dbpl.ErrReadOnly) {
		t.Fatalf("replica write: %v, want errors.Is ErrReadOnly", err)
	}
	if _, err := rc.Begin(ctx); !errors.Is(err, dbpl.ErrReadOnly) {
		t.Fatalf("replica Begin: %v, want errors.Is ErrReadOnly", err)
	}
	// Pure declarations extend the replica's query vocabulary: allowed.
	if _, err := rc.ExecContext(ctx, `
MODULE v;
TYPE edget = RELATION OF RECORD a, b: STRING END;
SELECTOR from (X: STRING) FOR Rel: edget;
BEGIN EACH r IN Rel: r.a = X END from;
END v.
`); err != nil {
		t.Fatalf("declaration-only module on replica: %v", err)
	}
	sel := queryTuples(t, rc, `Edge[from("x")]`)
	if !strings.Contains(sel, `<"x", "y">`) {
		t.Fatalf("selector over replicated data: %s", sel)
	}

	// Replica health reports the tail. Applied may legitimately still be zero
	// here — the bootstrap snapshot can already cover the whole workload — so
	// commit one more step while the stream is live and wait for the batch
	// counter to move.
	h, err := rc.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Role != "replica" || !h.Connected {
		t.Fatalf("replica health = %+v", h)
	}
	streamed := []repStep{
		{"streamed-insert", func(db *store.Database) error { return db.Insert("Link", tup("s1", "s2")) }},
	}
	runStepsMirrored(t, streamed, shadow, primaryStore, chk)
	waitConverged(t, rdb, chk.last(), "after a streamed insert")
	deadline := time.Now().Add(5 * time.Second)
	for {
		h, err = rc.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if h.Applied >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("health never reported an applied batch: %+v", h)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Catch-up across a checkpoint that compacts the log: disconnect the
	// tailer, commit more work, checkpoint the primary (folding the log tail
	// into a new snapshot generation), then reconnect — the replica must
	// re-bootstrap from the compacted snapshot and converge.
	stopTail()
	<-tailDone
	more := []repStep{
		{"post-insert-1", func(db *store.Database) error { return db.Insert("Edge", tup("m", "n")) }},
		{"post-insert-2", func(db *store.Database) error { return db.Insert("Link", tup("l4", "l5")) }},
	}
	runStepsMirrored(t, more, shadow, primaryStore, chk)
	if err := pdb.Checkpoint(); err != nil {
		t.Fatalf("compacting checkpoint: %v", err)
	}
	tailCtx2, stopTail2 := context.WithCancel(ctx)
	defer stopTail2()
	go rep.Run(tailCtx2) //nolint:errcheck
	waitConverged(t, rdb, chk.last(), "after reconnecting across a checkpoint")
	if st := rep.Status(); st.Bootstraps < 2 {
		t.Fatalf("replica reconnect did not re-bootstrap: %+v", st)
	}
}

// queryTuples renders a query's result set through the wire client in
// deterministic (sorted) order.
func queryTuples(t *testing.T, c *client.DB, q string) string {
	t.Helper()
	rows, err := c.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatalf("query %s: %v", q, err)
	}
	defer rows.Close()
	var tuples []string
	for rows.Next() {
		tuples = append(tuples, rows.Tuple().String())
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("query %s: %v", q, err)
	}
	sortStrings(tuples)
	return strings.Join(tuples, ", ")
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestReplicaFallBehindResync forces the fall-behind cutoff: a tiny follow
// buffer and a paused replica make the primary cut the stream, and the
// replica must recover by re-bootstrapping — ending at the primary's exact
// final state.
func TestReplicaFallBehindResync(t *testing.T) {
	pdb, err := dbpl.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer pdb.Close()
	_, paddr := boot(t, pdb, server.Options{FollowBuffer: 1})

	rdb, err := dbpl.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	rep := server.NewReplica(rdb, paddr, "", t.Logf)
	rep.ReconnectDelay = 10 * time.Millisecond
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	go rep.Run(ctx) //nolint:errcheck

	st := pdb.StoreSnapshot()
	if err := st.Declare("N", pairType("n")); err != nil {
		t.Fatal(err)
	}
	// Burst far past the follow buffer; some subscriber is likely cut off,
	// and the replica must still converge by resync.
	for i := 0; i < 200; i++ {
		if err := st.Insert("N", tup(fmt.Sprintf("k%03d", i), "v")); err != nil {
			t.Fatal(err)
		}
	}
	want := saveBytes(t, st.Save)
	waitConverged(t, rdb, want, "after a burst past the follow buffer")
}

// TestFollowerResyncsAfterLoadStore replaces a followed database's store with
// LoadStore. The follow stream must be cut so the follower re-bootstraps and
// converges to the new state, instead of staying attached to the discarded
// store. The follower is itself followed — every replica re-bootstrap is a
// LoadStore — so the cut must propagate down the chain too.
func TestFollowerResyncsAfterLoadStore(t *testing.T) {
	pdb, err := dbpl.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer pdb.Close()
	_, paddr := boot(t, pdb, server.Options{})
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	follow := func(addr string) (*dbpl.DB, string) {
		rdb, err := dbpl.Open()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rdb.Close() })
		rep := server.NewReplica(rdb, addr, "", t.Logf)
		rep.ReconnectDelay = 10 * time.Millisecond
		_, raddr := boot(t, rdb, server.Options{Replica: rep})
		go rep.Run(ctx) //nolint:errcheck
		return rdb, raddr
	}
	rdb, raddr := follow(paddr)
	chained, _ := follow(raddr)

	st := pdb.StoreSnapshot()
	if err := st.Declare("Old", pairType("old")); err != nil {
		t.Fatal(err)
	}
	if err := st.Insert("Old", tup("a", "b")); err != nil {
		t.Fatal(err)
	}
	want := saveBytes(t, pdb.Save)
	waitConverged(t, rdb, want, "before the store swap")
	waitConverged(t, chained, want, "chained, before the store swap")

	next := store.NewDatabase()
	if err := next.Declare("New", pairType("new")); err != nil {
		t.Fatal(err)
	}
	if err := next.Insert("New", tup("n1", "n2")); err != nil {
		t.Fatal(err)
	}
	if err := pdb.LoadStore(bytes.NewReader(saveBytes(t, next.Save))); err != nil {
		t.Fatal(err)
	}
	// A write after the swap lands on the new store and must replicate too.
	if err := pdb.StoreSnapshot().Insert("New", tup("n3", "n4")); err != nil {
		t.Fatal(err)
	}
	want = saveBytes(t, pdb.Save)
	waitConverged(t, rdb, want, "after LoadStore on the primary")
	waitConverged(t, chained, want, "chained, after LoadStore on the primary")
}
