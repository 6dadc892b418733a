package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	dbpl "repro"
)

// growMaintain is an embedded loop over a 111,110-edge tree (branching 10,
// depth 5). Each operation inserts one edge under a random deepest leaf and
// re-reads the whole closure Infront{ahead} through a prepared statement, so
// the read is answered by maintaining the cached fixpoint with the
// one-tuple delta.
type growMaintain struct {
	rng   *rand.Rand
	seed  int64
	edges []edge
	// firstLeaf is the id of the first depth-5 node; leaves run to len(edges).
	firstLeaf int
	db        *dbpl.DB
	dir       string
	stmt      *dbpl.Stmt
	// added are the edges inserted so far, as (leaf, new part) names.
	added [][2]string
	// recomputeNs, rounds and joinNsPerProbe describe each set-up's first
	// closure read, a from-scratch fixpoint: its time, its fixpoint rounds,
	// and its time over the rows into its hash joins.
	recomputeNs    []float64
	rounds         []float64
	joinNsPerProbe []float64
}

const (
	growBranching = 10
	growDepth     = 5
	// growFlatten is relation.Clone's flattening cycle: a flat copy after
	// 32 layered ones.
	growFlatten = 33
	// growRound is the steps of one round (two operations each): eight
	// flattening cycles and, since every step appends one log record and
	// the store checkpoints every growRound records, one automatic
	// checkpoint. At the default of 1024 records a run would see at most
	// one.
	growRound = 8 * growFlatten
)

func newGrowMaintain(seed int64) workload {
	edges := treeEdges(growBranching, growDepth)
	first := (len(edges) + 1) - 100000 // the 10^5 deepest nodes are the leaves
	return &growMaintain{rng: rand.New(rand.NewSource(seed)), seed: seed, edges: edges, firstLeaf: first}
}

// closureSize is the closed-form size of the ahead closure: every node of the
// complete tree pairs with each of its proper ancestors (depth d gives d
// pairs), and each inserted leaf child adds growDepth+1 pairs.
func (g *growMaintain) closureSize() int {
	n, width := 0, 1
	for d := 1; d <= growDepth; d++ {
		width *= growBranching
		n += d * width
	}
	return n + (growDepth+1)*len(g.added)
}

func (g *growMaintain) build(ctx context.Context, dir string) error {
	db, err := dbpl.Open(durable(dir, dbpl.WithCheckpointEvery(growRound))...)
	if err != nil {
		return err
	}
	if _, err := db.ExecContext(ctx, cadSchema); err != nil {
		db.Close()
		return err
	}
	if err := insertEdges(db, g.edges); err != nil {
		db.Close()
		return err
	}
	return db.Close()
}

func (g *growMaintain) setup(ctx context.Context, dir string) error {
	db, err := dbpl.Open(durable(dir, dbpl.WithCheckpointEvery(growRound))...)
	if err != nil {
		return err
	}
	g.db, g.dir = db, dir
	if _, err := db.ExecContext(ctx, cadSchema); err != nil {
		return err
	}
	if g.stmt, err = db.Prepare(`Infront{ahead}`); err != nil {
		return err
	}
	// ExplainQuery executes the statement as Query does (and caches the
	// closure for the maintained reads) and returns its operator counters.
	start := time.Now()
	plan, err := g.stmt.ExplainQuery(ctx)
	if err != nil {
		return err
	}
	d := float64(time.Since(start))
	a := plan.Analyze
	if a.Rows != g.closureSize() {
		return fmt.Errorf("first closure has %d tuples, want %d", a.Rows, g.closureSize())
	}
	if a.MatView != "miss" {
		return fmt.Errorf("first closure read was a matview %q, want a miss", a.MatView)
	}
	g.recomputeNs = append(g.recomputeNs, d)
	g.rounds = append(g.rounds, float64(a.Rounds))
	if in := hashJoinRowsIn(a); in > 0 {
		g.joinNsPerProbe = append(g.joinNsPerProbe, d/float64(in))
	}
	return nil
}

func (g *growMaintain) teardown() error { return g.db.Close() }

func (g *growMaintain) run(ctx context.Context, deadline time.Time, rec *recorder) error {
	return loop(deadline, rec, 2*growRound, func(traced bool) error {
		for i := 0; i < growRound; i++ {
			g.step(ctx, rec, traced)
		}
		return nil
	})
}

// step is one operation: a single-tuple insert, then the closure read.
func (g *growMaintain) step(ctx context.Context, rec *recorder, traced bool) {
	leaf := part(g.firstLeaf + g.rng.Intn(len(g.edges)+1-g.firstLeaf))
	child := fmt.Sprintf("g%d-%07d", g.seed, len(g.added))
	req := rec.newReq()
	var h0 dbpl.Health
	var log0 int64
	// allocs reads the process's allocation counter in a traced step.
	allocs := func() uint64 { return 0 }
	if traced {
		h0 = g.db.Health()
		log0 = logSize(g.dir, h0.Generation)
		allocs = allocBytes
	}
	opStart := time.Now()
	alloc0 := allocs()
	dIns, insSpan, err := timed(rec, traced, "dbpl.DB.Insert", "store", req, func() error {
		return g.db.Insert("Infront", edgeTuple(leaf, child))
	})
	if !rec.op(err) {
		return
	}
	rec.commit(dIns)
	g.added = append(g.added, [2]string{leaf, child})
	alloc1 := allocs()
	var rel *dbpl.Relation
	dRead, readSpan, err := timed(rec, traced, "dbpl.Stmt.Query", "matview", req, func() error {
		var err error
		rel, err = g.stmt.Query(ctx)
		return err
	})
	if !rec.op(err) {
		return
	}
	rec.read(dRead)
	opTime := time.Since(opStart)
	alloc2 := allocs()
	root := part(0)
	if rel.Len() != g.closureSize() {
		rec.wrongf("closure has %d tuples after %d inserts, want %d", rel.Len(), len(g.added), g.closureSize())
	} else if !rel.Contains(edgeTuple(leaf, child)) || !rel.Contains(edgeTuple(root, child)) {
		rec.wrongf("closure lacks <%s,%s> or <%s,%s>", leaf, child, root, child)
	}
	if !traced {
		return
	}
	rec.add("steps", 1)
	rec.sample("insert_ns", float64(dIns))
	rec.sample("read_ns", float64(dRead))
	// A call that allocated at least flatBytesPerTuple per tuple of the
	// relation it grows made a flat copy of it: relation.Clone's flatten.
	// Infront is cloned by the insert, the closure by the maintained read.
	flatIns := alloc1-alloc0 >= flatBytesPerTuple*uint64(len(g.edges)+len(g.added))
	flatRead := alloc2-alloc1 >= flatBytesPerTuple*uint64(g.closureSize())
	if flatIns {
		rec.relabel(insSpan, "relation")
	}
	if flatRead {
		rec.relabel(readSpan, "relation")
	}
	h1 := g.db.Health()
	rec.add("misses", float64(h1.MatViews.Misses-h0.MatViews.Misses))
	if gen1 := h1.Generation; gen1 != h0.Generation {
		rec.relabel(insSpan, "wal")
		rec.sample("checkpoint_commit_ns", float64(dIns))
	} else {
		rec.sample("log_bytes", float64(logSize(g.dir, gen1)-log0))
		if flatIns || flatRead {
			rec.sample("flatten_step_ns", float64(opTime))
		}
	}
}

// flatBytesPerTuple is the least a flat copy of a relation allocates per
// tuple: a map entry holds a string key and a tuple slice header, 40 bytes,
// before the map's own overhead. A maintained step otherwise allocates a few
// hundred bytes per tuple it adds.
const flatBytesPerTuple = 40

func (g *growMaintain) verify(ctx context.Context, dir string, rec *recorder) error {
	if err := g.db.Close(); err != nil {
		return err
	}
	db, err := dbpl.Open(durable(dir, dbpl.WithCheckpointEvery(growRound))...)
	if err != nil {
		return err
	}
	defer db.Close()
	rel, ok := db.Relation("Infront")
	if !ok {
		return fmt.Errorf("Infront missing after reopen")
	}
	if want := len(g.edges) + len(g.added); rel.Len() != want {
		rec.wrongf("reopened Infront has %d tuples, want %d", rel.Len(), want)
	}
	for _, a := range g.added {
		if !rel.Contains(edgeTuple(a[0], a[1])) {
			rec.wrongf("acknowledged insert <%s,%s> lost on reopen", a[0], a[1])
			break
		}
	}
	return nil
}

// hashJoinRowsIn sums the rows into an execution's hash-join operators.
func hashJoinRowsIn(a *dbpl.ExecInfo) int64 {
	var n int64
	for _, op := range a.Operators {
		if strings.HasPrefix(op.Op, "hash-join") {
			n += op.RowsIn
		}
	}
	return n
}

func (g *growMaintain) layers(rec *recorder) map[string]Metric {
	m := zeroLayers()
	m["fixpoint.recompute_ms"] = Metric{median(g.recomputeNs) / 1e6, "ms"}
	m["fixpoint.rounds_per_recompute"] = Metric{median(g.rounds), "count"}
	m["eval.join_ns_per_probe"] = Metric{median(g.joinNsPerProbe), "ns"}
	m["matview.misses_per_edit"] = Metric{rec.ratio("misses", "steps"), "count"}
	m["matview.maintained_read_us"] = Metric{median(rec.samplesOf("read_ns")) / 1e3, "us"}
	m["store.insert_us"] = Metric{median(rec.samplesOf("insert_ns")) / 1e3, "us"}
	m["wal.log_bytes_per_commit"] = Metric{median(rec.samplesOf("log_bytes")), "B"}
	m["wal.checkpoint_ms"] = Metric{mean(rec.samplesOf("checkpoint_commit_ns")) / 1e6, "ms"}
	// Steps that cut a checkpoint are left out: their spike is the log's.
	if flat := rec.samplesOf("flatten_step_ns"); len(flat) > 0 {
		m["relation.flatten_spike_ms"] = Metric{mean(flat) / 1e6, "ms"}
		m["relation.flatten_every_ops"] = Metric{rec.count("steps") / float64(len(flat)), "count"}
	}
	return m
}
