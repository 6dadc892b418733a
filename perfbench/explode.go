package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	dbpl "repro"
)

// explodeEdit is an embedded loop over a layered random DAG: 6 layers of
// 300 parts, each part of the first five layers pointing at 2 distinct
// random parts of the next. The DAG is the same for every seed, so runs
// with different seeds do the same amount of work; the seed picks the parts
// read and the edges edited. A round is one edit — Assign of Infront with one
// edge rerouted, which evicts the cached closure — followed by 19 prepared
// recursive reads Infront{ahead}[hidden_by(X)] ("explode part X") for random
// X, so 5% of operations are edits and the first read after each edit
// refixpoints from scratch.
type explodeEdit struct {
	rng *rand.Rand
	// out is the benchmark's own copy of the edge list: out[u] are u's
	// targets, kept in step with every edit.
	out  [][]int
	db   *dbpl.DB
	stmt *dbpl.Stmt
	// edits counts acknowledged edits.
	edits int
}

const (
	explodeLayers    = 6
	explodeWidth     = 300
	explodeOutDegree = 2
	explodeRound     = 20
	explodeQuery     = `Infront{ahead}[hidden_by(X)]`
	// explodeDAGSeed generates the DAG.
	explodeDAGSeed = 1
)

func newExplodeEdit(seed int64) workload {
	dag := rand.New(rand.NewSource(explodeDAGSeed))
	n := explodeLayers * explodeWidth
	out := make([][]int, n)
	for u := 0; u < n-explodeWidth; u++ {
		next := (u/explodeWidth + 1) * explodeWidth
		for _, j := range dag.Perm(explodeWidth)[:explodeOutDegree] {
			out[u] = append(out[u], next+j)
		}
	}
	return &explodeEdit{rng: rand.New(rand.NewSource(seed)), out: out}
}

func (e *explodeEdit) edges() []edge {
	var es []edge
	for u, vs := range e.out {
		for _, v := range vs {
			es = append(es, edge{u, v})
		}
	}
	return es
}

// descendants is the oracle: a breadth-first search over the benchmark's own
// edge list.
func (e *explodeEdit) descendants(x int) map[string]bool {
	seen := map[int]bool{}
	queue := []int{x}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range e.out[u] {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	names := make(map[string]bool, len(seen))
	for v := range seen {
		names[part(v)] = true
	}
	return names
}

func (e *explodeEdit) build(ctx context.Context, dir string) error {
	db, err := dbpl.Open(durable(dir)...)
	if err != nil {
		return err
	}
	if _, err := db.ExecContext(ctx, cadSchema); err != nil {
		db.Close()
		return err
	}
	if err := insertEdges(db, e.edges()); err != nil {
		db.Close()
		return err
	}
	return db.Close()
}

func (e *explodeEdit) setup(ctx context.Context, dir string) error {
	db, err := dbpl.Open(durable(dir)...)
	if err != nil {
		return err
	}
	e.db = db
	if _, err := db.ExecContext(ctx, cadSchema); err != nil {
		return err
	}
	if e.stmt, err = db.Prepare(explodeQuery); err != nil {
		return err
	}
	// The first read computes and caches the whole closure.
	rel, err := e.stmt.Query(ctx, part(0))
	if err != nil {
		return err
	}
	if msg := e.check(0, rel); msg != "" {
		return fmt.Errorf("first read: %s", msg)
	}
	return nil
}

func (e *explodeEdit) teardown() error { return e.db.Close() }

// check compares the explosion of part x with the oracle and describes any
// difference.
func (e *explodeEdit) check(x int, rel *dbpl.Relation) string {
	want := e.descendants(x)
	if rel.Len() != len(want) {
		return fmt.Sprintf("explode %s: %d parts, want %d", part(x), rel.Len(), len(want))
	}
	for t := range rel.All() {
		if t[0].AsString() != part(x) || !want[t[1].AsString()] {
			return fmt.Sprintf("explode %s: unexpected tuple %v", part(x), t)
		}
	}
	return ""
}

func (e *explodeEdit) run(ctx context.Context, deadline time.Time, rec *recorder) error {
	return loop(deadline, rec, explodeRound, func(traced bool) error {
		e.edit(rec, traced)
		for i := 1; i < explodeRound; i++ {
			e.read(ctx, rec, traced)
		}
		return nil
	})
}

// edit reroutes one random edge u->v to u->w, w another part of v's layer
// that u does not already point at, and assigns the new Infront.
func (e *explodeEdit) edit(rec *recorder, traced bool) {
	var u, k int
	for {
		u = e.rng.Intn(len(e.out))
		if len(e.out[u]) > 0 {
			k = e.rng.Intn(len(e.out[u]))
			break
		}
	}
	v := e.out[u][k]
	w := v
	for w == v || contains(e.out[u], w) {
		w = (v/explodeWidth)*explodeWidth + e.rng.Intn(explodeWidth)
	}
	cur, ok := e.db.Relation("Infront")
	if !ok {
		rec.op(fmt.Errorf("Infront missing"))
		return
	}
	next := cur.Clone()
	next.Delete(edgeTuple(part(u), part(v)))
	next.Add(edgeTuple(part(u), part(w)))
	d, _, err := timed(rec, traced, "dbpl.DB.Assign", "store", rec.newReq(), func() error {
		return e.db.Assign("Infront", next)
	})
	if !rec.op(err) {
		return
	}
	rec.commit(d)
	e.out[u][k] = w
	e.edits++
	if traced {
		rec.add("edits", 1)
	}
}

func contains(xs []int, x int) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// read explodes a random part. A traced read runs through ExplainQuery, which
// executes the statement and returns its operator counters.
func (e *explodeEdit) read(ctx context.Context, rec *recorder, traced bool) {
	x := e.rng.Intn(len(e.out))
	if !traced {
		start := time.Now()
		rel, err := e.stmt.Query(ctx, part(x))
		d := time.Since(start)
		if !rec.op(err) {
			return
		}
		rec.read(d)
		if msg := e.check(x, rel); msg != "" {
			rec.wrongf("%s", msg)
		}
		return
	}
	var plan *dbpl.Plan
	d, id, err := timed(rec, true, "dbpl.Stmt.ExplainQuery", "eval", rec.newReq(), func() error {
		var err error
		plan, err = e.stmt.ExplainQuery(ctx, part(x))
		return err
	})
	if !rec.op(err) {
		return
	}
	rec.read(d)
	a := plan.Analyze
	if want := len(e.descendants(x)); a.Rows != want {
		rec.wrongf("explode %s: %d parts, want %d", part(x), a.Rows, want)
	}
	var rowsIn, selectIn int64
	for _, op := range a.Operators {
		rowsIn += op.RowsIn
		if strings.HasPrefix(op.Op, "select") {
			selectIn += op.RowsIn
		}
	}
	joinIn := hashJoinRowsIn(a)
	switch a.MatView {
	case "hit":
		rec.sample("hit_rows_in", float64(rowsIn))
		if selectIn > 0 {
			rec.sample("filter_ns_per_row", float64(d)/float64(selectIn))
		}
	case "miss":
		rec.relabel(id, "fixpoint")
		rec.add("misses", 1)
		rec.sample("recompute_ns", float64(d))
		rec.sample("rounds", float64(a.Rounds))
		if joinIn > 0 {
			rec.sample("join_ns_per_probe", float64(d)/float64(joinIn))
		}
	}
}

func (e *explodeEdit) verify(ctx context.Context, dir string, rec *recorder) error {
	if err := e.db.Close(); err != nil {
		return err
	}
	db, err := dbpl.Open(durable(dir)...)
	if err != nil {
		return err
	}
	defer db.Close()
	rel, ok := db.Relation("Infront")
	if !ok {
		return fmt.Errorf("Infront missing after reopen")
	}
	want := e.edges()
	if rel.Len() != len(want) {
		rec.wrongf("reopened Infront has %d edges, want %d", rel.Len(), len(want))
	}
	for _, ed := range want {
		if !rel.Contains(edgeTuple(part(ed.from), part(ed.to))) {
			rec.wrongf("reopened Infront lacks edge %s->%s (after %d edits)", part(ed.from), part(ed.to), e.edits)
			break
		}
	}
	return nil
}

func (e *explodeEdit) layers(rec *recorder) map[string]Metric {
	m := zeroLayers()
	m["eval.rows_in_per_read"] = Metric{median(rec.samplesOf("hit_rows_in")), "count"}
	m["eval.filter_ns_per_row"] = Metric{median(rec.samplesOf("filter_ns_per_row")), "ns"}
	m["eval.join_ns_per_probe"] = Metric{median(rec.samplesOf("join_ns_per_probe")), "ns"}
	m["fixpoint.rounds_per_recompute"] = Metric{mean(rec.samplesOf("rounds")), "count"}
	m["fixpoint.recompute_ms"] = Metric{median(rec.samplesOf("recompute_ns")) / 1e6, "ms"}
	m["matview.misses_per_edit"] = Metric{rec.ratio("misses", "edits"), "count"}
	return m
}
