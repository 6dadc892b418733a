package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	dbpl "repro"
)

// cadSchema is the paper's running example (section 3): a parts relation,
// the hidden_by selector and the recursive ahead constructor, plus a small
// relation for the write transactions of remote-lookup.
const cadSchema = `
MODULE cad;
TYPE parttype   = STRING;
TYPE infrontrel = RELATION OF RECORD front, back: parttype END;
TYPE aheadrel   = RELATION OF RECORD head, tail: parttype END;
TYPE noterel    = RELATION OF RECORD id: INTEGER; val: parttype END;
VAR Infront: infrontrel;
VAR Notes: noterel;

SELECTOR hidden_by (Obj: parttype) FOR Rel: infrontrel;
BEGIN EACH r IN Rel: r.front = Obj END hidden_by;

CONSTRUCTOR ahead FOR Rel: infrontrel (): aheadrel;
BEGIN
  EACH r IN Rel: TRUE,
  <f.front, b.tail> OF EACH f IN Rel, EACH b IN Rel{ahead}: f.back = b.head
END ahead;
END cad.
`

// durable are the options of every store the benchmark opens: durable in a
// directory, without fsync (README.md gives the measured reason).
func durable(dir string, extra ...dbpl.Option) []dbpl.Option {
	return append([]dbpl.Option{dbpl.WithPath(dir), dbpl.WithSync(dbpl.SyncNever)}, extra...)
}

// part names node i of a generated graph.
func part(i int) string { return fmt.Sprintf("p%06d", i) }

// edge is a directed parts edge, front -> back.
type edge struct{ from, to int }

// treeEdges is the complete tree of the given branching and depth in level
// order: the children of node p are branching*p+1 .. branching*p+branching.
func treeEdges(branching, depth int) []edge {
	n := 1
	for d, width := 0, 1; d < depth; d++ {
		width *= branching
		n += width
	}
	out := make([]edge, 0, n-1)
	for c := 1; c < n; c++ {
		out = append(out, edge{(c - 1) / branching, c})
	}
	return out
}

func edgeTuple(from, to string) dbpl.Tuple { return dbpl.NewTuple(dbpl.Str(from), dbpl.Str(to)) }

// insertEdges loads edges into Infront as one batch.
func insertEdges(db *dbpl.DB, edges []edge) error {
	tups := make([]dbpl.Tuple, len(edges))
	for i, e := range edges {
		tups[i] = edgeTuple(part(e.from), part(e.to))
	}
	return db.Insert("Infront", tups...)
}

// loop runs whole rounds of ops operations until the deadline has passed,
// and at least two rounds, so a traced run has a traced and an untraced one.
// Consecutive rounds form slices of at least the recorder's slice length.
func loop(deadline time.Time, rec *recorder, ops int, round func(traced bool) error) error {
	sliceStart, sliceOps := time.Now(), 0
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		tr := rec.tracing(i)
		start := time.Now()
		if err := round(tr); err != nil {
			return err
		}
		end := time.Now()
		rec.roundDone(tr, ops, end.Sub(start))
		if sliceOps += ops; end.Sub(sliceStart) >= rec.sliceLen {
			rec.slice(sliceOps, end.Sub(sliceStart))
			sliceStart, sliceOps = end, 0
		}
	}
	return nil
}

// timed runs f inside a span when traced, and returns f's error and
// duration; the span's id is -1 when not traced.
func timed(rec *recorder, traced bool, name, layer string, req int64, f func() error) (time.Duration, int32, error) {
	if !traced {
		start := time.Now()
		err := f()
		return time.Since(start), -1, err
	}
	id := rec.begin(name, layer, -1, req)
	err := f()
	return rec.end(id), id, err
}

// logSize is the size of the write-ahead log of generation gen in the store
// directory dir.
func logSize(dir string, gen uint64) int64 {
	fi, err := os.Stat(filepath.Join(dir, fmt.Sprintf("wal-%010d.log", gen)))
	if err != nil {
		return 0
	}
	return fi.Size()
}
