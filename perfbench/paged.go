package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	dbpl "repro"
)

// pagedScan is an embedded loop on the paged storage engine. Two relations of
// 20,000 tuples each are far larger than the 8-page buffer pool and than the
// residency budget, so reads that alternate between them fault pages in and
// evict the other relation's. Every 10th operation inserts one tuple, and
// every round of 50 operations ends with DB.Checkpoint. Each stretch of 10
// is the same: reads of Extra, Stock, Extra, … , Extra, then the insert into
// Stock, so every insert meets the same state: a relation that is no longer
// resident.
type pagedScan struct {
	rng *rand.Rand
	// counts[r][l] is the oracle: how many items relation r holds at
	// location l, from the generator plus acknowledged inserts.
	counts [2][]int
	// items[r] are relation r's tuples as (item, location index).
	items [2][]pagedItem
	db    *dbpl.DB
	stmts [2]*dbpl.Stmt
	// queries are the query spans of the traced reads.
	queries []pagedQuery
}

type pagedItem struct {
	name string
	loc  int
}

const (
	pagedTuples    = 20000
	pagedLocations = 40
	pagedPool      = 8
	pagedRound     = 50
	pagedInsertGap = 10
)

// whSchema declares two identically typed stock relations and a selector on
// location.
const whSchema = `
MODULE wh;
TYPE skurel = RELATION OF RECORD item, loc: STRING END;
VAR Stock: skurel;
VAR Extra: skurel;

SELECTOR at (Where: STRING) FOR Rel: skurel;
BEGIN EACH r IN Rel: r.loc = Where END at;
END wh.
`

var pagedRels = [2]string{"Stock", "Extra"}

func newPagedScan(seed int64) workload {
	p := &pagedScan{rng: rand.New(rand.NewSource(seed))}
	for r := range pagedRels {
		p.counts[r] = make([]int, pagedLocations)
		for i := 0; i < pagedTuples; i++ {
			p.add(r, fmt.Sprintf("%c%06d", pagedRels[r][0], i))
		}
	}
	return p
}

// add draws a location for a new item of relation r and records it.
func (p *pagedScan) add(r int, name string) pagedItem {
	it := pagedItem{name, p.rng.Intn(pagedLocations)}
	p.items[r] = append(p.items[r], it)
	p.counts[r][it.loc]++
	return it
}

func location(l int) string { return fmt.Sprintf("L%02d", l) }

func (it pagedItem) tuple() dbpl.Tuple {
	return dbpl.NewTuple(dbpl.Str(it.name), dbpl.Str(location(it.loc)))
}

func pagedOptions(dir string) []dbpl.Option {
	return durable(dir, dbpl.WithEngine(dbpl.EnginePaged), dbpl.WithBufferPoolPages(pagedPool))
}

func (p *pagedScan) build(ctx context.Context, dir string) error {
	db, err := dbpl.Open(pagedOptions(dir)...)
	if err != nil {
		return err
	}
	if _, err := db.ExecContext(ctx, whSchema); err != nil {
		db.Close()
		return err
	}
	for r, name := range pagedRels {
		tups := make([]dbpl.Tuple, len(p.items[r]))
		for i, it := range p.items[r] {
			tups[i] = it.tuple()
		}
		if err := db.Insert(name, tups...); err != nil {
			db.Close()
			return err
		}
	}
	if err := db.Checkpoint(); err != nil {
		db.Close()
		return err
	}
	return db.Close()
}

func (p *pagedScan) setup(ctx context.Context, dir string) error {
	db, err := dbpl.Open(pagedOptions(dir)...)
	if err != nil {
		return err
	}
	p.db = db
	if _, err := db.ExecContext(ctx, whSchema); err != nil {
		return err
	}
	for r, name := range pagedRels {
		if p.stmts[r], err = db.Prepare(name + `[at(W)]`); err != nil {
			return err
		}
		rel, err := p.stmts[r].Query(ctx, location(0))
		if err != nil {
			return err
		}
		if msg := p.check(r, 0, rel); msg != "" {
			return fmt.Errorf("first read: %s", msg)
		}
	}
	return nil
}

func (p *pagedScan) teardown() error { return p.db.Close() }

// check compares relation r's items at location l with the oracle.
func (p *pagedScan) check(r, l int, rel *dbpl.Relation) string {
	if rel.Len() != p.counts[r][l] {
		return fmt.Sprintf("%s[at(%s)]: %d items, want %d", pagedRels[r], location(l), rel.Len(), p.counts[r][l])
	}
	for t := range rel.All() {
		if t[1].AsString() != location(l) {
			return fmt.Sprintf("%s[at(%s)]: tuple %v at another location", pagedRels[r], location(l), t)
		}
	}
	return ""
}

func (p *pagedScan) run(ctx context.Context, deadline time.Time, rec *recorder) error {
	return loop(deadline, rec, pagedRound, func(traced bool) error {
		for i := 0; i < pagedRound; i++ {
			if j := i % pagedInsertGap; j < pagedInsertGap-1 {
				p.read(ctx, rec, traced, (j+1)%2)
			} else {
				p.insert(rec, traced, 0)
			}
		}
		return p.checkpoint(rec, traced)
	})
}

// read queries one location of relation r. A traced read makes the same
// call in two: DB.Relation, which decodes the relation from its pages when
// it is not resident (pagestore), then Stmt.ExplainQuery, whose operator
// counters give the rows it filters. The query's own self time is split by
// the pool misses it caused: each costs the decode time per miss measured
// on the DB.Relation calls, and goes to pagestore; the rest is eval.
func (p *pagedScan) read(ctx context.Context, rec *recorder, traced bool, r int) {
	l := p.rng.Intn(pagedLocations)
	if !traced {
		start := time.Now()
		rel, err := p.stmts[r].Query(ctx, location(l))
		d := time.Since(start)
		if !rec.op(err) {
			return
		}
		rec.read(d)
		if msg := p.check(r, l, rel); msg != "" {
			rec.wrongf("%s", msg)
		}
		return
	}
	req := rec.newReq()
	h0 := p.db.Health().Storage
	root := rec.begin("pagedScan.read", "eval", -1, req)
	dr, err := rec.child(root, req, "dbpl.DB.Relation", "pagestore", func() error {
		if _, ok := p.db.Relation(pagedRels[r]); !ok {
			return fmt.Errorf("%s unreadable: %v", pagedRels[r], p.db.Health().Storage.Err)
		}
		return nil
	})
	h1 := p.db.Health().Storage
	var plan *dbpl.Plan
	q := int32(-1)
	if err == nil {
		q = rec.begin("dbpl.Stmt.ExplainQuery", "eval", root, req)
		plan, err = p.stmts[r].ExplainQuery(ctx, location(l))
		rec.end(q)
	}
	d := rec.end(root)
	h2 := p.db.Health().Storage
	if !rec.op(err) {
		return
	}
	rec.read(d)
	if a := plan.Analyze; a.Rows != p.counts[r][l] {
		rec.wrongf("%s[at(%s)]: %d items, want %d", pagedRels[r], location(l), a.Rows, p.counts[r][l])
	}
	var rowsIn int64
	for _, op := range plan.Analyze.Operators {
		rowsIn += op.RowsIn
	}
	rec.add("reads", 1)
	rec.add("rows_in", float64(rowsIn))
	if m := h1.Misses - h0.Misses; m > 0 {
		rec.add("decode_ns", float64(dr))
		rec.add("decode_misses", float64(m))
	}
	p.queries = append(p.queries, pagedQuery{q, h2.Misses - h1.Misses, rowsIn})
	rec.add("hits", float64(h2.Hits-h0.Hits))
	rec.add("accesses", float64(h2.Hits+h2.Misses-h0.Hits-h0.Misses))
	rec.add("read_evictions", float64(h2.Evictions-h0.Evictions))
}

// pagedQuery is one traced query span: its id, the pool misses it caused and
// the rows into its operators.
type pagedQuery struct {
	span   int32
	misses uint64
	rowsIn int64
}

// splitQueries moves each traced query's decode time, its pool misses times
// the measured decode time per miss, from eval to pagestore, and returns the
// median eval time per row into the query's operators.
func (p *pagedScan) splitQueries(rec *recorder) float64 {
	perMiss := rec.ratio("decode_ns", "decode_misses")
	var nsPerRow []float64
	for _, q := range p.queries {
		decode := rec.attribute(q.span, "pagestore", int64(perMiss*float64(q.misses)))
		if q.rowsIn > 0 {
			nsPerRow = append(nsPerRow, float64(rec.spanNs(q.span)-decode)/float64(q.rowsIn))
		}
	}
	return median(nsPerRow)
}

// insert adds one new item to relation r. A traced insert, like a traced
// read, first makes the relation resident through DB.Relation (pagestore),
// then calls DB.Insert (store).
func (p *pagedScan) insert(rec *recorder, traced bool, r int) {
	it := pagedItem{fmt.Sprintf("%c-new-%06d", pagedRels[r][0], len(p.items[r])), p.rng.Intn(pagedLocations)}
	ins := func() error { return p.db.Insert(pagedRels[r], it.tuple()) }
	var d time.Duration
	var err error
	var st dbpl.StorageStats
	if traced {
		req := rec.newReq()
		root := rec.begin("pagedScan.insert", "store", -1, req)
		h0 := p.db.Health().Storage
		_, err = rec.child(root, req, "dbpl.DB.Relation", "pagestore", func() error {
			if _, ok := p.db.Relation(pagedRels[r]); !ok {
				return fmt.Errorf("%s unreadable: %v", pagedRels[r], p.db.Health().Storage.Err)
			}
			return nil
		})
		if err == nil {
			_, err = rec.child(root, req, "dbpl.DB.Insert", "store", ins)
		}
		d = rec.end(root)
		h1 := p.db.Health().Storage
		st = dbpl.StorageStats{Hits: h1.Hits - h0.Hits, Misses: h1.Misses - h0.Misses, WriteBacks: h1.WriteBacks - h0.WriteBacks}
	} else {
		start := time.Now()
		err = ins()
		d = time.Since(start)
	}
	if !rec.op(err) {
		return
	}
	rec.commit(d)
	p.items[r] = append(p.items[r], it)
	p.counts[r][it.loc]++
	if traced {
		rec.add("inserts", 1)
		rec.add("write_backs", float64(st.WriteBacks))
		rec.add("hits", float64(st.Hits))
		rec.add("accesses", float64(st.Hits+st.Misses))
		rec.sample("insert_ns", float64(d))
	}
}

// checkpoint cuts an incremental checkpoint; a failure is a harness error,
// since no operation of the round can be trusted durable after it.
func (p *pagedScan) checkpoint(rec *recorder, traced bool) error {
	d, _, err := timed(rec, traced, "dbpl.DB.Checkpoint", "pagestore", rec.newReq(), p.db.Checkpoint)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if traced {
		rec.sample("checkpoint_ns", float64(d))
		rec.sample("checkpoint_bytes", float64(p.db.Health().Storage.LastCheckpointBytes))
	}
	return nil
}

func (p *pagedScan) verify(ctx context.Context, dir string, rec *recorder) error {
	if err := p.db.Close(); err != nil {
		return err
	}
	db, err := dbpl.Open(pagedOptions(dir)...)
	if err != nil {
		return err
	}
	defer db.Close()
	for r, name := range pagedRels {
		rel, ok := db.Relation(name)
		if !ok {
			return fmt.Errorf("%s missing after reopen", name)
		}
		if rel.Len() != len(p.items[r]) {
			rec.wrongf("reopened %s has %d items, want %d", name, rel.Len(), len(p.items[r]))
		}
		for _, it := range p.items[r][pagedTuples:] {
			if !rel.Contains(it.tuple()) {
				rec.wrongf("acknowledged insert %v into %s lost on reopen", it.tuple(), name)
				break
			}
		}
	}
	return nil
}

func (p *pagedScan) layers(rec *recorder) map[string]Metric {
	m := zeroLayers()
	m["pagestore.hit_rate"] = Metric{rec.ratio("hits", "accesses"), "ratio"}
	m["pagestore.evictions_per_read"] = Metric{rec.ratio("read_evictions", "reads"), "count"}
	m["pagestore.write_backs_per_commit"] = Metric{rec.ratio("write_backs", "inserts"), "count"}
	m["pagestore.checkpoint_kb"] = Metric{mean(rec.samplesOf("checkpoint_bytes")) / 1024, "KB"}
	m["pagestore.checkpoint_ms"] = Metric{median(rec.samplesOf("checkpoint_ns")) / 1e6, "ms"}
	m["store.insert_us"] = Metric{median(rec.samplesOf("insert_ns")) / 1e3, "us"}
	m["eval.rows_in_per_read"] = Metric{rec.ratio("rows_in", "reads"), "count"}
	m["eval.filter_ns_per_row"] = Metric{p.splitQueries(rec), "ns"}
	return m
}
