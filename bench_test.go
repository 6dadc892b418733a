package dbpl_test

// One testing.B benchmark per measured experiment of internal/experiments.
// `go test -bench=. -benchmem` regenerates the performance side of every
// claim; cmd/dbplbench prints the full tables with derived columns.

import (
	"context"
	"fmt"
	"testing"

	dbpl "repro"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/horn"
	"repro/internal/optimizer"
	"repro/internal/prolog"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
	"repro/internal/workload"
)

// BenchmarkPreparedQuery compares the three execution paths of a repeated
// query string: full re-parse + re-resolution per call (plan cache off), the
// LRU plan cache consulted by one-shot Query, and an explicit prepared
// statement. Prepared execution must beat re-parsing.
func BenchmarkPreparedQuery(b *testing.B) {
	const module = `
MODULE bench;
TYPE parttype   = STRING;
TYPE infrontrel = RELATION OF RECORD front, back: parttype END;
VAR Infront: infrontrel;

SELECTOR hidden_by (Obj: parttype) FOR Rel: infrontrel;
BEGIN EACH r IN Rel: r.front = Obj END hidden_by;
END bench.
`
	const query = `Infront[hidden_by("n0032")]`
	open := func(b *testing.B, opts ...dbpl.Option) *dbpl.DB {
		b.Helper()
		db, err := dbpl.Open(opts...)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := db.Exec(module); err != nil {
			b.Fatal(err)
		}
		inT := db.Checker.RelTypes["infrontrel"]
		if err := db.Assign("Infront", workload.EdgesToRelation(inT, workload.Chain(64))); err != nil {
			b.Fatal(err)
		}
		return db
	}

	b.Run("reparse", func(b *testing.B) {
		db := open(b, dbpl.WithPlanCacheSize(0))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(query); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("plan-cache", func(b *testing.B) {
		db := open(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(query); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared", func(b *testing.B) {
		db := open(b)
		stmt, err := db.Prepare(`Infront[hidden_by(Obj)]`)
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := stmt.Query(ctx, "n0032"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCommitDurable tracks commit throughput of the durable store: a
// single-tuple transaction commit per iteration, write-ahead logged with
// fsync-per-commit (sync) and OS-buffered (nosync), against the memory-only
// store as the baseline. The gap between sync and nosync is the price of
// machine-crash durability; nosync vs. memory is the logging overhead
// itself.
func BenchmarkCommitDurable(b *testing.B) {
	const module = `
MODULE bench;
TYPE parttype   = STRING;
TYPE infrontrel = RELATION OF RECORD front, back: parttype END;
VAR Infront: infrontrel;
END bench.
`
	run := func(b *testing.B, opts ...dbpl.Option) {
		b.Helper()
		db, err := dbpl.Open(opts...)
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		if _, err := db.Exec(module); err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		typ, _ := db.Store.Type("Infront")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Assign a fresh single-tuple value: the committed batch (and so
			// the log record) has constant size, isolating per-commit cost
			// from relation growth.
			rel := relation.New(typ)
			if err := rel.Insert(dbpl.NewTuple(
				dbpl.Str(fmt.Sprintf("f%08d", i)), dbpl.Str(fmt.Sprintf("b%08d", i)))); err != nil {
				b.Fatal(err)
			}
			tx, err := db.Begin(ctx)
			if err != nil {
				b.Fatal(err)
			}
			if err := tx.Assign("Infront", rel); err != nil {
				b.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("memory", func(b *testing.B) { run(b) })
	b.Run("nosync", func(b *testing.B) {
		run(b, dbpl.WithPath(b.TempDir()), dbpl.WithSync(dbpl.SyncNever))
	})
	b.Run("sync", func(b *testing.B) {
		run(b, dbpl.WithPath(b.TempDir()), dbpl.WithSync(dbpl.SyncAlways))
	})
}

// BenchmarkSelectorAccessPath proves the physical access path pays: applying
// an indexable selector to a 10k-tuple relation as a hash-partition lookup
// (default) vs. the full scan forced by WithoutOptimization. The partition is
// built lazily on first use and shared by subsequent executions
// (copy-on-write invalidated), so the indexed path must beat the scan by well
// over 2x at this size.
func BenchmarkSelectorAccessPath(b *testing.B) {
	const module = `
MODULE bench;
TYPE parttype   = STRING;
TYPE infrontrel = RELATION OF RECORD front, back: parttype END;
VAR Infront: infrontrel;

SELECTOR hidden_by (Obj: parttype) FOR Rel: infrontrel;
BEGIN EACH r IN Rel: r.front = Obj END hidden_by;
END bench.
`
	const tuples = 10_000
	run := func(b *testing.B, opts ...dbpl.Option) {
		b.Helper()
		db, err := dbpl.Open(opts...)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := db.Exec(module); err != nil {
			b.Fatal(err)
		}
		inT := db.Checker.RelTypes["infrontrel"]
		if err := db.Assign("Infront", workload.EdgesToRelation(inT, workload.Chain(tuples))); err != nil {
			b.Fatal(err)
		}
		stmt, err := db.Prepare(`Infront[hidden_by(Obj)]`)
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rel, err := stmt.Query(ctx, "n5000")
			if err != nil {
				b.Fatal(err)
			}
			if rel.Len() != 1 {
				b.Fatalf("got %d tuples, want 1", rel.Len())
			}
		}
	}
	b.Run("indexed", func(b *testing.B) { run(b) })
	b.Run("scan", func(b *testing.B) { run(b, dbpl.WithoutOptimization()) })
}

// BenchmarkE2AheadN measures fixpoint convergence (section 3.1) per shape
// and strategy.
func BenchmarkE2AheadN(b *testing.B) {
	for _, n := range []int{16, 64, 128} {
		for _, mode := range []core.Mode{core.Naive, core.SemiNaive} {
			b.Run(fmt.Sprintf("chain=%d/%s", n, mode), func(b *testing.B) {
				en, inT, _, err := experiments.AheadEngine(mode)
				if err != nil {
					b.Fatal(err)
				}
				base := workload.EdgesToRelation(inT, workload.Chain(n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := en.Apply("ahead", base, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkE3MutualRecursion measures the joint ahead/above fixpoint over
// generated CAD scenes (section 3.1).
func BenchmarkE3MutualRecursion(b *testing.B) {
	db := dbpl.New()
	if _, err := db.Exec(experiments.CADModule); err != nil {
		b.Fatal(err)
	}
	for _, sz := range [][2]int{{2, 16}, {4, 32}} {
		scene := workload.NewCADScene(sz[0], sz[1], 3, 1985)
		b.Run(fmt.Sprintf("lanes=%d/len=%d", sz[0], sz[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.Apply("ahead", scene.Infront, scene.Ontop); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4Strange measures the bounded non-monotonic iteration of the
// section 3.3 strange constructor.
func BenchmarkE4Strange(b *testing.B) {
	const src = `
MODULE m;
TYPE cardrel = RELATION OF RECORD number: CARDINAL END;
CONSTRUCTOR strange FOR Baserel: cardrel (): cardrel;
BEGIN
  EACH r IN Baserel: NOT SOME s IN Baserel{strange} (r.number = s.number + 1)
END strange;
END m.
`
	db := dbpl.New()
	db.Strict = false
	if _, err := db.Exec(src); err != nil {
		b.Fatal(err)
	}
	cardT := schema.RelationType{Element: schema.RecordType{Attrs: []schema.Attribute{
		{Name: "number", Type: schema.IntType()}}}}
	var tups []value.Tuple
	for i := int64(0); i <= 32; i++ {
		tups = append(tups, value.NewTuple(value.Int(i)))
	}
	base := relation.MustFromTuples(cardT, tups...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Apply("strange", base); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5Translation measures the constructor -> Horn translation and
// the reverse Datalog -> constructor path (section 3.4).
func BenchmarkE5Translation(b *testing.B) {
	chk, err := experiments.Checked()
	if err != nil {
		b.Fatal(err)
	}
	inT := chk.RelTypes["infrontrel"]
	b.Run("from-application", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := horn.FromApplication(chk.Constructors, "ahead",
				horn.RelPred{Pred: "infront", Elem: inT.Element}, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	tr, _ := horn.FromApplication(chk.Constructors, "ahead",
		horn.RelPred{Pred: "infront", Elem: inT.Element}, nil)
	prog := prolog.NewProgram(tr.Rules...)
	b.Run("to-constructors", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := horn.ToConstructors(prog, schema.StringType()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE6SetVsProof is the headline comparison (sections 1 and 3.4):
// set-oriented fixpoint construction vs proof-oriented resolution.
func BenchmarkE6SetVsProof(b *testing.B) {
	chk, err := experiments.Checked()
	if err != nil {
		b.Fatal(err)
	}
	inT := chk.RelTypes["infrontrel"]
	tr, err := horn.FromApplication(chk.Constructors, "ahead",
		horn.RelPred{Pred: "infront", Elem: inT.Element}, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, wl := range []struct {
		name  string
		edges []workload.Edge
	}{
		{"chain-32", workload.Chain(32)},
		{"grid-4x4", workload.Grid(4, 4)},
		{"dag-4x8x2", workload.RandomDAG(4, 8, 2, 11)},
	} {
		base := workload.EdgesToRelation(inT, wl.edges)
		b.Run(wl.name+"/semi-naive", func(b *testing.B) {
			en, _, _, _ := experiments.AheadEngine(core.SemiNaive)
			for i := 0; i < b.N; i++ {
				if _, err := en.Apply("ahead", base, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(wl.name+"/naive", func(b *testing.B) {
			en, _, _, _ := experiments.AheadEngine(core.Naive)
			for i := 0; i < b.N; i++ {
				if _, err := en.Apply("ahead", base, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		prog := prolog.NewProgram(tr.Rules...)
		for _, f := range horn.FactsFromRelation("infront", base) {
			prog.Add(f)
		}
		goal := prolog.NewAtom(tr.GoalPred, prolog.V(0), prolog.V(1))
		b.Run(wl.name+"/tabled-sld", func(b *testing.B) {
			pe := prolog.NewEngine(prog)
			for i := 0; i < b.N; i++ {
				if _, err := pe.SolveTabled(goal); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(wl.name+"/pure-sld", func(b *testing.B) {
			pe := prolog.NewEngine(prog)
			for i := 0; i < b.N; i++ {
				if _, err := pe.Solve(goal); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7Propagation measures full-LFP-plus-filter vs magic-restricted
// evaluation for a bound-head query (section 4).
func BenchmarkE7Propagation(b *testing.B) {
	chk, err := experiments.Checked()
	if err != nil {
		b.Fatal(err)
	}
	inT := chk.RelTypes["infrontrel"]
	tr, err := horn.FromApplication(chk.Constructors, "ahead",
		horn.RelPred{Pred: "infront", Elem: inT.Element}, nil)
	if err != nil {
		b.Fatal(err)
	}
	edges := workload.Chain(256)
	base := workload.EdgesToRelation(inT, edges)
	src := value.Str(workload.NodeName(240))

	b.Run("full-then-filter", func(b *testing.B) {
		en, _, _, _ := experiments.AheadEngine(core.SemiNaive)
		for i := 0; i < b.N; i++ {
			full, err := en.Apply("ahead", base, nil)
			if err != nil {
				b.Fatal(err)
			}
			_ = full.Select(func(t value.Tuple) bool { return t[0] == src })
		}
	})
	b.Run("magic-restricted", func(b *testing.B) {
		prog := prolog.NewProgram(tr.Rules...)
		goal := prolog.NewAtom(tr.GoalPred, prolog.C(src), prolog.V(0))
		for i := 0; i < b.N; i++ {
			magic, err := optimizer.MagicTransform(prog, goal)
			if err != nil {
				b.Fatal(err)
			}
			bundle, err := horn.ToConstructors(magic.Program, schema.StringType())
			if err != nil {
				b.Fatal(err)
			}
			reg := core.NewRegistry()
			for _, p := range bundle.IDB {
				if _, err := reg.Register(bundle.Decls[p], bundle.RelTypes[p]); err != nil {
					b.Fatal(err)
				}
			}
			en := core.NewEngine(reg, eval.NewEnv())
			var args []eval.Resolved
			for _, e := range bundle.EDB {
				if e == "infront" {
					args = append(args, eval.Resolved{Rel: horn.RetypeRelation(bundle.RelTypes[e], base)})
				} else {
					args = append(args, eval.Resolved{Rel: relation.New(bundle.RelTypes[e])})
				}
			}
			for _, q := range bundle.IDB {
				args = append(args, eval.Resolved{Rel: relation.New(bundle.RelTypes[q])})
			}
			seed := relation.New(bundle.RelTypes[magic.Goal.Pred])
			if _, err := en.Apply(horn.ConstructorName(magic.Goal.Pred), seed, args); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE8QuantGraph measures graph construction and analysis (Fig 3).
func BenchmarkE8QuantGraph(b *testing.B) {
	db := dbpl.New()
	if _, err := db.Exec(experiments.CADModule); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if db.QuantGraphASCII() == "" {
			b.Fatal("empty graph")
		}
	}
}

// BenchmarkE1GuardedAssignment measures selector-guarded assignment (Fig 1).
func BenchmarkE1GuardedAssignment(b *testing.B) {
	db := dbpl.New()
	if _, err := db.Exec(experiments.CADModule); err != nil {
		b.Fatal(err)
	}
	scene := workload.NewCADScene(4, 64, 2, 3)
	if err := db.Assign("Objects", scene.Objects); err != nil {
		b.Fatal(err)
	}
	// Re-assign Infront through refint each iteration.
	src := scene.Infront.String() // not used; keep relation live
	_ = src
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(`
MODULE g;
Infront[refint] := {EACH r IN Infront: TRUE};
END g.
`); err != nil {
			// First iteration: Infront empty is fine; real content below.
			b.Fatal(err)
		}
	}
}
