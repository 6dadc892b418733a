// Package experiments implements the reproduction experiment suite, E1..E8.
// Each experiment regenerates
// one of the paper's figures, worked examples, or performance claims; the
// cmd/dbplbench binary prints the tables, and the root bench_test.go wraps
// the measured ones as testing.B benchmarks.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/horn"
	"repro/internal/optimizer"
	"repro/internal/parser"
	"repro/internal/prolog"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/typecheck"
	"repro/internal/value"
	"repro/internal/workload"
)

// AheadModule is the canonical transitive-closure module used across
// experiments.
const AheadModule = `
MODULE exp;
TYPE parttype   = STRING;
TYPE infrontrel = RELATION OF RECORD front, back: parttype END;
TYPE aheadrel   = RELATION OF RECORD head, tail: parttype END;
VAR Infront: infrontrel;
CONSTRUCTOR ahead FOR Rel: infrontrel (): aheadrel;
BEGIN
  EACH r IN Rel: TRUE,
  <f.front, b.tail> OF EACH f IN Rel, EACH b IN Rel{ahead}: f.back = b.head
END ahead;
END exp.
`

// Checked returns the type-checked module environment for AheadModule.
func Checked() (*typecheck.Checker, error) {
	m, err := parser.ParseModule(AheadModule)
	if err != nil {
		return nil, err
	}
	c := typecheck.New()
	if err := c.CheckModule(m); err != nil {
		return nil, err
	}
	return c, nil
}

// AheadEngine builds a core engine with the ahead constructor registered.
func AheadEngine(mode core.Mode) (*core.Engine, schema.RelationType, schema.RelationType, error) {
	chk, err := Checked()
	if err != nil {
		return nil, schema.RelationType{}, schema.RelationType{}, err
	}
	reg := core.NewRegistry()
	sig := chk.Constructors["ahead"]
	if _, err := reg.Register(sig.Decl, sig.Result); err != nil {
		return nil, schema.RelationType{}, schema.RelationType{}, err
	}
	en := core.NewEngine(reg, eval.NewEnv())
	en.Mode = mode
	return en, chk.RelTypes["infrontrel"], chk.RelTypes["aheadrel"], nil
}

// table prints an aligned table.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.header)
	seps := make([]string, len(t.header))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, r := range t.rows {
		line(r)
	}
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000.0)
}

// ---------------------------------------------------------------------------
// E2: ahead_n convergence (section 3.1, Fig 2)
// ---------------------------------------------------------------------------

// E2Row is one measurement of the fixpoint convergence experiment.
type E2Row struct {
	Shape       string
	N           int // edge count
	Closure     int
	NaiveRounds int
	SemiRounds  int
	NaiveTime   time.Duration
	SemiTime    time.Duration
}

// RunE2 measures, per workload, the number of iterations to the fixpoint
// (the paper's lim ahead_n) under both strategies and checks they agree.
func RunE2(sizes []int) ([]E2Row, error) {
	var out []E2Row
	for _, n := range sizes {
		for _, shape := range []string{"chain", "cycle", "tree"} {
			var edges []workload.Edge
			switch shape {
			case "chain":
				edges = workload.Chain(n)
			case "cycle":
				edges = workload.Cycle(n)
			default:
				// Depth chosen so the edge count is comparable to n.
				d := 1
				for (1<<(d+1))-2 < n {
					d++
				}
				edges = workload.Tree(2, d)
			}
			row := E2Row{Shape: shape, N: len(edges)}

			enN, inT, _, err := AheadEngine(core.Naive)
			if err != nil {
				return nil, err
			}
			base := workload.EdgesToRelation(inT, edges)
			t0 := time.Now()
			resN, err := enN.Apply("ahead", base, nil)
			if err != nil {
				return nil, err
			}
			row.NaiveTime = time.Since(t0)
			row.NaiveRounds = enN.LastStats().Rounds

			enS, _, _, err := AheadEngine(core.SemiNaive)
			if err != nil {
				return nil, err
			}
			t0 = time.Now()
			resS, err := enS.Apply("ahead", base, nil)
			if err != nil {
				return nil, err
			}
			row.SemiTime = time.Since(t0)
			row.SemiRounds = enS.LastStats().Rounds
			if !resN.Equal(resS) {
				return nil, fmt.Errorf("E2: naive and semi-naive disagree on %s n=%d", shape, n)
			}
			row.Closure = resS.Len()
			out = append(out, row)
		}
	}
	return out, nil
}

// PrintE2 runs and prints E2.
func PrintE2(w io.Writer, sizes []int) error {
	rows, err := RunE2(sizes)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "E2: fixpoint convergence of Infront{ahead} = lim ahead_n (section 3.1)")
	t := &table{header: []string{"shape", "|edges|", "|closure|", "naive rounds", "semi rounds", "naive time", "semi time"}}
	for _, r := range rows {
		t.add(r.Shape, fmt.Sprint(r.N), fmt.Sprint(r.Closure),
			fmt.Sprint(r.NaiveRounds), fmt.Sprint(r.SemiRounds),
			ms(r.NaiveTime), ms(r.SemiTime))
	}
	t.write(w)
	return nil
}

// ---------------------------------------------------------------------------
// E6: set-oriented vs proof-oriented evaluation (sections 1, 3.4, 4)
// ---------------------------------------------------------------------------

// E6Row is one measurement of the headline comparison.
type E6Row struct {
	Workload    string
	Edges       int
	Closure     int
	SemiTime    time.Duration
	NaiveTime   time.Duration
	TabledTime  time.Duration
	TabledSteps int
	SLDTime     time.Duration
	SLDSteps    int
	SLDFailed   string // non-empty = budget exhausted / non-termination
}

// RunE6 compares semi-naive and naive constructor evaluation against tabled
// and pure SLD resolution on the same transitive-closure workloads.
func RunE6(workloads map[string][]workload.Edge, sldBudget int) ([]E6Row, error) {
	chk, err := Checked()
	if err != nil {
		return nil, err
	}
	inT := chk.RelTypes["infrontrel"]
	tr, err := horn.FromApplication(chk.Constructors, "ahead",
		horn.RelPred{Pred: "infront", Elem: inT.Element}, nil)
	if err != nil {
		return nil, err
	}

	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	sortStrings(names)

	var out []E6Row
	for _, name := range names {
		edges := workloads[name]
		row := E6Row{Workload: name, Edges: len(edges)}
		base := workload.EdgesToRelation(inT, edges)

		for _, mode := range []core.Mode{core.SemiNaive, core.Naive} {
			en, _, _, err := AheadEngine(mode)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			res, err := en.Apply("ahead", base, nil)
			if err != nil {
				return nil, err
			}
			if mode == core.SemiNaive {
				row.SemiTime = time.Since(t0)
				row.Closure = res.Len()
			} else {
				row.NaiveTime = time.Since(t0)
			}
		}

		prog := prolog.NewProgram(tr.Rules...)
		for _, f := range horn.FactsFromRelation("infront", base) {
			prog.Add(f)
		}
		goal := prolog.NewAtom(tr.GoalPred, prolog.V(0), prolog.V(1))

		pe := prolog.NewEngine(prog)
		t0 := time.Now()
		tb, err := pe.SolveTabled(goal)
		if err != nil {
			return nil, err
		}
		row.TabledTime = time.Since(t0)
		row.TabledSteps = pe.Stats.Resolutions
		if len(tb) != row.Closure {
			return nil, fmt.Errorf("E6: tabled answers %d != closure %d on %s", len(tb), row.Closure, name)
		}

		pe2 := prolog.NewEngine(prog)
		pe2.MaxSteps = sldBudget
		pe2.MaxDepth = 100_000
		t0 = time.Now()
		sld, err := pe2.Solve(goal)
		row.SLDTime = time.Since(t0)
		row.SLDSteps = pe2.Stats.Resolutions
		if err != nil {
			row.SLDFailed = "budget exhausted"
		} else if len(sld) != row.Closure {
			row.SLDFailed = fmt.Sprintf("wrong count %d", len(sld))
		}
		out = append(out, row)
	}
	return out, nil
}

// DefaultE6Workloads returns the workload suite for E6. Sizes are bounded by
// the tuple-at-a-time baselines: the tabled engine re-joins its whole table
// per round (no indexes — that is the point of the comparison), and pure SLD
// enumerates every proof.
func DefaultE6Workloads() map[string][]workload.Edge {
	return map[string][]workload.Edge{
		"chain-32":  workload.Chain(32),
		"chain-64":  workload.Chain(64),
		"cycle-32":  workload.Cycle(32),
		"grid-4x4":  workload.Grid(4, 4),
		"grid-6x6":  workload.Grid(6, 6),
		"dag-4x8x2": workload.RandomDAG(4, 8, 2, 11),
	}
}

// PrintE6 runs and prints E6.
func PrintE6(w io.Writer) error {
	rows, err := RunE6(DefaultE6Workloads(), 3_000_000)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "E6: set-oriented fixpoint vs proof-oriented resolution (transitive closure)")
	t := &table{header: []string{"workload", "|E|", "|closure|",
		"semi-naive", "naive", "tabled SLD", "tabled steps", "pure SLD", "SLD steps", "SLD outcome"}}
	for _, r := range rows {
		outcome := "ok"
		if r.SLDFailed != "" {
			outcome = r.SLDFailed
		}
		t.add(r.Workload, fmt.Sprint(r.Edges), fmt.Sprint(r.Closure),
			ms(r.SemiTime), ms(r.NaiveTime), ms(r.TabledTime),
			fmt.Sprint(r.TabledSteps), ms(r.SLDTime), fmt.Sprint(r.SLDSteps), outcome)
	}
	t.write(w)
	return nil
}

// ---------------------------------------------------------------------------
// E7: constraint propagation / bound-argument restriction (section 4)
// ---------------------------------------------------------------------------

// E7Row is one measurement of the propagation experiment.
type E7Row struct {
	Workload   string
	Edges      int
	Selected   int // tuples in the selected result
	FullTuples int // tuples the unrestricted fixpoint computes
	FullTime   time.Duration
	MagicSize  int // tuples the magic-restricted fixpoint computes
	MagicTime  time.Duration
}

// E7Workload pairs edges with the node bound in the query head. The
// restriction only pays off when the bound node's forward cone is small —
// exactly the "restrictive terms" case the paper's access-path discussion
// targets.
type E7Workload struct {
	Edges  []workload.Edge
	Source int
}

// RunE7 compares answering {EACH r IN Infront{ahead}: r.head = c} by (a)
// computing the full closure then filtering, and (b) evaluating the
// magic-restricted translation, both set-orientedly.
func RunE7(workloads map[string]E7Workload) ([]E7Row, error) {
	chk, err := Checked()
	if err != nil {
		return nil, err
	}
	inT := chk.RelTypes["infrontrel"]
	tr, err := horn.FromApplication(chk.Constructors, "ahead",
		horn.RelPred{Pred: "infront", Elem: inT.Element}, nil)
	if err != nil {
		return nil, err
	}

	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	sortStrings(names)

	var out []E7Row
	for _, name := range names {
		wl := workloads[name]
		row := E7Row{Workload: name, Edges: len(wl.Edges)}
		base := workload.EdgesToRelation(inT, wl.Edges)
		src := value.Str(workload.NodeName(wl.Source))

		// (a) Full LFP, then filter.
		en, _, _, err := AheadEngine(core.SemiNaive)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		full, err := en.Apply("ahead", base, nil)
		if err != nil {
			return nil, err
		}
		filtered := full.Select(func(t value.Tuple) bool { return t[0] == src })
		row.FullTime = time.Since(t0)
		row.FullTuples = full.Len()
		row.Selected = filtered.Len()

		// (b) Magic-restricted evaluation, set-oriented via the reverse
		// translation of section 3.4.
		prog := prolog.NewProgram(tr.Rules...)
		goal := prolog.NewAtom(tr.GoalPred, prolog.C(src), prolog.V(0))
		t0 = time.Now()
		magic, err := optimizer.MagicTransform(prog, goal)
		if err != nil {
			return nil, err
		}
		bundle, err := horn.ToConstructors(magic.Program, schema.StringType())
		if err != nil {
			return nil, err
		}
		reg := core.NewRegistry()
		for _, p := range bundle.IDB {
			if _, err := reg.Register(bundle.Decls[p], bundle.RelTypes[p]); err != nil {
				return nil, err
			}
		}
		en2 := core.NewEngine(reg, eval.NewEnv())
		args := make([]eval.Resolved, 0, len(bundle.EDB)+len(bundle.IDB))
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
		goalPred := magic.Goal.Pred
		seed := relation.New(bundle.RelTypes[goalPred])
		res, err := en2.Apply(horn.ConstructorName(goalPred), seed, args)
		if err != nil {
			return nil, err
		}
		row.MagicTime = time.Since(t0)
		restricted := res.Select(func(t value.Tuple) bool { return t[0] == src })
		row.MagicSize = res.Len()
		if restricted.Len() != row.Selected {
			return nil, fmt.Errorf("E7: magic answers %d != filtered %d on %s",
				restricted.Len(), row.Selected, name)
		}
		out = append(out, row)
	}
	return out, nil
}

// DefaultE7Workloads returns the workload suite for E7. Sources are chosen
// with small forward cones (late chain nodes, a late DAG layer, a node near
// the grid corner): the shape of a selective interactive query.
func DefaultE7Workloads() map[string]E7Workload {
	return map[string]E7Workload{
		"chain-128":  {Edges: workload.Chain(128), Source: 112},
		"chain-512":  {Edges: workload.Chain(512), Source: 480},
		"dag-8x16x2": {Edges: workload.RandomDAG(8, 16, 2, 23), Source: 6 * 16},
		"grid-10x10": {Edges: workload.Grid(10, 10), Source: 10*11 + 5},
	}
}

// PrintE7 runs and prints E7.
func PrintE7(w io.Writer) error {
	rows, err := RunE7(DefaultE7Workloads())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "E7: bound-head query — full LFP + filter vs magic-restricted LFP")
	t := &table{header: []string{"workload", "|E|", "|answer|",
		"full tuples", "full time", "magic tuples", "magic time", "speedup"}}
	for _, r := range rows {
		speed := float64(r.FullTime) / float64(r.MagicTime)
		t.add(r.Workload, fmt.Sprint(r.Edges), fmt.Sprint(r.Selected),
			fmt.Sprint(r.FullTuples), ms(r.FullTime),
			fmt.Sprint(r.MagicSize), ms(r.MagicTime),
			fmt.Sprintf("%.1fx", speed))
	}
	t.write(w)
	return nil
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// ---------------------------------------------------------------------------
// E4: positivity and non-monotonic examples (section 3.3)
// ---------------------------------------------------------------------------

// PrintE4 reproduces the section 3.3 examples: nonsense is rejected by the
// strict compiler and oscillates with period 2 when forced; strange
// converges to {0,2,4,6} on {0..6}.
func PrintE4(w io.Writer) error {
	fmt.Fprintln(w, "E4: positivity constraint and non-monotonic fixpoints (section 3.3)")
	const nonsenseSrc = `
MODULE m;
TYPE anyrel = RELATION OF RECORD a: STRING END;
CONSTRUCTOR nonsense FOR Rel: anyrel (): anyrel;
BEGIN EACH r IN Rel: NOT (r IN Rel{nonsense}) END nonsense;
END m.
`
	m, err := parser.ParseModule(nonsenseSrc)
	if err != nil {
		return err
	}
	var nonsense *ast.ConstructorDecl
	for _, d := range m.Decls {
		if cd, ok := d.(*ast.ConstructorDecl); ok {
			nonsense = cd
		}
	}
	anyT := schema.RelationType{Element: schema.RecordType{Attrs: []schema.Attribute{
		{Name: "a", Type: schema.StringType()}}}}

	strict := core.NewRegistry()
	_, strictErr := strict.Register(nonsense, anyT)
	fmt.Fprintf(w, "  strict compiler rejects nonsense: %v\n", strictErr != nil)

	loose := core.NewRegistry()
	loose.Strict = false
	if _, err := loose.Register(nonsense, anyT); err != nil {
		return err
	}
	en := core.NewEngine(loose, eval.NewEnv())
	base := relation.MustFromTuples(anyT, value.NewTuple(value.Str("x")))
	_, oscErr := en.Apply("nonsense", base, nil)
	fmt.Fprintf(w, "  forced evaluation of nonsense: %v\n", oscErr)

	const strangeSrc = `
MODULE m;
TYPE cardrel = RELATION OF RECORD number: CARDINAL END;
CONSTRUCTOR strange FOR Baserel: cardrel (): cardrel;
BEGIN
  EACH r IN Baserel: NOT SOME s IN Baserel{strange} (r.number = s.number + 1)
END strange;
END m.
`
	m2, err := parser.ParseModule(strangeSrc)
	if err != nil {
		return err
	}
	var strange *ast.ConstructorDecl
	for _, d := range m2.Decls {
		if cd, ok := d.(*ast.ConstructorDecl); ok {
			strange = cd
		}
	}
	cardT := schema.RelationType{Element: schema.RecordType{Attrs: []schema.Attribute{
		{Name: "number", Type: schema.CardinalType()}}}}
	loose2 := core.NewRegistry()
	loose2.Strict = false
	if _, err := loose2.Register(strange, cardT); err != nil {
		return err
	}
	en2 := core.NewEngine(loose2, eval.NewEnv())
	var tups []value.Tuple
	for i := int64(0); i <= 6; i++ {
		tups = append(tups, value.NewTuple(value.Int(i)))
	}
	res, err := en2.Apply("strange", relation.MustFromTuples(cardT, tups...), nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  strange on {0..6} converges (naive, %d rounds) to %s  [paper: {0,2,4,6}]\n",
		en2.LastStats().Rounds, res)
	return nil
}
