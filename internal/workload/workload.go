// Package workload generates the deterministic synthetic datasets used by
// the experiment suite (internal/experiments). The paper's running example is a
// CAD scene of objects related by Infront and Ontop facts (sections 2–3);
// the recursion benchmarks additionally use the graph shapes classic for
// deductive-database evaluation: chains, cycles, trees, grids (whose
// exponential path counts separate proof-oriented from set-oriented
// evaluation), and seeded random graphs.
//
// All generators are deterministic: identical parameters produce identical
// relations, so measured experiments are reproducible.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// Node names a graph vertex; NodeName is stable across runs.
func NodeName(i int) string { return fmt.Sprintf("n%04d", i) }

// Edge is a directed edge between node indices.
type Edge struct{ From, To int }

// Chain returns the edges of a path 0 -> 1 -> ... -> n.
func Chain(n int) []Edge {
	out := make([]Edge, n)
	for i := 0; i < n; i++ {
		out[i] = Edge{From: i, To: i + 1}
	}
	return out
}

// Cycle returns the edges of a directed cycle over n nodes.
func Cycle(n int) []Edge {
	out := make([]Edge, n)
	for i := 0; i < n; i++ {
		out[i] = Edge{From: i, To: (i + 1) % n}
	}
	return out
}

// Tree returns the edges of a complete tree with the given branching factor
// and depth, parent -> child.
func Tree(branching, depth int) []Edge {
	var out []Edge
	// Level-order node ids; node 0 is the root.
	var frontier []int
	frontier = append(frontier, 0)
	next := 1
	for d := 0; d < depth; d++ {
		var newFrontier []int
		for _, p := range frontier {
			for b := 0; b < branching; b++ {
				out = append(out, Edge{From: p, To: next})
				newFrontier = append(newFrontier, next)
				next++
			}
		}
		frontier = newFrontier
	}
	return out
}

// Grid returns the edges of a w x h grid with rightward and downward edges.
// The number of distinct paths between opposite corners is binomial(w+h, w),
// which makes un-memoized proof enumeration exponential while the transitive
// closure stays polynomial — the separation the paper's section 1 claims.
func Grid(w, h int) []Edge {
	id := func(x, y int) int { return y*(w+1) + x }
	var out []Edge
	for y := 0; y <= h; y++ {
		for x := 0; x <= w; x++ {
			if x < w {
				out = append(out, Edge{From: id(x, y), To: id(x+1, y)})
			}
			if y < h {
				out = append(out, Edge{From: id(x, y), To: id(x, y+1)})
			}
		}
	}
	return out
}

// RandomDAG returns a layered random DAG: nodes are split into layers of the
// given width, and each node gets outDeg random successors in the next layer.
func RandomDAG(layers, width, outDeg int, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	var out []Edge
	for l := 0; l < layers-1; l++ {
		for i := 0; i < width; i++ {
			from := l*width + i
			for d := 0; d < outDeg; d++ {
				to := (l+1)*width + rng.Intn(width)
				out = append(out, Edge{From: from, To: to})
			}
		}
	}
	return out
}

// RandomGraph returns nEdges distinct random directed edges over n nodes
// (self-loops allowed, duplicates not).
func RandomGraph(n, nEdges int, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[Edge]bool, nEdges)
	var out []Edge
	for len(out) < nEdges {
		e := Edge{From: rng.Intn(n), To: rng.Intn(n)}
		if seen[e] {
			continue
		}
		seen[e] = true
		out = append(out, e)
	}
	return out
}

// BinaryStringRelType returns a binary relation type with string attributes.
func BinaryStringRelType(name, a, b string) schema.RelationType {
	return schema.RelationType{
		Name: name,
		Element: schema.RecordType{Attrs: []schema.Attribute{
			{Name: a, Type: schema.StringType()},
			{Name: b, Type: schema.StringType()},
		}},
	}
}

// EdgesToRelation materializes edges as a binary string relation.
func EdgesToRelation(typ schema.RelationType, edges []Edge) *relation.Relation {
	r := relation.New(typ)
	for _, e := range edges {
		r.Add(value.NewTuple(value.Str(NodeName(e.From)), value.Str(NodeName(e.To))))
	}
	return r
}

// EdgesToTuples converts edges to name tuples.
func EdgesToTuples(edges []Edge) []value.Tuple {
	out := make([]value.Tuple, len(edges))
	for i, e := range edges {
		out[i] = value.NewTuple(value.Str(NodeName(e.From)), value.Str(NodeName(e.To)))
	}
	return out
}

// ---------------------------------------------------------------------------
// CAD scene (the paper's running example)
// ---------------------------------------------------------------------------

// CADScene is a generated scene: objects arranged in depth lanes (Infront
// chains) with stacks of objects on top of lane members (Ontop).
type CADScene struct {
	Objects *relation.Relation // unary: object part names
	Infront *relation.Relation // front, back
	Ontop   *relation.Relation // top, base
}

// CADTypes returns the scene's relation types, named as in the paper.
func CADTypes() (objects, infront, ontop schema.RelationType) {
	objects = schema.RelationType{
		Name: "objectrel",
		Element: schema.RecordType{Attrs: []schema.Attribute{
			{Name: "part", Type: schema.StringType()},
		}},
		Key: []string{"part"},
	}
	infront = BinaryStringRelType("infrontrel", "front", "back")
	ontop = BinaryStringRelType("ontoprel", "top", "base")
	return
}

// NewCADScene generates a scene with the given number of depth lanes, lane
// length, and stack height; deterministic in seed.
func NewCADScene(lanes, laneLen, stackHeight int, seed int64) *CADScene {
	rng := rand.New(rand.NewSource(seed))
	objT, infT, onT := CADTypes()
	s := &CADScene{
		Objects: relation.New(objT),
		Infront: relation.New(infT),
		Ontop:   relation.New(onT),
	}
	obj := func(name string) string {
		s.Objects.Add(value.NewTuple(value.Str(name)))
		return name
	}
	for l := 0; l < lanes; l++ {
		prev := obj(fmt.Sprintf("lane%02d_obj%03d", l, 0))
		for i := 1; i <= laneLen; i++ {
			cur := obj(fmt.Sprintf("lane%02d_obj%03d", l, i))
			s.Infront.Add(value.NewTuple(value.Str(prev), value.Str(cur)))
			// Randomly stack objects on this lane member.
			base := cur
			for h := 0; h < stackHeight; h++ {
				if rng.Intn(2) == 0 {
					break
				}
				top := obj(fmt.Sprintf("lane%02d_obj%03d_st%d", l, i, h))
				s.Ontop.Add(value.NewTuple(value.Str(top), value.Str(base)))
				base = top
			}
			prev = cur
		}
	}
	return s
}

// ---------------------------------------------------------------------------
// Same-generation and bill-of-materials workloads
// ---------------------------------------------------------------------------

// ParentTree returns parent(child, parent) tuples for a complete tree —
// the input of the classic same-generation query.
func ParentTree(branching, depth int) []value.Tuple {
	edges := Tree(branching, depth)
	out := make([]value.Tuple, len(edges))
	for i, e := range edges {
		// parent relates child -> parent.
		out[i] = value.NewTuple(value.Str(NodeName(e.To)), value.Str(NodeName(e.From)))
	}
	return out
}

// BOM generates an acyclic bill-of-materials: assemblies composed of
// sub-assemblies across the given number of levels, with fanout components
// each and a quantity column. Tuples are (assembly, component, qty written
// into the name); the relation stays binary to match the DSL examples.
type BOM struct {
	Contains *relation.Relation // assembly, component
	Root     string
}

// NewBOM builds a bill-of-materials tree with sharing: each assembly uses
// fanout components, and with probability 1/3 a component is shared with a
// sibling (a DAG, making proof counts grow combinatorially).
func NewBOM(levels, fanout int, seed int64) *BOM {
	rng := rand.New(rand.NewSource(seed))
	typ := BinaryStringRelType("bomrel", "assembly", "component")
	b := &BOM{Contains: relation.New(typ), Root: "asm_0_0"}
	prev := []string{b.Root}
	for l := 1; l <= levels; l++ {
		var cur []string
		for i := 0; i < len(prev)*fanout; i++ {
			cur = append(cur, fmt.Sprintf("asm_%d_%d", l, i))
		}
		for pi, p := range prev {
			for f := 0; f < fanout; f++ {
				child := cur[pi*fanout+f]
				if rng.Intn(3) == 0 && pi > 0 {
					// Share a sibling's component instead.
					child = cur[(pi-1)*fanout+f]
				}
				b.Contains.Add(value.NewTuple(value.Str(p), value.Str(child)))
			}
		}
		prev = cur
	}
	return b
}
