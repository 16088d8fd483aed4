package incbsim

import (
	"fmt"
	"reflect"
	"testing"

	"gpm/internal/core"
	"gpm/internal/generator"
	"gpm/internal/graph"
	"gpm/internal/landmark"
	"gpm/internal/pattern"
	"gpm/internal/rel"
)

// variant is one engine configuration under test, with the graph its
// result must match: the owned graph, or the base a shared engine's owner
// commits to.
type variant struct {
	name string
	e    *Engine
	g    *graph.Graph
}

// newVariants builds every engine configuration the repair must agree
// across, each over its own copy of g: serial and parallel owned engines, a
// landmark-backed engine and a shared (overlay) engine.
func newVariants(t testing.TB, p *pattern.Pattern, g *graph.Graph) []variant {
	t.Helper()
	var vs []variant
	add := func(name string, g *graph.Graph, build func(*graph.Graph) (*Engine, error)) {
		e, err := build(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		vs = append(vs, variant{name, e, g})
	}
	for _, w := range []int{1, 4} {
		add(fmt.Sprintf("workers=%d", w), g.Clone(), func(g *graph.Graph) (*Engine, error) {
			return New(p, g, WithWorkers(w))
		})
	}
	add("landmark", g.Clone(), func(g *graph.Graph) (*Engine, error) {
		return New(p, g, WithLandmarkIndex(landmark.New(g)))
	})
	add("shared", g.Clone(), func(g *graph.Graph) (*Engine, error) {
		return NewShared(p, g)
	})
	return vs
}

// batch applies ups to the variant's engine and, for a shared engine,
// commits them to its base as the NewShared contract requires.
func (v variant) batch(t testing.TB, ups []graph.Update) rel.Delta {
	t.Helper()
	d := v.e.BatchDelta(ups)
	if v.e.Graph() == nil {
		if _, err := v.g.ApplyAll(ups); err != nil {
			t.Fatalf("%s: committing to the shared base: %v", v.name, err)
		}
	}
	return d
}

// check compares the variant against batch recomputation and recounts its
// support counters.
func (v variant) check(t testing.TB, context string) {
	t.Helper()
	want := core.Match(v.e.Pattern(), v.g)
	if got := v.e.Result(); !got.Equal(want) {
		t.Fatalf("%s, %s: incremental=%v batch=%v", v.name, context, got, want)
	}
	if err := v.e.checkInvariants(); err != nil {
		t.Fatalf("%s, %s: invariant violated: %v", v.name, context, err)
	}
}

// labeled builds a graph whose node i carries label labels[i] and the
// given edges.
func labeled(labels string, edges [][2]graph.NodeID) *graph.Graph {
	g := graph.New()
	for _, l := range labels {
		g.AddNode(graph.Tuple{"label": graph.String(string(l))})
	}
	for _, e := range edges {
		g.AddEdge(e[0], e[1]) //nolint:errcheck // in range by construction
	}
	return g
}

// edgePattern is the one-edge pattern a→b with the given bound.
func edgePattern(bound int) *pattern.Pattern {
	p := pattern.New()
	a := p.AddNode(pattern.Label("a"))
	b := p.AddNode(pattern.Label("b"))
	p.AddEdge(a, b, bound) //nolint:errcheck // valid by construction
	return p
}

func TestBatchDeletionSweep(t *testing.T) {
	cases := []struct {
		name  string
		p     *pattern.Pattern
		g     *graph.Graph
		batch []graph.Update
		size  int // pairs in the result after the batch
	}{{
		// s→x→t and s→y→t: one batch cuts both parallel paths, so s loses
		// its only target and the match collapses.
		name:  "diamond cut on both branches",
		p:     edgePattern(2),
		g:     labeled("accb", [][2]graph.NodeID{{0, 1}, {1, 3}, {0, 2}, {2, 3}}),
		batch: []graph.Update{graph.Delete(0, 1), graph.Delete(2, 3)},
		size:  0,
	}, {
		// (s, t) is tight through both deleted edges, and s keeps a second
		// target t2: its counter must drop from 2 to 1, not to 0.
		name:  "pair tight through two deleted edges",
		p:     edgePattern(2),
		g:     labeled("accbb", [][2]graph.NodeID{{0, 1}, {1, 3}, {0, 2}, {2, 3}, {0, 4}}),
		batch: []graph.Update{graph.Delete(1, 3), graph.Delete(2, 3)},
		size:  3,
	}, {
		// A *-bound edge: s reaches t by two long paths and lies on a cycle
		// through t. The batch cuts both paths, which empties s's counter,
		// and in the same batch gives s the new target t2, which promotes
		// it back.
		name: "unbounded pattern edge",
		p:    edgePattern(pattern.Unbounded),
		g: labeled("acccbccb", [][2]graph.NodeID{
			{0, 1}, {1, 2}, {2, 3}, {3, 4}, // s→p1→p2→p3→t
			{0, 5}, {5, 6}, {6, 4}, // s→q1→q2→t
			{4, 0}, {6, 1}, // t→s, q2→p1
		}),
		batch: []graph.Update{graph.Delete(2, 3), graph.Delete(6, 4), graph.Delete(0, 1), graph.Insert(5, 7)},
		size:  3,
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, v := range newVariants(t, tc.p, tc.g) {
				v.check(t, "initial")
				v.batch(t, tc.batch)
				v.check(t, "after the batch")
				if got := v.e.Result().Size(); got != tc.size {
					t.Fatalf("%s: %d pairs after the batch, want %d", v.name, got, tc.size)
				}
			}
		})
	}
}

// TestUnitDeleteIsOneEdgeBatch checks that a unit Delete and a one-edge
// Batch take the same path: the same delta, result and affected-area
// statistics, on every engine variant.
func TestUnitDeleteIsOneEdgeBatch(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := generator.RandomGraph(14, 30, 3, seed)
		p := generator.RandomPattern(3, 4, 3, 3, seed+50)
		unit := newVariants(t, p, g)
		batch := newVariants(t, p, g)
		for _, up := range generator.Updates(g, 0, 12, seed+90) {
			for i := range unit {
				u, b := unit[i], batch[i]
				u.e.ResetStats()
				b.e.ResetStats()
				_, du := u.e.DeleteDelta(up.From, up.To)
				if u.e.Graph() == nil {
					u.g.RemoveEdge(up.From, up.To)
				}
				db := b.batch(t, []graph.Update{up})
				if !reflect.DeepEqual(du, db) {
					t.Fatalf("seed %d, %s, %v: Delete delta %v, Batch delta %v", seed, u.name, up, du, db)
				}
				if u.e.Stats() != b.e.Stats() {
					t.Fatalf("seed %d, %s, %v: Delete stats %+v, Batch stats %+v", seed, u.name, up, u.e.Stats(), b.e.Stats())
				}
				u.check(t, fmt.Sprintf("seed %d, after %v", seed, up))
			}
		}
	}
}

// FuzzIncBSimBatch decodes its input into a graph of at most 12 nodes, a
// pattern of at most 3 nodes with bounds 1..3 or *, and a stream of mixed
// batches, and checks every engine variant against batch recomputation
// after each batch.
func FuzzIncBSimBatch(f *testing.F) {
	f.Add([]byte{})
	// Nodes a,a,b,c with edges 0→3→2, 1→2, 2→0; the pattern a→b with
	// bound 2, then with bound *; two deletions, then two insertions.
	for _, bound := range []byte{1, 3} {
		f.Add([]byte{
			3, 0, 0, 1, 2, 4, 0, 3, 3, 2, 1, 2, 2, 0,
			1, 0, 1, 1, 0, 1, bound,
			1, 3, 2, 3, 1, 2, 0, 0, 2, 2, 2, 1,
		})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, g, batches := decodeFuzz(data)
		vs := newVariants(t, p, g)
		for i, ups := range batches {
			for _, v := range vs {
				v.batch(t, ups)
				v.check(t, fmt.Sprintf("batch %d %v", i, ups))
			}
		}
	})
}

// decodeFuzz reads one byte at a time, taking 0 once the input runs out:
//
//	n-1, n labels, m, m (from, to) pairs    the graph
//	np-1, np labels, k, k (from, to, bound)  the pattern (bound%4 == 3 is *)
//	(op, from, to)...                        the updates: op bit 0 deletes,
//	                                         bit 1 ends the batch
func decodeFuzz(data []byte) (*pattern.Pattern, *graph.Graph, [][]graph.Update) {
	next := func(mod int) int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b % mod
	}
	label := func() string { return string(rune('a' + next(3))) }

	g := graph.New()
	n := 1 + next(12)
	for i := 0; i < n; i++ {
		g.AddNode(graph.Tuple{"label": graph.String(label())})
	}
	for m := next(3*n + 1); m > 0; m-- {
		g.AddEdge(next(n), next(n)) //nolint:errcheck // in range by construction
	}

	p := pattern.New()
	np := 1 + next(3)
	for i := 0; i < np; i++ {
		p.AddNode(pattern.Label(label()))
	}
	for k := next(np*np + 1); k > 0; k-- {
		u, v, bound := next(np), next(np), 1+next(4)
		if bound == 4 {
			bound = pattern.Unbounded
		}
		p.AddEdge(u, v, bound) //nolint:errcheck // in range, bound >= 1
	}

	var batches [][]graph.Update
	var cur []graph.Update
	for len(data) > 0 {
		op := next(4)
		up := graph.Insert(next(n), next(n))
		if op&1 != 0 {
			up.Op = graph.DeleteEdge
		}
		cur = append(cur, up)
		if op&2 != 0 || len(data) == 0 {
			batches = append(batches, cur)
			cur = nil
		}
	}
	return p, g, batches
}
