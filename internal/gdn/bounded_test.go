package gdn

import (
	"math/rand"
	"testing"

	"gpm/internal/core"
	"gpm/internal/generator"
	"gpm/internal/graph"
	"gpm/internal/incbsim"
	"gpm/internal/pattern"
)

// mustPattern builds a pattern over single-letter labels; edges are
// {from, to, bound} triples.
func mustPattern(t testing.TB, labels string, edges ...[3]int) *pattern.Pattern {
	t.Helper()
	p := pattern.New()
	for _, l := range labels {
		p.AddNode(pattern.Label(string(l)))
	}
	for _, e := range edges {
		if err := p.AddEdge(e[0], e[1], e[2]); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// boundOneNode is the test's own model of one bound-1 edge node: its
// single-edge sub-pattern, matched from scratch on the pre-commit graph.
type boundOneNode struct {
	src, dst pattern.Predicate
	selfLoop bool
}

func (m boundOneNode) relevant(g *graph.Graph, ups []graph.Update) bool {
	sub := pattern.New()
	sub.AddNode(m.src)
	to := 0
	if !m.selfLoop {
		sub.AddNode(m.dst)
		to = 1
	}
	if err := sub.AddEdge(0, to, 1); err != nil {
		panic(err)
	}
	match := core.Match(sub, g)
	for _, up := range ups {
		if up.Op == graph.InsertEdge {
			if m.src.Eval(g.Attrs(up.From)) && m.dst.Eval(g.Attrs(up.To)) {
				return true
			}
		} else if match[0].Has(up.From) && match[to].Has(up.To) {
			return true
		}
	}
	return false
}

// TestBoundedEdgeNodesHoldNoEngine registers bsim patterns mixing bound-1,
// bound-3 and * edges. Only bound-1 edge nodes carry an engine, only they
// count toward EdgeRepairs (and only on commits relevant to them), a join
// with a bounded edge repairs on every non-empty commit, and every handle
// still agrees with a private engine and with batch recomputation.
func TestBoundedEdgeNodesHoldNoEngine(t *testing.T) {
	const star = pattern.Unbounded
	rng := rand.New(rand.NewSource(5))
	g := generator.RandomGraph(60, 150, 3, 9)
	net := New(g, 1)

	mixed := mustPattern(t, "abc", [3]int{0, 1, 1}, [3]int{1, 2, 3}, [3]int{2, 0, star})
	pats := []*pattern.Pattern{
		mixed,
		renumber(mixed, []int{1, 2, 0}),
		mustPattern(t, "abc", [3]int{0, 1, 3}, [3]int{1, 2, star}), // all bounded
		mustPattern(t, "ab", [3]int{0, 1, 1}, [3]int{1, 1, 1}),     // all bound 1, with a self-loop
		mustPattern(t, "aa", [3]int{0, 1, 3}, [3]int{1, 1, 3}),     // bounded self-loop
		mustPattern(t, "c"), // no edges: never repairs
	}
	handles := make([]*Handle, len(pats))
	private := make([]*incbsim.Engine, len(pats))
	boundOne := map[string]boundOneNode{}
	for i, p := range pats {
		var err error
		if handles[i], err = net.Register(KindBSim, p); err != nil {
			t.Fatalf("Register %d: %v", i, err)
		}
		if private[i], err = incbsim.NewShared(p, g); err != nil {
			t.Fatalf("private engine %d: %v", i, err)
		}
		for _, ed := range pattern.Decompose(p).Edges {
			if ed.Bound != 1 {
				continue
			}
			src, _ := pattern.ParsePredicate(ed.SrcPred)
			dst, _ := pattern.ParsePredicate(ed.DstPred)
			boundOne[ed.Key] = boundOneNode{src: src, dst: dst, selfLoop: ed.SelfLoop}
		}
	}

	bounded := 0
	for _, e := range net.edges {
		if (e.eng != nil) != (e.bound == 1) {
			t.Fatalf("edge node %q (bound %d): engine present = %v", e.key, e.bound, e.eng != nil)
		}
		if e.bound != 1 {
			bounded++
		}
	}
	if bounded == 0 || len(boundOne) == 0 || len(net.edges) != bounded+len(boundOne) {
		t.Fatalf("want bound-1 and bounded edge nodes, got %d bounded + %d bound-1 of %d", bounded, len(boundOne), len(net.edges))
	}
	// Distinct joins, and whether each one has a bounded edge.
	joins := map[*joinNode]bool{}
	for _, h := range handles {
		hasBounded := false
		for _, e := range h.join.edges {
			hasBounded = hasBounded || e.bound != 1
		}
		joins[h.join] = hasBounded
	}
	if !joins[handles[2].join] {
		t.Fatal("the all-bounded pattern's join has no bounded edge")
	}

	var skippedBoundOne, repairedBoundOne bool
	for round := 0; round < 30; round++ {
		effective := graph.NetUpdates(g, randomUpdates(g, 1+rng.Intn(6), rng))
		if len(effective) == 0 {
			continue
		}
		wantEdge := 0
		relevantKeys := map[string]bool{}
		for key, m := range boundOne {
			if m.relevant(g, effective) {
				wantEdge++
				relevantKeys[key] = true
			}
		}
		wantJoin := 0
		for j, hasBounded := range joins {
			moved := hasBounded
			for _, e := range j.edges {
				moved = moved || relevantKeys[e.key]
			}
			if moved {
				wantJoin++
			}
		}
		skippedBoundOne = skippedBoundOne || wantEdge < len(boundOne)
		repairedBoundOne = repairedBoundOne || wantEdge > 0

		before := net.Stats()
		net.Apply(effective)
		after := net.Stats()
		if got := after.EdgeRepairs - before.EdgeRepairs; got != int64(wantEdge) {
			t.Fatalf("round %d: %d edge repairs, want %d (the relevant bound-1 nodes)", round, got, wantEdge)
		}
		if got := after.JoinRepairs - before.JoinRepairs; got != int64(wantJoin) {
			t.Fatalf("round %d: %d join repairs, want %d", round, got, wantJoin)
		}
		for i, h := range handles {
			if got, want := h.Delta(), private[i].BatchDelta(effective); !deltasEqual(got, want) {
				t.Fatalf("round %d pattern %d: delta mismatch\n got  %+v\n want %+v", round, i, got, want)
			}
		}
		if _, err := g.ApplyAll(effective); err != nil {
			t.Fatal(err)
		}
		for i, h := range handles {
			got := h.Result()
			if want := private[i].Result(); !got.Equal(want) {
				t.Fatalf("round %d pattern %d: result differs from private engine\n got  %v\n want %v", round, i, got, want)
			}
			if want := core.Match(pats[i], g); !got.Equal(want) {
				t.Fatalf("round %d pattern %d: result differs from recomputation\n got  %v\n want %v", round, i, got, want)
			}
		}
	}
	if !skippedBoundOne || !repairedBoundOne {
		t.Fatalf("bound-1 relevance never varied: skipped=%v repaired=%v", skippedBoundOne, repairedBoundOne)
	}
	for _, h := range handles {
		h.Release()
	}
	if s := net.Stats(); s.Patterns != 0 || s.JoinNodes != 0 || s.EdgeNodes != 0 || s.PredNodes != 0 {
		t.Fatalf("release did not tear the network down: %+v", s)
	}
}

// BenchmarkNetworkApplyBSim times one commit's network repair: 4 bsim DAG
// patterns (k=3) over a Synthetic graph, 32-update batches. Registration
// and applying each commit to the base graph stay outside the timer.
func BenchmarkNetworkApplyBSim(b *testing.B) {
	g := generator.Synthetic(3400, 21600, generator.DefaultSchema(8), 3)
	net := New(g, 0)
	for i := 0; i < 4; i++ {
		p := generator.DAGPattern(g, generator.PatternParams{Nodes: 4, Edges: 5, Preds: 2, K: 3}, 16+int64(i))
		if _, err := net.Register(KindBSim, p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ups := graph.NetUpdates(g, generator.Updates(g, 16, 16, int64(i)))
		b.StartTimer()
		net.Apply(ups)
		b.StopTimer()
		if _, err := g.ApplyAll(ups); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
