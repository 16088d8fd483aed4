package incbsim

import (
	"testing"

	"gpm/internal/core"
	"gpm/internal/generator"
	"gpm/internal/graph"
	"gpm/internal/landmark"
)

// Ablation: incremental bounded matching versus the matrix baseline versus
// batch recomputation, plus the landmark-backed variant — the Fig. 19
// design space at micro scale.

func benchSetup(b *testing.B) (*graph.Graph, []graph.Update) {
	b.Helper()
	g := generator.Synthetic(800, 3600, generator.DefaultSchema(8), 1)
	ups := generator.Updates(g, 25, 25, 2)
	return g, ups
}

func benchPattern(g *graph.Graph) generator.PatternParams {
	return generator.PatternParams{Nodes: 4, Edges: 5, Preds: 2, K: 3}
}

func BenchmarkIncBMatchBatch(b *testing.B) {
	g, ups := benchSetup(b)
	p := generator.DAGPattern(g, benchPattern(g), 3)
	e, err := New(p, g)
	if err != nil {
		b.Fatal(err)
	}
	inv := invert(ups)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Batch(ups)
		e.Batch(inv)
	}
}

// BenchmarkIncBMatchDeleteBatch and BenchmarkIncBMatchInsertBatch time one
// direction of the batch repair each; the batch that restores the graph
// runs with the timer stopped.
func BenchmarkIncBMatchDeleteBatch(b *testing.B) {
	g, _ := benchSetup(b)
	benchOneWay(b, g, generator.Updates(g, 0, 50, 2))
}

func BenchmarkIncBMatchInsertBatch(b *testing.B) {
	g, _ := benchSetup(b)
	benchOneWay(b, g, generator.Updates(g, 50, 0, 2))
}

func benchOneWay(b *testing.B, g *graph.Graph, ups []graph.Update) {
	p := generator.DAGPattern(g, benchPattern(g), 3)
	e, err := New(p, g)
	if err != nil {
		b.Fatal(err)
	}
	inv := invert(ups)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Batch(ups)
		b.StopTimer()
		e.Batch(inv)
		b.StartTimer()
	}
}

func BenchmarkIncBMatchLandmarkBacked(b *testing.B) {
	g, ups := benchSetup(b)
	p := generator.DAGPattern(g, benchPattern(g), 3)
	e, err := New(p, g, WithLandmarkIndex(landmark.New(g)))
	if err != nil {
		b.Fatal(err)
	}
	inv := invert(ups)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Batch(ups)
		e.Batch(inv)
	}
}

func BenchmarkIncBMatchMatrixBaseline(b *testing.B) {
	g, ups := benchSetup(b)
	p := generator.DAGPattern(g, benchPattern(g), 3)
	m, err := NewMatrix(p, g)
	if err != nil {
		b.Fatal(err)
	}
	inv := invert(ups)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Batch(ups)
		m.Batch(inv)
	}
}

func BenchmarkBatchRecomputeMatchbs(b *testing.B) {
	g, ups := benchSetup(b)
	p := generator.DAGPattern(g, benchPattern(g), 3)
	inv := invert(ups)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ApplyAll(ups) //nolint:errcheck
		core.MatchMatrix(p, g)
		g.ApplyAll(inv) //nolint:errcheck
		core.MatchMatrix(p, g)
	}
}

func invert(ups []graph.Update) []graph.Update {
	inv := make([]graph.Update, len(ups))
	for i, up := range ups {
		inv[len(ups)-1-i] = up.Inverse()
	}
	return inv
}
