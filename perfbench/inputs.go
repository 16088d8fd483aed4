package main

import (
	"fmt"
	"math/rand"

	"gpm/internal/generator"
	"gpm/internal/graph"
	"gpm/internal/pattern"
)

// inputs is the world a workload runs in: a base graph and the standing
// patterns (streamGen draws the update batches). The program only ever
// sees generated inputs; the seed stays on the benchmark's side.
type inputs struct {
	base     *graph.Graph
	patterns []namedPattern
	kind     string // "sim" or "bsim": the engine the patterns register under
	families []*pattern.Pattern
}

type namedPattern struct {
	id string
	p  *pattern.Pattern
}

// simInputs is the serve-* world: a Synthetic graph with nPats sim patterns
// that are renumberings of 5 structural families, so the shared network
// collapses them onto 5 joins.
func simInputs(seed int64, nodes, edges, nPats int) *inputs {
	base := generator.Synthetic(nodes, edges, generator.DefaultSchema(4), seed)
	const families = 5
	protos := make([]*pattern.Pattern, families)
	for f := range protos {
		protos[f] = generator.Pattern(base, generator.PatternParams{Nodes: 3 + f%3, Edges: 3 + f%3, Preds: 1, K: 1}, seed+int64(61+f))
	}
	rng := rand.New(rand.NewSource(seed + 71))
	in := &inputs{base: base, kind: "sim", families: protos}
	for i := 0; i < nPats; i++ {
		proto := protos[i%families]
		in.patterns = append(in.patterns, namedPattern{
			id: fmt.Sprintf("p%02d", i),
			p:  renumber(proto, rng.Perm(proto.NumNodes())),
		})
	}
	return in
}

// bsimInputs is the bsim-churn world: a Synthetic graph with nPats DAG
// b-patterns (4 nodes, 5 edges, k=3), the shape of the paper's Fig 19.
func bsimInputs(seed int64, nodes, edges, nPats int) *inputs {
	base := generator.Synthetic(nodes, edges, generator.DefaultSchema(8), seed)
	in := &inputs{base: base, kind: "bsim"}
	for i := 0; i < nPats; i++ {
		p := generator.DAGPattern(base, generator.PatternParams{Nodes: 4, Edges: 5, Preds: 2, K: 3}, seed+13+int64(i))
		in.patterns = append(in.patterns, namedPattern{id: fmt.Sprintf("b%02d", i), p: p})
		in.families = append(in.families, p)
	}
	return in
}

// renumber relabels p by the permutation m (m[orig] = new id).
func renumber(p *pattern.Pattern, m []int) *pattern.Pattern {
	inv := make([]int, len(m))
	for u, c := range m {
		inv[c] = u
	}
	q := pattern.New()
	for c := range inv {
		q.AddNode(p.Pred(inv[c]))
	}
	for _, e := range p.Edges() {
		if err := q.AddColoredEdge(m[e.From], m[e.To], e.Bound, e.Color); err != nil {
			panic(err)
		}
	}
	return q
}

// streamGen draws update batches from a shadow copy of the graph. Writer
// w only ever touches edges whose source node is ≡ w (mod writers), so
// batches of different writers commute: however the server interleaves
// them, the final graph is the base plus every sent batch, and no update
// is ever a no-op.
//
// The graph churns around its base instead of drifting away from it:
// half of each batch is fresh updates, the other half reverts the fresh
// updates of the same writer's batch revertAfter batches earlier. A run's
// cost then depends on the batches, not on how far the graph has wandered.
type streamGen struct {
	shadow  *graph.Graph
	writers int
	rng     *rand.Rand
	history [][][]graph.Update // per writer, fresh halves awaiting revert
	pending []map[[2]graph.NodeID]bool
}

const revertAfter = 8

func newStreamGen(base *graph.Graph, writers int, seed int64) *streamGen {
	s := &streamGen{shadow: base.Clone(), writers: writers, rng: rand.New(rand.NewSource(seed)),
		history: make([][][]graph.Update, writers), pending: make([]map[[2]graph.NodeID]bool, writers)}
	for w := range s.pending {
		s.pending[w] = map[[2]graph.NodeID]bool{}
	}
	return s
}

// pick draws a node of writer w's partition, biased to the higher-degree
// of two uniform draws (the paper's update protocol).
func (s *streamGen) pick(w int, needOut bool) graph.NodeID {
	n := s.shadow.NumNodes()
	draw := func() graph.NodeID {
		for {
			v := s.rng.Intn(n)
			v -= v % s.writers
			v += w
			if v < n && (!needOut || s.shadow.OutDegree(v) > 0) {
				return v
			}
		}
	}
	a, b := draw(), draw()
	if s.shadow.Degree(a) >= s.shadow.Degree(b) {
		return a
	}
	return b
}

// batch returns nIns insertions and nDel deletions for writer w (each
// even), applied to the shadow so later batches see them. No edge is
// touched twice in one batch.
func (s *streamGen) batch(w, nIns, nDel int) []graph.Update {
	ups := make([]graph.Update, 0, nIns+nDel)
	touched := make(map[[2]graph.NodeID]bool, nIns+nDel)
	if h := s.history[w]; len(h) >= revertAfter {
		for _, up := range h[0] {
			k := [2]graph.NodeID{up.From, up.To}
			delete(s.pending[w], k)
			touched[k] = true
			if up.Op == graph.InsertEdge {
				ups = append(ups, graph.Delete(up.From, up.To))
			} else {
				ups = append(ups, graph.Insert(up.From, up.To))
			}
		}
		s.history[w] = h[1:]
	} else {
		// Warm-up: no batch to revert yet, so the other half is fresh
		// too (and permanent).
		ups = append(ups, s.fresh(w, nIns/2, nDel/2, touched)...)
	}
	half := s.fresh(w, nIns/2, nDel/2, touched)
	for _, up := range half {
		s.pending[w][[2]graph.NodeID{up.From, up.To}] = true
	}
	s.history[w] = append(s.history[w], half)
	ups = append(ups, half...)
	s.rng.Shuffle(len(ups), func(i, j int) { ups[i], ups[j] = ups[j], ups[i] })
	mustApply(s.shadow, ups)
	return ups
}

// fresh draws new insertions and deletions, avoiding edges touched in
// this batch or awaiting revert.
func (s *streamGen) fresh(w, nIns, nDel int, touched map[[2]graph.NodeID]bool) []graph.Update {
	var ups []graph.Update
	n := s.shadow.NumNodes()
	for i := 0; i < nIns; {
		u := s.pick(w, false)
		a, b := s.rng.Intn(n), s.rng.Intn(n)
		v := a
		if s.shadow.Degree(b) > s.shadow.Degree(a) {
			v = b
		}
		k := [2]graph.NodeID{u, v}
		if u == v || touched[k] || s.pending[w][k] || s.shadow.HasEdge(u, v) {
			continue
		}
		touched[k] = true
		ups = append(ups, graph.Insert(u, v))
		i++
	}
	for i := 0; i < nDel; {
		u := s.pick(w, true)
		out := s.shadow.Out(u)
		v := out[s.rng.Intn(len(out))]
		k := [2]graph.NodeID{u, v}
		if touched[k] || s.pending[w][k] {
			continue
		}
		touched[k] = true
		ups = append(ups, graph.Delete(u, v))
		i++
	}
	return ups
}

// mustApply applies a batch the generator drew; every update must change
// the graph, or the generator is broken.
func mustApply(g *graph.Graph, ups []graph.Update) {
	for _, up := range ups {
		if changed, err := g.Apply(up); err != nil || !changed {
			panic(fmt.Sprintf("generator drew a no-op or invalid update %v: %v", up, err))
		}
	}
}
