package main

import (
	"fmt"
	"sort"

	"gpm/internal/core"
	"gpm/internal/graph"
	"gpm/internal/pattern"
	"gpm/internal/rel"
	"gpm/internal/simulation"
)

// refFunc computes the expected match of a pattern over a graph.
type refFunc func(kind string, p *pattern.Pattern, g *graph.Graph) []rel.Pair

// reference recomputes a pattern's match anew over g: graph
// simulation for sim patterns, bounded simulation for bsim ones. It is
// the oracle every incremental result is checked against.
func reference(kind string, p *pattern.Pattern, g *graph.Graph) []rel.Pair {
	if kind == "sim" {
		return simulation.Maximum(p, g).Pairs()
	}
	return core.MatchBFS(p, g).Pairs()
}

// pairSet is a match relation held as a set, the form stream deltas are
// folded into.
type pairSet map[rel.Pair]struct{}

func newPairSet(ps []rel.Pair) pairSet {
	s := make(pairSet, len(ps))
	for _, p := range ps {
		s[p] = struct{}{}
	}
	return s
}

func (s pairSet) apply(added, removed []rel.Pair) {
	for _, p := range removed {
		delete(s, p)
	}
	for _, p := range added {
		s[p] = struct{}{}
	}
}

func (s pairSet) sorted() []rel.Pair {
	out := make([]rel.Pair, 0, len(s))
	for p := range s {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// samePairs compares two relations given as pair lists, in any order, and
// describes the first difference.
func samePairs(what string, got, want []rel.Pair) error {
	g, w := newPairSet(got), newPairSet(want)
	for p := range w {
		if _, ok := g[p]; !ok {
			return fmt.Errorf("%s: missing pair %v (got %d pairs, want %d)", what, p, len(g), len(w))
		}
	}
	for p := range g {
		if _, ok := w[p]; !ok {
			return fmt.Errorf("%s: extra pair %v (got %d pairs, want %d)", what, p, len(g), len(w))
		}
	}
	return nil
}

// finalGraph rebuilds the graph the program should hold: the base plus
// every batch it acknowledged. Batches of different writers commute (see
// streamGen), so their order does not matter.
func finalGraph(base *graph.Graph, sent [][]graph.Update) *graph.Graph {
	g := base.Clone()
	for _, b := range sent {
		mustApply(g, b)
	}
	return g
}
