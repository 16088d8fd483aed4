package distance

import "gpm/internal/graph"

// BFS is the zero-index oracle: every query runs a (bounded) breadth-first
// search over the live graph. It is the only oracle that needs no
// preprocessing and no maintenance under updates, which is why the paper
// uses "Match with BFS" for its large-graph scalability runs (Fig. 17(c,d)).
type BFS struct {
	g graph.View
	// scratch buffers reused across queries to avoid per-query allocation.
	dist  []int
	seen  []int32
	epoch int32
	queue []graph.NodeID
}

// NewBFS returns a BFS oracle over g. The oracle reads g live: updates to g
// are immediately visible (and invalidate nothing). Any graph.View works —
// in particular a shared canonical graph or an engine's update overlay.
func NewBFS(g graph.View) *BFS {
	return &BFS{g: g}
}

func (b *BFS) ensure() {
	n := b.g.NumNodes()
	if len(b.dist) < n {
		b.dist = make([]int, n)
		b.seen = make([]int32, n)
		b.epoch = 0
	}
	b.epoch++
	if b.epoch == 0x7fffffff {
		for i := range b.seen {
			b.seen[i] = 0
		}
		b.epoch = 1
	}
}

// Dist implements Oracle with a BFS that stops as soon as v is reached.
func (b *BFS) Dist(u, v graph.NodeID) int {
	if u == v {
		return 0
	}
	b.ensure()
	b.seen[u] = b.epoch
	b.dist[u] = 0
	b.queue = append(b.queue[:0], u)
	for qi := 0; qi < len(b.queue); qi++ {
		x := b.queue[qi]
		nd := b.dist[x] + 1
		for _, w := range b.g.Out(x) {
			if b.seen[w] == b.epoch {
				continue
			}
			if w == v {
				return nd
			}
			b.seen[w] = b.epoch
			b.dist[w] = nd
			b.queue = append(b.queue, w)
		}
	}
	return graph.Unreachable
}

// DescNonempty implements Iterator: a forward BFS seeded from the children
// of v at distance 1, so that v itself is reported when it lies on a cycle.
func (b *BFS) DescNonempty(v graph.NodeID, bound int, fn func(w graph.NodeID, d int) bool) {
	b.walk(v, graph.Forward, bound, fn)
}

// AncNonempty implements Iterator: the reverse-direction walk.
func (b *BFS) AncNonempty(v graph.NodeID, bound int, fn func(w graph.NodeID, d int) bool) {
	b.walk(v, graph.Reverse, bound, fn)
}

// Reach runs the forward nonempty-path walk of DescNonempty without a
// callback and returns the number of nodes it reached; Reached reads the
// distances back. It suits probes that look up only a few targets: the
// distances stay in the oracle's scratch arrays.
func (b *BFS) Reach(v graph.NodeID, bound int) int {
	b.walk(v, graph.Forward, bound, nil)
	return len(b.queue)
}

// Reached reports the distance at which the oracle's last walk (Reach,
// DescNonempty or AncNonempty) reached w, and whether it reached w at all;
// a Dist query in between overwrites the walk's stamps. As in DescNonempty,
// a walk reaches its own source only when the source lies on a cycle within
// the bound.
func (b *BFS) Reached(w graph.NodeID) (d int, ok bool) {
	if w < 0 || w >= len(b.seen) || b.seen[w] != b.epoch {
		return 0, false
	}
	return b.dist[w], true
}

// walk visits the nodes within bound of v by a nonempty path in direction
// dir, calling fn (when non-nil) once per node; the stamps it leaves are
// what Reached reads. It stamps before checking the bound, so even an empty
// walk invalidates the previous one.
func (b *BFS) walk(v graph.NodeID, dir graph.Dir, bound int, fn func(w graph.NodeID, d int) bool) {
	b.ensure()
	b.queue = b.queue[:0]
	if bound < 1 {
		return
	}
	adj := b.g.Out
	if dir == graph.Reverse {
		adj = b.g.In
	}
	for _, c := range adj(v) {
		if b.seen[c] != b.epoch {
			b.seen[c] = b.epoch
			b.dist[c] = 1
			if fn != nil && !fn(c, 1) {
				return
			}
			b.queue = append(b.queue, c)
		}
	}
	for qi := 0; qi < len(b.queue); qi++ {
		x := b.queue[qi]
		nd := b.dist[x] + 1
		if nd > bound {
			continue
		}
		for _, w := range adj(x) {
			if b.seen[w] == b.epoch {
				continue
			}
			b.seen[w] = b.epoch
			b.dist[w] = nd
			if fn != nil && !fn(w, nd) {
				return
			}
			b.queue = append(b.queue, w)
		}
	}
}

var (
	_ Oracle   = (*BFS)(nil)
	_ Iterator = (*BFS)(nil)
)
