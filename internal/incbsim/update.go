package incbsim

// Unit and batch updates. Touching edge (a, b) only changes distances of
// pairs (v, w) whose (new or old) shortest path routes through it, so v
// must reach a within km-1 hops and w must be within km-1 hops of b — the
// affected-area confinement of Theorem 6.1(2). A sweep walks those two
// sides once, then probes each source v of the area with one bounded
// forward BFS and reads the few target distances it needs back from the
// oracle's stamped scratch arrays (BFS.Reach / BFS.Reached).
//
// Insertions sweep edge by edge: the new distance of a pair is witnessed
// by d(v,a)+1+d(b,w) directly, so only the old graph is walked.
//
// Deletions sweep once per batch, over the union of the deleted edges'
// areas. Deleting edges only lengthens paths, so a pair within bound can
// leave it only if every old shortest path used some deleted edge
// (aᵢ, bᵢ); its old distance then equals d(v,aᵢ)+1+d(bᵢ,w). One old-graph
// walk per source marks those tight pairs, each once however many deleted
// edges it is tight through; after all deletions, one new-graph walk per
// source with tight pairs decides which pairs really left the bound. A unit
// Delete is the one-edge batch.

import (
	"cmp"
	"slices"

	"gpm/internal/distance"
	"gpm/internal/graph"
	"gpm/internal/par"
	"gpm/internal/rel"
)

// nodeDist is one node of an affected-area side with its nonempty-path
// distance from (or to) the side's anchor, the anchor itself at 0.
type nodeDist struct {
	v graph.NodeID
	d int
}

// ancestorsOf returns {v : dist(v, a) <= bound} with a at 0, in
// nondecreasing distance order.
func (e *Engine) ancestorsOf(a graph.NodeID, bound int) []nodeDist {
	nb := []nodeDist{{a, 0}}
	e.bfs.AncNonempty(a, bound, func(w graph.NodeID, d int) bool {
		if w != a {
			nb = append(nb, nodeDist{w, d})
		}
		return true
	})
	return nb
}

// descendantsOf returns {w : dist(b, w) <= bound} with b at 0, in
// nondecreasing distance order.
func (e *Engine) descendantsOf(b graph.NodeID, bound int) []nodeDist {
	nb := []nodeDist{{b, 0}}
	e.bfs.DescNonempty(b, bound, func(w graph.NodeID, d int) bool {
		if w != b {
			nb = append(nb, nodeDist{w, d})
		}
		return true
	})
	return nb
}

// targets filters the descendant side desc of a touched edge per pattern
// edge: the nodes of set[target] that a path through the edge can bring
// within the edge's bound. Each list keeps desc's distance order, so a
// scan can stop at the first entry past its budget.
func (e *Engine) targets(desc []nodeDist, set rel.Relation) [][]nodeDist {
	out := make([][]nodeDist, len(e.edges))
	for ei, pe := range e.edges {
		for _, t := range desc {
			if t.d+1 > pe.Bound {
				break
			}
			if set[pe.To].Has(t.v) {
				out[ei] = append(out[ei], t)
			}
		}
	}
	return out
}

// maxBoundFor returns the largest bound over pattern edges whose source
// predicate v satisfies (0 if none): the radius of v's stake in the sweep.
func (e *Engine) maxBoundFor(v graph.NodeID) int {
	maxK := 0
	for _, pe := range e.edges {
		if pe.Bound > maxK && e.sat[pe.From].Has(v) {
			maxK = pe.Bound
		}
	}
	return maxK
}

// probe runs fn for every i in [0, n) on the engine's worker pool, each
// worker with a private BFS oracle, and adds the node counts fn reports to
// Stats.PairsExamined. fn may only read engine state; callers collect its
// results by index and apply them serially.
func (e *Engine) probe(n int, fn func(bfs *distance.BFS, i int) int) {
	w := par.Resolve(e.workers, n)
	if w == 1 {
		for i := 0; i < n; i++ {
			e.stats.PairsExamined += int64(fn(e.bfs, i))
		}
		return
	}
	examined := make([]int64, w)
	oracles := e.workerOracles(w)
	par.For(n, w, func(worker, i int) {
		examined[worker] += int64(fn(oracles[worker], i))
	})
	for _, ex := range examined {
		e.stats.PairsExamined += ex
	}
}

// applyEdge routes a graph mutation through the landmark index when one is
// attached, keeping it exact.
func (e *Engine) applyEdge(up graph.Update) bool {
	if e.lmIdx != nil {
		if up.Op == graph.InsertEdge {
			return e.lmIdx.Insert(up.From, up.To)
		}
		return e.lmIdx.Delete(up.From, up.To)
	}
	changed, _ := e.g.Apply(up)
	return changed
}

// insFlips collects one source's outcome of an insertion sweep: per-edge
// counter increments and the pattern nodes it newly seeds for promotion.
type insFlips struct {
	incs  []eiCount
	seeds []int // pattern nodes u such that (u, v) becomes a promotion seed
}

// eiCount is a per-pattern-edge counter adjustment.
type eiCount struct {
	ei int
	n  int32
}

// insertSweep processes one edge insertion (a, b): it adjusts support
// counters for ss pairs flipping within bound and records promotion seeds
// for candidate sources gaining a target. The graph is mutated inside.
func (e *Engine) insertSweep(a, b graph.NodeID, seeds map[pair]bool) bool {
	if e.g.HasEdge(a, b) {
		return false
	}
	// Both sides are identical before and after the insertion (the edge
	// leaves a and enters b), so compute them pre-insert. Potential new
	// targets are matches of the target (for counters) and satisfying
	// nodes (for seeds).
	anc := e.ancestorsOf(a, e.km-1)
	desc := e.descendantsOf(b, e.km-1)
	descMatch := e.targets(desc, e.match)
	descSat := e.targets(desc, e.sat)

	// collect gathers, for one source v at distance dva above a, the
	// counter increments and promotion seeds the insertion causes. It reads
	// seeds but never writes it.
	collect := func(bfs *distance.BFS, v graph.NodeID, dva int) (flips insFlips, examined int) {
		maxK := e.maxBoundFor(v)
		if dva+1 > maxK {
			return flips, 0
		}
		// One old-graph walk around v tells which pairs were already within
		// bound; it runs lazily, only when v has an in-budget target.
		walked := false
		wasWithin := func(w graph.NodeID, bound int) bool {
			if !walked {
				examined = bfs.Reach(v, maxK)
				walked = true
			}
			od, ok := bfs.Reached(w)
			return ok && od <= bound
		}
		for ei, pe := range e.edges {
			budget := pe.Bound - dva - 1
			if budget < 0 {
				continue
			}
			if e.match[pe.From].Has(v) {
				n := int32(0)
				for _, t := range descMatch[ei] {
					if t.d > budget {
						break
					}
					// The new distance is at most dva+1+t.d <= bound, so the
					// pair flipped iff it was not within bound before.
					if !wasWithin(t.v, pe.Bound) {
						n++
					}
				}
				if n > 0 {
					flips.incs = append(flips.incs, eiCount{ei, n})
				}
			} else if seeds != nil && e.sat[pe.From].Has(v) && !seeds[pair{pe.From, v}] {
				for _, t := range descSat[ei] {
					if t.d > budget {
						break
					}
					if !wasWithin(t.v, pe.Bound) {
						flips.seeds = append(flips.seeds, pe.From)
						break
					}
				}
			}
		}
		return flips, examined
	}

	results := make([]insFlips, len(anc))
	e.probe(len(anc), func(bfs *distance.BFS, i int) int {
		flips, examined := collect(bfs, anc[i].v, anc[i].d)
		results[i] = flips
		return examined
	})
	for i, flips := range results {
		v := anc[i].v
		for _, inc := range flips.incs {
			e.cnt[inc.ei][v] += inc.n
			e.stats.CounterUpdates += int64(inc.n)
		}
		for _, u := range flips.seeds {
			seeds[pair{u, v}] = true
		}
	}
	return e.applyEdge(graph.Insert(a, b))
}

// candFlip is one (pattern edge, target node) pair whose within-bound
// status may flip for a given source during a deletion sweep.
type candFlip struct {
	ei int
	w  graph.NodeID
}

// cut is one deleted edge (a, b) as the deletion sweep sees it: the match
// targets below b per pattern edge, from targets.
type cut [][]nodeDist

// above records that source v lies d hops above the tail of cuts[i].
type above struct {
	v graph.NodeID
	i int
	d int
}

// deleteSweep applies the deletions among ups whose edges are present, as
// one sweep, and returns how many it applied. Pairs can only leave the bound, and only
// pairs whose old shortest path was tight through some deleted edge
// qualify — everything else is pruned before any post-update BFS runs.
// Both per-source BFS phases (the old-graph tightness probe and the
// post-deletion re-measure) run on the engine's worker pool; counter
// mutations stay serial.
func (e *Engine) deleteSweep(ups []graph.Update, touched map[int]map[graph.NodeID]bool) int {
	// Every affected area is measured on the old graph, before any
	// deletion.
	var cuts []cut
	var srcs []above
	for _, up := range ups {
		if up.Op != graph.DeleteEdge || !e.g.HasEdge(up.From, up.To) {
			continue
		}
		for _, x := range e.ancestorsOf(up.From, e.km-1) {
			srcs = append(srcs, above{x.v, len(cuts), x.d})
		}
		cuts = append(cuts, e.targets(e.descendantsOf(up.To, e.km-1), e.match))
	}
	if len(cuts) == 0 {
		return 0
	}
	// Group the union of the areas by source: groups[j] holds every
	// deleted edge that source j lies above.
	slices.SortFunc(srcs, func(x, y above) int { return cmp.Compare(x.v, y.v) })
	var groups [][]above
	for lo := 0; lo < len(srcs); {
		hi := lo + 1
		for hi < len(srcs) && srcs[hi].v == srcs[lo].v {
			hi++
		}
		groups = append(groups, srcs[lo:hi])
		lo = hi
	}

	// collectTight gathers, for one source, the match pairs whose old
	// distance was realized through some deleted edge.
	collectTight := func(bfs *distance.BFS, grp []above) (flips []candFlip, examined int) {
		v := grp[0].v
		maxK := 0
		for ei, pe := range e.edges {
			if pe.Bound <= maxK || !e.match[pe.From].Has(v) {
				continue
			}
			for _, s := range grp {
				if ts := cuts[s.i][ei]; len(ts) > 0 && s.d+1+ts[0].d <= pe.Bound {
					maxK = pe.Bound
					break
				}
			}
		}
		if maxK == 0 {
			return nil, 0
		}
		examined = bfs.Reach(v, maxK)
		for ei, pe := range e.edges {
			if !e.match[pe.From].Has(v) {
				continue
			}
			for _, s := range grp {
				for _, t := range cuts[s.i][ei] {
					od := s.d + 1 + t.d
					if od > pe.Bound {
						break
					}
					if d, ok := bfs.Reached(t.v); ok && d == od {
						flips = append(flips, candFlip{ei, t.v})
					}
				}
			}
		}
		if len(grp) > 1 {
			// A pair tight through several deleted edges is one pair.
			slices.SortFunc(flips, func(x, y candFlip) int {
				return cmp.Or(cmp.Compare(x.ei, y.ei), cmp.Compare(x.w, y.w))
			})
			flips = slices.Compact(flips)
		}
		return flips, examined
	}
	tight := make([][]candFlip, len(groups))
	e.probe(len(groups), func(bfs *distance.BFS, j int) int {
		flips, examined := collectTight(bfs, groups[j])
		tight[j] = flips
		return examined
	})

	deleted := 0
	for _, up := range ups {
		if up.Op == graph.DeleteEdge && e.applyEdge(up) {
			deleted++
		}
	}

	// Post-deletion: one new-graph walk per source with tight pairs; a pair
	// drops when no path within its bound survives.
	e.probe(len(groups), func(bfs *distance.BFS, j int) int {
		flips := tight[j]
		if len(flips) == 0 {
			return 0
		}
		maxK := 0
		for _, f := range flips {
			maxK = max(maxK, e.edges[f.ei].Bound)
		}
		examined := bfs.Reach(groups[j][0].v, maxK)
		drops := flips[:0]
		for _, f := range flips {
			if d, ok := bfs.Reached(f.w); !ok || d > e.edges[f.ei].Bound {
				drops = append(drops, f)
			}
		}
		tight[j] = drops
		return examined
	})
	for j, drops := range tight {
		v := groups[j][0].v
		for _, f := range drops {
			e.cnt[f.ei][v]--
			e.stats.CounterUpdates++
			markTouched(touched, f.ei, v)
		}
	}
	return deleted
}

func markTouched(touched map[int]map[graph.NodeID]bool, ei int, v graph.NodeID) {
	if touched[ei] == nil {
		touched[ei] = make(map[graph.NodeID]bool)
	}
	touched[ei][v] = true
}

// drainTouched scans the counters recorded in touched and cascades zeros.
func (e *Engine) drainTouched(touched map[int]map[graph.NodeID]bool) {
	var queue []pair
	for ei, nodes := range touched {
		src := e.edges[ei].From
		for v := range nodes {
			if e.cnt[ei][v] == 0 && e.match[src].Has(v) {
				e.match[src].Remove(v)
				queue = append(queue, pair{src, v})
			}
		}
	}
	e.cascade(queue)
}

// Delete removes edge (v0, v1), incrementally repairing the match
// (IncBMatch⁻). It reports whether the edge existed.
func (e *Engine) Delete(v0, v1 graph.NodeID) bool {
	ok, _ := e.DeleteDelta(v0, v1)
	return ok
}

// DeleteDelta is Delete additionally reporting the visible match delta ΔM
// of the update.
func (e *Engine) DeleteDelta(v0, v1 graph.NodeID) (bool, rel.Delta) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.beginChanges()
	ok := e.deleteLocked(v0, v1)
	return ok, e.endChanges()
}

func (e *Engine) deleteLocked(v0, v1 graph.NodeID) bool {
	touched := make(map[int]map[graph.NodeID]bool)
	if e.deleteSweep([]graph.Update{graph.Delete(v0, v1)}, touched) == 0 {
		return false
	}
	e.drainTouched(touched)
	return true
}

// Insert adds edge (v0, v1), incrementally repairing the match
// (IncBMatch⁺). It reports whether the edge was new.
func (e *Engine) Insert(v0, v1 graph.NodeID) bool {
	ok, _ := e.InsertDelta(v0, v1)
	return ok
}

// InsertDelta is Insert additionally reporting the visible match delta ΔM
// of the update.
func (e *Engine) InsertDelta(v0, v1 graph.NodeID) (bool, rel.Delta) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.beginChanges()
	ok := e.insertLocked(v0, v1)
	return ok, e.endChanges()
}

func (e *Engine) insertLocked(v0, v1 graph.NodeID) bool {
	seeds := make(map[pair]bool)
	if !e.insertSweep(v0, v1, seeds) {
		return false
	}
	e.promote(seeds)
	return true
}

// Batch applies a mixed update list (IncBMatch): same-edge cancellation,
// then all deletions in one sweep with a single cascade, then all
// insertions with a single promotion.
func (e *Engine) Batch(ups []graph.Update) {
	e.BatchDelta(ups)
}

// BatchDelta is Batch additionally reporting the visible match delta ΔM of
// the whole batch (with intra-batch remove/add cancellation).
func (e *Engine) BatchDelta(ups []graph.Update) rel.Delta {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.beginChanges()
	e.batchLocked(ups)
	return e.endChanges()
}

func (e *Engine) batchLocked(ups []graph.Update) {
	net := graph.NetUpdates(e.g, ups)
	touched := make(map[int]map[graph.NodeID]bool)
	e.deleteSweep(net, touched)
	e.drainTouched(touched)
	seeds := make(map[pair]bool)
	for _, up := range net {
		if up.Op == graph.InsertEdge {
			e.insertSweep(up.From, up.To, seeds)
		}
	}
	e.promote(seeds)
}

// Apply is the naive baseline: unit updates one at a time.
func (e *Engine) Apply(ups []graph.Update) {
	e.ApplyDelta(ups)
}

// ApplyDelta is Apply additionally reporting the visible match delta ΔM of
// the whole batch.
func (e *Engine) ApplyDelta(ups []graph.Update) rel.Delta {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.beginChanges()
	for _, up := range ups {
		if up.Op == graph.InsertEdge {
			e.insertLocked(up.From, up.To)
		} else {
			e.deleteLocked(up.From, up.To)
		}
	}
	return e.endChanges()
}

// promote runs the candidate-closure promotion over the pair graph: the
// bounded-simulation analogue of incsim's propCS/propCC followed by a
// greatest-fixpoint refinement.
func (e *Engine) promote(seeds map[pair]bool) {
	closure := make(map[pair]bool)
	var stack []pair
	push := func(pr pair) {
		if !closure[pr] {
			closure[pr] = true
			stack = append(stack, pr)
		}
	}
	for pr := range seeds {
		if e.isCandidate(pr.u, pr.v) {
			push(pr)
		}
	}
	for len(stack) > 0 {
		pr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		e.stats.ClosureSize++
		for _, ei := range e.inEdges[pr.u] {
			pe := e.edges[ei]
			e.bfs.AncNonempty(pr.v, pe.Bound, func(w graph.NodeID, d int) bool {
				if e.isCandidate(pe.From, w) {
					push(pair{pe.From, w})
				}
				return true
			})
		}
	}
	if len(closure) == 0 {
		return
	}

	np := e.p.NumNodes()
	tentative := make([]map[graph.NodeID]bool, np)
	for u := range tentative {
		tentative[u] = make(map[graph.NodeID]bool)
	}
	for pr := range closure {
		tentative[pr.u][pr.v] = true
	}
	tcnt := make(map[int]map[graph.NodeID]int32, len(e.edges))
	for pr := range closure {
		for _, ei := range e.outEdges[pr.u] {
			pe := e.edges[ei]
			c := int32(0)
			e.bfs.DescNonempty(pr.v, pe.Bound, func(w graph.NodeID, d int) bool {
				if e.match[pe.To].Has(w) || tentative[pe.To][w] {
					c++
				}
				return true
			})
			if tcnt[ei] == nil {
				tcnt[ei] = make(map[graph.NodeID]int32)
			}
			tcnt[ei][pr.v] = c
		}
	}
	var queue []pair
	for pr := range closure {
		for _, ei := range e.outEdges[pr.u] {
			if tcnt[ei][pr.v] == 0 && tentative[pr.u][pr.v] {
				delete(tentative[pr.u], pr.v)
				queue = append(queue, pr)
			}
		}
	}
	for len(queue) > 0 {
		rm := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, ei := range e.inEdges[rm.u] {
			pe := e.edges[ei]
			e.bfs.AncNonempty(rm.v, pe.Bound, func(w graph.NodeID, d int) bool {
				if !tentative[pe.From][w] {
					return true
				}
				tcnt[ei][w]--
				if tcnt[ei][w] == 0 {
					delete(tentative[pe.From], w)
					queue = append(queue, pair{pe.From, w})
				}
				return true
			})
		}
	}

	var newPairs []pair
	for u := range tentative {
		for v := range tentative[u] {
			e.match[u].Add(v)
			e.stats.Promotions++
			e.cs.NoteAdded(u, v)
			newPairs = append(newPairs, pair{u, v})
		}
	}
	for _, pr := range newPairs {
		for _, ei := range e.outEdges[pr.u] {
			pe := e.edges[ei]
			c := int32(0)
			e.bfs.DescNonempty(pr.v, pe.Bound, func(w graph.NodeID, d int) bool {
				if e.match[pe.To].Has(w) {
					c++
				}
				return true
			})
			e.cnt[ei][pr.v] = c
			e.stats.CounterUpdates++
		}
		for _, ei := range e.inEdges[pr.u] {
			pe := e.edges[ei]
			e.bfs.AncNonempty(pr.v, pe.Bound, func(w graph.NodeID, d int) bool {
				if e.match[pe.From].Has(w) && !tentative[pe.From][w] {
					e.cnt[ei][w]++
					e.stats.CounterUpdates++
				}
				return true
			})
		}
	}
}
