package core

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/kmst"
	"repro/internal/pcst"
)

// This file holds the single-region solve entry points. SolveTGEN,
// SolveAPP, and SolveGreedy draw every piece of per-query working state
// from the SolveScratch, so a warm scratch performs zero steady-state
// allocations per query. The returned *Region aliases the scratch and is
// valid only until the next solve on the same scratch.
//
// Each SolveX honors ctx: the hot loops carry amortized cancellation
// checkpoints (internal/cancel), so a cancel observed mid-solve returns
// ctx.Err() within a bounded number of iterations. An abandoned solve
// leaves the scratch safe to reuse — the next solve starts from a full
// reset and produces results bit-identical to a fresh scratch. A
// background context makes every checkpoint free.

// SolveTGEN answers an LCMSR query with Algorithm 2 (§5): it scales node
// weights, visits nodes in breadth-first order, processes every edge exactly
// once, and combines the explored region tuple arrays (Definition 6) of the
// edge's endpoints to enumerate feasible regions, keeping per node and
// scaled weight only the shortest region. Nodes whose incident edges have
// all been processed drop their arrays (§5's memory optimization). The
// arrays are keyed by scaled weight, but the answer is the enumerated region
// heaviest on the original weights — scaled-weight ties would otherwise pick
// an arbitrary lighter region. A nil region with nil error means no relevant
// node exists.
func SolveTGEN(ctx context.Context, s *SolveScratch, in *Instance, delta float64, opts TGENOptions) (*Region, error) {
	opts = opts.withDefaults(in.NumNodes)
	if delta < 0 || math.IsNaN(delta) {
		return nil, fmt.Errorf("core: invalid length constraint %v", delta)
	}
	s.begin(ctx)
	defer s.cancel.Release() // don't pin the caller's context between queries
	if s.cancel.Now() {
		return nil, s.cancel.Err()
	}
	if err := ScaleInto(in, opts.Alpha, &s.scaling); err != nil {
		if in.NumNodes > 0 {
			return nil, nil
		}
		return nil, err
	}

	n := in.NumNodes
	s.arrays = resetArrays(s.arrays, n)
	for v := 0; v < n; v++ {
		sg := s.singleton(in, NodeID(v))
		s.update(int32(v), sg)
		s.considerScore(sg)
	}
	s.processed.begin(n)
	if opts.Order == OrderAscLength {
		s.tgenAscLength(in, delta)
	} else {
		s.tgenBFS(in, delta)
	}
	if s.cancel.Cancelled() {
		return nil, s.cancel.Err()
	}
	return s.bestRegion(), nil
}

// tgenBFS is TGEN's main loop under OrderBFS: nodes are visited
// breadth-first, every edge is processed once, and a node's array is dropped
// when all its edges are done. Returns early once a checkpoint observes
// cancellation; the caller surfaces s.cancel.Err().
func (s *SolveScratch) tgenBFS(in *Instance, delta float64) {
	n := in.NumNodes
	s.enqueued.begin(n)
	s.edgeDone.begin(len(in.Edges))
	for v0 := 0; v0 < n; v0++ {
		if s.processed.has(int32(v0)) || s.enqueued.has(int32(v0)) {
			continue
		}
		queue := append(s.queue[:0], int32(v0))
		head := 0
		s.enqueued.add(int32(v0))
		for head < len(queue) {
			vi := queue[head]
			head++
			for _, he := range in.Neighbors(vi) {
				// Per-edge checkpoint for the edges that combine nothing;
				// combineAcross adds one per outer row, since a single
				// edge's pair loop runs up to ~10⁵ pairs on a viewport.
				if s.cancel.Tick() {
					return
				}
				if s.edgeDone.has(he.Edge) {
					continue
				}
				s.edgeDone.add(he.Edge)
				vj := he.To
				// Line 8: edges longer than the budget can never appear
				// in a feasible region.
				if in.Edges[he.Edge].Length > delta {
					continue
				}
				if !s.enqueued.has(vj) {
					s.enqueued.add(vj)
					queue = append(queue, vj)
				}
				// Combine every explored region containing vi with every
				// explored region containing vj through this edge.
				s.combineAcross(in, vi, vj, he.Edge, delta)
				if s.cancel.Cancelled() {
					return
				}
				s.installNew()
			}
			s.processed.add(vi)
			s.dropArray(vi) // §5: drop the array once all edges are done
		}
		s.queue = queue[:0]
	}
}

// tgenAscLength is the OrderAscLength variant: identical tuple generation
// over edges in ascending length order, through the same
// combineAcross/installNew kernel as tgenBFS. A node's array is dropped once
// all its incident edges are done.
func (s *SolveScratch) tgenAscLength(in *Instance, delta float64) {
	s.order = growTo(s.order, len(in.Edges))
	for i := range s.order {
		s.order[i] = int32(i)
	}
	slices.SortFunc(s.order, func(a, b int32) int {
		// The recorded goldens depend on this exact predicate under
		// pdqsort: tied lengths keep the permutation it yields.
		switch {
		case in.Edges[a].Length < in.Edges[b].Length:
			return -1
		case in.Edges[b].Length < in.Edges[a].Length:
			return 1
		default:
			return 0
		}
	})
	s.remaining = growTo(s.remaining, in.NumNodes)
	for i := range s.remaining {
		s.remaining[i] = 0
	}
	for _, e := range in.Edges {
		s.remaining[e.U]++
		s.remaining[e.V]++
	}
	finish := func(v int32) {
		s.remaining[v]--
		if s.remaining[v] == 0 {
			s.processed.add(v) // dropped arrays stay dropped
			s.dropArray(v)
		}
	}
	for _, ei := range s.order {
		if s.cancel.Tick() {
			return // caller surfaces s.cancel.Err()
		}
		e := in.Edges[ei]
		if e.Length > delta {
			finish(e.U)
			finish(e.V)
			continue
		}
		s.combineAcross(in, e.U, e.V, ei, delta)
		if s.cancel.Cancelled() {
			return
		}
		finish(e.U)
		finish(e.V)
		s.installNew()
	}
}

// SolveGreedy answers an LCMSR query with the method of §6.1: seed the
// region at the most relevant node in Q.Λ, then repeatedly attach the
// frontier node with the best combined score whose connecting edge still
// fits the remaining budget, stopping when no frontier node fits. A nil
// region with nil error means no relevant node exists.
func SolveGreedy(ctx context.Context, s *SolveScratch, in *Instance, delta float64, opts GreedyOptions) (*Region, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if delta < 0 || math.IsNaN(delta) {
		return nil, fmt.Errorf("core: invalid length constraint %v", delta)
	}
	s.begin(ctx)
	defer s.cancel.Release() // don't pin the caller's context between queries
	if s.cancel.Now() {
		return nil, s.cancel.Err()
	}
	sigmaMax, seed := in.MaxWeight()
	if seed < 0 {
		return nil, nil
	}
	s.noBan = growTo(s.noBan, in.NumNodes) // never written: stays all-false
	// s.gRegion's Nodes/Edges keep their grown capacity across queries.
	r := greedyFrom(in, delta, opts.Mu, sigmaMax, seed, s.noBan, &s.inRegion, &s.gRegion, &s.cancel)
	if s.cancel.Cancelled() {
		return nil, s.cancel.Err()
	}
	return r, nil
}

// SolveAPP answers an LCMSR query with the (5+ε)-approximation of §4,
// following Algorithm 1: scale weights (§4.1), binary-search a node-weight
// quota against the k-MST solver until the candidate tree TC satisfies
// Lemma 4, then extract the best feasible subtree of TC with the findOptTree
// dynamic program. The result carries the original weights; a nil region
// (with nil error) means no node in the instance is relevant.
func SolveAPP(ctx context.Context, s *SolveScratch, in *Instance, delta float64, opts APPOptions) (*Region, error) {
	opts = opts.withDefaults()
	if delta < 0 || math.IsNaN(delta) {
		return nil, fmt.Errorf("core: invalid length constraint %v", delta)
	}
	s.begin(ctx)
	defer s.cancel.Release() // don't pin the caller's context between queries
	if s.cancel.Now() {
		return nil, s.cancel.Err()
	}
	if err := ScaleInto(in, opts.Alpha, &s.scaling); err != nil {
		if in.NumNodes > 0 {
			// No relevant node: the query has an empty answer, not an error.
			return nil, nil
		}
		return nil, err
	}
	sc := &s.scaling
	s.pcstEdges = growTo(s.pcstEdges, len(in.Edges))
	for i, e := range in.Edges {
		s.pcstEdges[i] = pcst.Edge{U: e.U, V: e.V, Cost: e.Length}
	}
	var solver kmst.Solver
	switch opts.Solver {
	case SolverSPT:
		if s.spt == nil {
			s.spt = kmst.NewSPTSolver(8)
		}
		if err := s.spt.Reset(in.NumNodes, s.pcstEdges, sc.Scaled); err != nil {
			return nil, err
		}
		s.spt.SetCancel(&s.cancel)
		solver = s.spt
	default:
		if s.garg == nil {
			s.garg = kmst.NewGargSolver()
		}
		if err := s.garg.Reset(in.NumNodes, s.pcstEdges, sc.Scaled); err != nil {
			return nil, err
		}
		s.garg.SetCancel(&s.cancel)
		solver = s.garg
	}

	tc, ok, err := binarySearch(sc, solver, delta, opts.Beta, opts.Trace, &s.cancel)
	if err != nil {
		return nil, err
	}
	if s.cancel.Cancelled() {
		return nil, s.cancel.Err()
	}
	_, argmax := in.MaxWeight()
	fallback := s.singleton(in, argmax)
	if !ok {
		// Even the lightest quota produced nothing useful; answer with the
		// single most relevant node, which is always feasible (length 0).
		return &fallback.Region, nil
	}

	// Algorithm 1, line 3: a candidate tree already within the budget is
	// returned as-is; otherwise extract the best subtree by DP.
	if tc.Length < delta {
		r := s.resultFromTree(in, tc)
		if fallback.Region.betterScore(&r.Region) {
			r = fallback
		}
		return &r.Region, nil
	}
	s.tcEdges = growTo(s.tcEdges, len(tc.Edges))
	for i, x := range tc.Edges {
		s.tcEdges[i] = int32(x)
	}
	best := s.findOptTree(in, tc.Nodes, s.tcEdges, delta)
	if s.cancel.Cancelled() {
		return nil, s.cancel.Err()
	}
	if fallback.Region.betterScore(best) {
		best = &fallback.Region
	}
	return best, nil
}

// resultFromTree converts a quota-solver tree into an arena Region with
// exact weights.
func (s *SolveScratch) resultFromTree(in *Instance, t kmst.Result) *poolRegion {
	r := s.pool.newRegion()
	nodes := s.pool.allocInts(len(t.Nodes))
	copy(nodes, t.Nodes)
	edges := s.pool.allocInts(len(t.Edges))
	for i, x := range t.Edges {
		edges[i] = int32(x)
	}
	r.Region = Region{Length: t.Length, Nodes: nodes, Edges: edges}
	for _, v := range t.Nodes {
		r.Score += in.Weights[v]
		r.Scaled += s.scaling.Scaled[v]
	}
	return r
}

// findOptTree is the pseudo-polynomial dynamic program of §4.2.3: given a
// candidate tree TC (nodes and edge indices of the instance), it finds the
// feasible region (length ≤ delta) that is a subtree of TC and weighs most —
// as in TGEN, the arrays are keyed by scaled weight (Definition 5) while the
// reported best uses the original weights. Each tree node carries a region
// tuple array holding, per scaled weight, the minimum-length region rooted
// at it; leaves are peeled one by one and their arrays folded into their
// remaining neighbour exactly as Function findOptTree() does (Lemma 7).
// Regions longer than delta are pruned eagerly: extending a region never
// shortens it, so infeasible tuples cannot contribute. The tree is remapped
// to local indices, its adjacency is a pooled CSR in tree-edge order, and
// the tuple arrays draw from the region arena.
func (s *SolveScratch) findOptTree(in *Instance, treeNodes []int32, treeEdges []int32, delta float64) *Region {
	if len(treeNodes) == 0 {
		return nil
	}
	nt := len(treeNodes)
	s.pos = growTo(s.pos, in.NumNodes)
	for i, v := range treeNodes {
		s.pos[v] = int32(i)
	}
	// Local tree adjacency CSR in tree-edge order.
	s.adjOffs = growTo(s.adjOffs, nt+1)
	for i := 0; i <= nt; i++ {
		s.adjOffs[i] = 0
	}
	for _, ei := range treeEdges {
		e := in.Edges[ei]
		s.adjOffs[s.pos[e.U]+1]++
		s.adjOffs[s.pos[e.V]+1]++
	}
	for i := 0; i < nt; i++ {
		s.adjOffs[i+1] += s.adjOffs[i]
	}
	s.cursor = growTo(s.cursor, nt)
	copy(s.cursor, s.adjOffs[:nt])
	s.adjTo = growTo(s.adjTo, 2*len(treeEdges))
	s.adjEdge = growTo(s.adjEdge, 2*len(treeEdges))
	s.deg = growTo(s.deg, nt)
	for i := 0; i < nt; i++ {
		s.deg[i] = 0
	}
	for _, ei := range treeEdges {
		e := in.Edges[ei]
		lu, lv := s.pos[e.U], s.pos[e.V]
		s.adjTo[s.cursor[lu]] = e.V
		s.adjEdge[s.cursor[lu]] = ei
		s.cursor[lu]++
		s.adjTo[s.cursor[lv]] = e.U
		s.adjEdge[s.cursor[lv]] = ei
		s.cursor[lv]++
		s.deg[lu]++
		s.deg[lv]++
	}

	s.treeArrays = resetArrays(s.treeArrays, nt) // local (tree) indexing for this DP
	for i, v := range treeNodes {
		sg := s.singleton(in, v)
		s.updateTree(int32(i), sg)
		s.considerFeasible(sg, delta)
	}

	// Leaf-peeling queue (paper's nodeQ): nodes with one remaining
	// neighbour; a single-node tree is already handled by the singletons.
	s.removed = growTo(s.removed, nt)
	for i := 0; i < nt; i++ {
		s.removed[i] = false
	}
	queue := s.foQueue[:0]
	for _, v := range treeNodes {
		if s.deg[s.pos[v]] == 1 {
			queue = append(queue, v)
		}
	}
	head := 0
	remaining := nt
	for head < len(queue) && remaining > 1 {
		if s.cancel.Tick() {
			return nil // caller surfaces s.cancel.Err()
		}
		v := queue[head]
		head++
		lv := s.pos[v]
		if s.removed[lv] {
			continue
		}
		// v's single remaining neighbour vn (the parent, per Lemma 6).
		var vn int32 = -1
		var edgeIdx int32
		for k := s.adjOffs[lv]; k < s.adjOffs[lv+1]; k++ {
			if !s.removed[s.pos[s.adjTo[k]]] {
				vn, edgeIdx = s.adjTo[k], s.adjEdge[k]
				break
			}
		}
		if vn < 0 {
			break // isolated remnant; defensive
		}
		lvn := s.pos[vn]
		// Fold v's array into vn's (Lemma 7). Materialize vn's current
		// tuples first so newly added ones are not combined with vArr
		// again; guard them with references so an in-fold replacement
		// cannot recycle a region the enumeration still reads. As in
		// combineAcross, pairs (and whole t2 rows) over the budget are
		// rejected on the length sum combine would store, before anything
		// is built; a tree needs no cycle test.
		eLen := in.Edges[edgeIdx].Length
		vArr := s.treeArrays[lv]
		snapshot := append(s.snapshot[:0], s.treeArrays[lvn]...)
		s.snapshot = snapshot
		for _, t1 := range snapshot {
			s.pool.ref(t1.r)
		}
		for _, t2 := range vArr {
			if s.cancel.Tick() {
				break // unwind via the loop exit; caller checks Cancelled
			}
			if t2.length+eLen > delta {
				continue
			}
			for _, t1 := range snapshot {
				if t1.length+t2.length+eLen > delta {
					continue
				}
				nr := s.combine(in, t1.r, t2.r, edgeIdx)
				if s.updateTree(lvn, nr) {
					s.considerFeasible(nr, delta)
				}
				if nr.refs == 0 {
					s.pool.free(nr)
				}
			}
		}
		for _, t1 := range snapshot {
			s.pool.deref(t1.r)
		}
		s.dropTreeArray(lv)
		s.removed[lv] = true
		remaining--
		s.deg[lvn]--
		if s.deg[lvn] == 1 {
			queue = append(queue, vn)
		}
	}
	s.foQueue = queue[:0]
	return s.bestRegion()
}
