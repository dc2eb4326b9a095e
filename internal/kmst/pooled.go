package kmst

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/cancel"
	"repro/internal/container"
	"repro/internal/pcst"
)

// quotaState is the shared base of the solvers: the graph in CSR form,
// result arenas, and map-free quota-pruning scratch.
type quotaState struct {
	n       int
	edges   []pcst.Edge
	weights []int64

	// chk, when non-nil, is polled in the solver hot loops; once it fires,
	// Tree unwinds quickly with ok == false and the caller surfaces the
	// context error. Reset clears it; SetCancel re-arms it.
	chk *cancel.Check

	offs    []int32
	adjTo   []int32
	adjEdge []int32
	cursor  []int32

	// Arenas backing returned Results; reclaimed by reset.
	nodeArena container.Arena[int32]
	edgeArena container.Arena[int]

	// quotaPrune scratch (local tree indices via pos remap).
	pos       []int32
	deg       []int32
	alive     []bool
	edgeAlive []bool
	incOffs   []int32
	inc       []int32
	ph        container.Heap[pruneCand]
	phReady   bool

	// Pre-arena result assembly buffers.
	tmpNodes []int32
	tmpEdges []int
}

// reset revalidates and re-indexes the graph in place, reclaiming all
// previously returned Results.
func (q *quotaState) reset(n int, edges []pcst.Edge, weights []int64) error {
	if len(weights) != n {
		return fmt.Errorf("kmst: %d weights for %d nodes", len(weights), n)
	}
	for i, w := range weights {
		if w < 0 {
			return fmt.Errorf("kmst: node %d has negative weight %d", i, w)
		}
	}
	for i, e := range edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return fmt.Errorf("pcst: edge %d endpoints (%d,%d) out of range", i, e.U, e.V)
		}
		if e.U == e.V {
			return fmt.Errorf("pcst: edge %d is a self loop", i)
		}
		if e.Cost < 0 || math.IsNaN(e.Cost) || math.IsInf(e.Cost, 0) {
			return fmt.Errorf("pcst: edge %d has invalid cost %v", i, e.Cost)
		}
	}
	q.n, q.edges, q.weights = n, edges, weights
	q.chk = nil
	q.nodeArena.Reset()
	q.edgeArena.Reset()

	q.offs = container.GrowTo(q.offs, n+1)
	for i := range q.offs {
		q.offs[i] = 0
	}
	for _, e := range edges {
		q.offs[e.U+1]++
		q.offs[e.V+1]++
	}
	for i := 0; i < n; i++ {
		q.offs[i+1] += q.offs[i]
	}
	q.cursor = container.GrowTo(q.cursor, n)
	copy(q.cursor, q.offs[:n])
	q.adjTo = container.GrowTo(q.adjTo, 2*len(edges))
	q.adjEdge = container.GrowTo(q.adjEdge, 2*len(edges))
	for i, e := range edges {
		q.adjTo[q.cursor[e.U]] = e.V
		q.adjEdge[q.cursor[e.U]] = int32(i)
		q.cursor[e.U]++
		q.adjTo[q.cursor[e.V]] = e.U
		q.adjEdge[q.cursor[e.V]] = int32(i)
		q.cursor[e.V]++
	}
	return nil
}

// SetCancel arms the solver with a cancellation checkpoint for the Tree
// calls until the next Reset. A nil check disables the checkpoints.
func (q *quotaState) SetCancel(chk *cancel.Check) { q.chk = chk }

// finish copies the assembled tmp result into arena-backed storage.
func (q *quotaState) finish(r Result) Result {
	nodes := q.nodeArena.Alloc(len(r.Nodes))
	copy(nodes, r.Nodes)
	r.Nodes = nodes
	if len(r.Edges) > 0 {
		edges := q.edgeArena.Alloc(len(r.Edges))
		copy(edges, r.Edges)
		r.Edges = edges
	} else {
		r.Edges = nil // single-node trees carry a nil edge list
	}
	return r
}

// pruneSetup builds the map-free prune scratch for a tree: the local
// index remap, degrees, liveness and the incident-edge CSR in r.Edges
// order. Shared by the heap prune and its scan-based reference in the tests.
func (q *quotaState) pruneSetup(r *Result) {
	nt := len(r.Nodes)
	q.pos = container.GrowTo(q.pos, q.n)
	for i, v := range r.Nodes {
		q.pos[v] = int32(i)
	}
	q.deg = container.GrowTo(q.deg, nt)
	q.alive = container.GrowTo(q.alive, nt)
	for i := 0; i < nt; i++ {
		q.deg[i] = 0
		q.alive[i] = true
	}
	q.edgeAlive = container.GrowTo(q.edgeAlive, len(r.Edges))
	q.incOffs = container.GrowTo(q.incOffs, nt+1)
	for i := 0; i <= nt; i++ {
		q.incOffs[i] = 0
	}
	for i, ei := range r.Edges {
		e := q.edges[ei]
		q.deg[q.pos[e.U]]++
		q.deg[q.pos[e.V]]++
		q.incOffs[q.pos[e.U]+1]++
		q.incOffs[q.pos[e.V]+1]++
		q.edgeAlive[i] = true
	}
	for i := 0; i < nt; i++ {
		q.incOffs[i+1] += q.incOffs[i]
	}
	q.cursor = container.GrowTo(q.cursor, nt)
	copy(q.cursor, q.incOffs[:nt])
	q.inc = container.GrowTo(q.inc, 2*len(r.Edges))
	for i, ei := range r.Edges {
		e := q.edges[ei]
		q.inc[q.cursor[q.pos[e.U]]] = int32(i)
		q.cursor[q.pos[e.U]]++
		q.inc[q.cursor[q.pos[e.V]]] = int32(i)
		q.cursor[q.pos[e.V]]++
	}
}

// pruneCompact drops dead nodes and edges in place, preserving order.
func (q *quotaState) pruneCompact(r *Result) {
	nodes := r.Nodes[:0]
	for _, v := range r.Nodes {
		if q.alive[q.pos[v]] {
			nodes = append(nodes, v)
		}
	}
	edges := r.Edges[:0]
	for i, ei := range r.Edges {
		if q.edgeAlive[i] {
			edges = append(edges, ei)
		}
	}
	r.Nodes, r.Edges = nodes, edges
}

// prunePush pushes a just-turned leaf (local index lv) with its single
// alive incident edge and final score; no-op if no alive edge remains.
func (q *quotaState) prunePush(r *Result, lv int32) {
	ei := int32(-1)
	for k := q.incOffs[lv]; k < q.incOffs[lv+1]; k++ {
		if q.edgeAlive[q.inc[k]] {
			ei = q.inc[k]
			break
		}
	}
	if ei < 0 {
		return
	}
	v := r.Nodes[lv]
	q.ph.Push(pruneCand{
		score: pruneScore(q.edges[r.Edges[ei]].Cost, q.weights[v]),
		pos:   lv, node: v, edge: ei,
	})
}

// quotaPrune repeatedly removes the least useful leaf while the remaining
// weight still meets the quota, shrinking the tree's length. "Least
// useful" prefers zero-weight leaves with long edges (pure gain), then the
// highest length-per-weight ratio. The tree is remapped to local indices
// with its incident-edge lists as a CSR in r.Edges order, and leaves live
// in a max-heap updated as nodes peel — O(|T| log |T|) where a full rescan
// per removal is O(|T|²). The removal sequence is identical to the rescan's
// (quotaPruneScan, the reference the tests compare against): the heap order
// (score desc, r.Nodes position asc) matches the scan's
// strict-max-plus-first-position selection, and a candidate the scan would
// skip is skipped here for the same reason — staleness (dead or no longer
// degree 1) or a quota failure, which is permanent because the remaining
// weight only ever decreases.
func (q *quotaState) quotaPrune(r *Result, quota int64) {
	if len(r.Nodes) <= 1 {
		return
	}
	q.pruneSetup(r)
	if !q.phReady {
		q.ph.Init(pruneBetter)
		q.phReady = true
	} else {
		q.ph.Reset()
	}
	for i := range r.Nodes {
		if q.deg[i] == 1 {
			q.prunePush(r, int32(i))
		}
	}
	for {
		if q.chk.Tick() {
			return // partial prune; the abandoned result is discarded upstream
		}
		c, ok := q.ph.Pop()
		if !ok {
			break // no removable leaf left
		}
		v := c.node
		lv := c.pos
		if !q.alive[lv] || q.deg[lv] != 1 || !q.edgeAlive[c.edge] {
			continue // stale: the candidate (or its edge) died since the push
		}
		if r.Weight-q.weights[v] < quota {
			continue // permanent: the remaining weight only decreases
		}
		// Only prune when it shortens the tree (always true for cost>0) or
		// frees weight with zero cost; stop pruning weight-carrying leaves
		// that don't save length.
		e := q.edges[r.Edges[c.edge]]
		if e.Cost <= 0 && q.weights[v] > 0 {
			break
		}
		q.alive[lv] = false
		q.edgeAlive[c.edge] = false
		other := e.U
		if other == v {
			other = e.V
		}
		lo := q.pos[other]
		q.deg[lo]--
		q.deg[lv]--
		r.Weight -= q.weights[v]
		r.Length -= e.Cost
		if q.alive[lo] && q.deg[lo] == 1 {
			q.prunePush(r, lo) // its single alive edge is fixed from here on
		}
	}
	q.pruneCompact(r)
}

// GargSolver is the GW-based quota solver: a binary search over λ whose GW
// runs are cached per λ, so the repeated invocations from APP's binary
// search stay cheap, with every piece of state reused across queries. See
// the package comment for the Result ownership rules.
type GargSolver struct {
	quotaState

	ps        pcst.Solver
	pg        pcst.Graph
	prizes    []float64
	lambdaMax float64

	compWeight []int64
	uf         container.UnionFind
	sums       []int64

	cacheLam   []float64     // sorted ascending
	cacheTrees [][]pcst.Tree // parallel to cacheLam

	// λ-cache persistence: a solver-owned snapshot of the scaled quota
	// graph. When Reset sees the same graph again (queries over one
	// scaling share it), the λ-cache and the GW runs it holds survive the
	// reset instead of being recomputed from scratch. The snapshot is a
	// deep copy because callers reuse and rewrite their edge/weight
	// buffers between queries; quotaState.edges/weights point at the
	// snapshot, never at the caller's slices.
	snapN       int
	snapEdges   []pcst.Edge
	snapWeights []int64
	snapValid   bool
	lamReuses   uint64

	inTree []bool
	h      container.Heap[primItem]
	hReady bool
}

// maxLamCache caps how many distinct λ values one snapshot may cache.
// Every cached GW run pins trees in the PCST solver's arenas (which only
// a full reset reclaims), so a full cache forces the slow Reset path,
// bounding memory under an adversarial λ sequence. 48 binary-search
// midpoints per quota are deterministic and shared, so real workloads
// saturate far below the cap.
const maxLamCache = 1024

// LamCacheReuses reports how many Resets kept the λ-cache alive because
// the graph was unchanged. Exposed for tests and instrumentation.
func (s *GargSolver) LamCacheReuses() uint64 { return s.lamReuses }

type primItem struct {
	cost float64
	to   int32
	edge int32
}

// NewGargSolver returns an empty Garg solver; call Reset before use.
func NewGargSolver() *GargSolver { return &GargSolver{} }

// SetCancel arms the solver (and its PCST solver beneath) with a
// cancellation checkpoint for the Tree calls until the next Reset. A nil
// check disables the checkpoints.
func (s *GargSolver) SetCancel(chk *cancel.Check) {
	s.chk = chk
	s.ps.SetCancel(chk)
}

// Reset points the solver at a new quota graph, reclaiming the previous
// query's Results. When the graph is byte-identical to the previous one
// (hot queries against a shared scaling), the λ-cache — and the GW runs
// behind it — persists across the reset: cached trees live in the PCST
// solver's arenas, which pcst.Solver.Reset alone reclaims, so skipping
// that reset keeps every cached tree valid. Only the result arenas are
// reclaimed, preserving the contract that prior Results die at Reset.
func (s *GargSolver) Reset(n int, edges []pcst.Edge, weights []int64) error {
	if s.snapValid && n == s.snapN && len(s.cacheLam) < maxLamCache &&
		slices.Equal(edges, s.snapEdges) && slices.Equal(weights, s.snapWeights) {
		// Same graph: keep the CSR, component weights, λmax and λ-cache.
		// Re-point at the snapshot (not the caller's volatile buffers) and
		// reclaim only what the Reset contract demands.
		s.edges, s.weights = s.snapEdges, s.snapWeights
		s.chk = nil
		s.ps.SetCancel(nil)
		s.nodeArena.Reset()
		s.edgeArena.Reset()
		s.lamReuses++
		return nil
	}
	if err := s.quotaState.reset(n, edges, weights); err != nil {
		return err
	}
	// Snapshot the validated graph so later Resets can recognize it after
	// the caller rewrites its buffers, and re-point the solver at the copy.
	s.snapN = n
	s.snapEdges = append(s.snapEdges[:0], edges...)
	s.snapWeights = append(s.snapWeights[:0], weights...)
	s.snapValid = true
	s.edges, s.weights = s.snapEdges, s.snapWeights
	s.ps.Reset()
	s.ps.SetCancel(nil)
	s.cacheLam = s.cacheLam[:0]
	s.cacheTrees = s.cacheTrees[:0]

	// Component weights, for feasibility checks and the MST fallback.
	s.uf.Reset(n)
	for _, e := range edges {
		s.uf.Union(int(e.U), int(e.V))
	}
	s.sums = container.GrowTo(s.sums, n)
	for i := range s.sums {
		s.sums[i] = 0
	}
	for v := 0; v < n; v++ {
		s.sums[s.uf.Find(v)] += weights[v]
	}
	s.compWeight = container.GrowTo(s.compWeight, n)
	for v := 0; v < n; v++ {
		s.compWeight[v] = s.sums[s.uf.Find(v)]
	}
	var totalCost float64
	for _, e := range edges {
		totalCost += e.Cost
	}
	// At λ ≥ totalCost+1 every weight-1 cluster has enough potential to
	// absorb its whole component, so the search interval is closed.
	s.lambdaMax = totalCost + 1
	return nil
}

// Tree implements Solver. The returned Result aliases the solver's arenas
// and stays valid until the next Reset.
func (s *GargSolver) Tree(quota int64) (Result, bool, error) {
	if quota <= 0 {
		if s.n == 0 {
			return Result{}, false, nil
		}
		best := 0
		for v := 1; v < s.n; v++ {
			if s.weights[v] > s.weights[best] {
				best = v
			}
		}
		nodes := s.nodeArena.Alloc(1)
		nodes[0] = int32(best)
		return Result{Nodes: nodes, Weight: s.weights[best]}, true, nil
	}
	feasible := false
	for v := 0; v < s.n; v++ {
		if s.compWeight[v] >= quota {
			feasible = true
			break
		}
	}
	if !feasible {
		return Result{}, false, nil
	}

	// Binary search λ over [0, λmax] for the smallest multiplier whose GW
	// forest contains a quota tree. The midpoint sequence is deterministic,
	// so the per-λ cache is shared across quotas within one query.
	lo, hi := 0.0, s.lambdaMax
	var bestTree *pcst.Tree
	var bestW int64
	for iter := 0; iter < 48 && hi-lo > 1e-9*s.lambdaMax; iter++ {
		if s.chk.Now() {
			return Result{}, false, nil
		}
		mid := (lo + hi) / 2
		tr, w, err := s.quotaTreeAt(mid, quota)
		if err != nil {
			return Result{}, false, err
		}
		if tr != nil {
			if bestTree == nil || tr.Cost < bestTree.Cost {
				bestTree, bestW = tr, w
			}
			hi = mid
		} else {
			lo = mid
		}
	}
	if s.chk.Now() {
		return Result{}, false, nil
	}
	if bestTree == nil {
		tr, w, err := s.quotaTreeAt(s.lambdaMax, quota)
		if err != nil {
			return Result{}, false, err
		}
		if tr != nil {
			bestTree, bestW = tr, w
		}
	}
	var res Result
	if bestTree != nil {
		res = Result{
			Nodes:  append(s.tmpNodes[:0], bestTree.Nodes...),
			Edges:  append(s.tmpEdges[:0], bestTree.Edges...),
			Length: bestTree.Cost,
			Weight: bestW,
		}
	} else {
		// GW pruning can in principle keep withholding the quota; fall
		// back to the component MST, which always carries it.
		res = s.mstFallback(quota)
	}
	s.tmpNodes, s.tmpEdges = res.Nodes, res.Edges // keep grown capacity
	s.quotaPrune(&res, quota)
	return s.finish(res), true, nil
}

// quotaTreeAt runs (λ-cached) GW with prizes λ·w and returns the minimum-
// length tree meeting the quota with its weight, or nil. Returned pointers
// reference the PCST solver's arena and stay valid until Reset. The cache
// is a sorted slice probed by binary search.
func (s *GargSolver) quotaTreeAt(lambda float64, quota int64) (*pcst.Tree, int64, error) {
	var trees []pcst.Tree
	idx, found := slices.BinarySearch(s.cacheLam, lambda)
	if found {
		trees = s.cacheTrees[idx]
	} else {
		s.prizes = container.GrowTo(s.prizes, s.n)
		for v := 0; v < s.n; v++ {
			s.prizes[v] = lambda * float64(s.weights[v])
		}
		s.pg = pcst.Graph{N: s.n, Edges: s.edges, Prizes: s.prizes}
		var err error
		trees, err = s.ps.Solve(&s.pg)
		if err != nil {
			// Inputs were validated in Reset, so this is a solver bug — but
			// a bug in one query's optimization must fail that query, not
			// the process hosting it.
			return nil, 0, fmt.Errorf("kmst: pcst solve (lambda %g): %w", lambda, err)
		}
		if s.chk.Cancelled() {
			// A cancelled Solve legitimately returns no trees. The λ-cache
			// now outlives the query, so caching that empty run would serve
			// a poisoned "no tree at λ" answer to later, uncancelled
			// queries; the caller is unwinding anyway.
			return nil, 0, nil
		}
		s.cacheLam = append(s.cacheLam, 0)
		copy(s.cacheLam[idx+1:], s.cacheLam[idx:])
		s.cacheLam[idx] = lambda
		s.cacheTrees = append(s.cacheTrees, nil)
		copy(s.cacheTrees[idx+1:], s.cacheTrees[idx:])
		s.cacheTrees[idx] = trees
	}
	var best *pcst.Tree
	var bestW int64
	for i := range trees {
		var w int64
		for _, v := range trees[i].Nodes {
			w += s.weights[v]
		}
		if w < quota {
			continue
		}
		if best == nil || trees[i].Cost < best.Cost {
			best, bestW = &trees[i], w
		}
	}
	return best, bestW, nil
}

// mstFallback spans the lightest-length quota-carrying component with a
// Prim MST, assembling into the tmp buffers.
func (s *GargSolver) mstFallback(quota int64) Result {
	// Pick any node whose component carries the quota; prefer the largest
	// component weight to give quotaPrune room.
	seed := -1
	for v := 0; v < s.n; v++ {
		if s.compWeight[v] >= quota && (seed < 0 || s.compWeight[v] > s.compWeight[seed]) {
			seed = v
		}
	}
	s.inTree = container.GrowTo(s.inTree, s.n)
	for i := range s.inTree {
		s.inTree[i] = false
	}
	if !s.hReady {
		s.h.Init(func(a, b primItem) bool { return a.cost < b.cost })
		s.hReady = true
	} else {
		s.h.Reset()
	}
	res := Result{Nodes: append(s.tmpNodes[:0], int32(seed)), Edges: s.tmpEdges[:0], Weight: s.weights[seed]}
	s.inTree[seed] = true
	for k := s.offs[seed]; k < s.offs[seed+1]; k++ {
		s.h.Push(primItem{cost: s.edges[s.adjEdge[k]].Cost, to: s.adjTo[k], edge: s.adjEdge[k]})
	}
	for {
		if s.chk.Tick() {
			break // partial MST; discarded upstream once cancellation surfaces
		}
		it, ok := s.h.Pop()
		if !ok {
			break
		}
		if s.inTree[it.to] {
			continue
		}
		s.inTree[it.to] = true
		res.Nodes = append(res.Nodes, it.to)
		res.Edges = append(res.Edges, int(it.edge))
		res.Length += s.edges[it.edge].Cost
		res.Weight += s.weights[it.to]
		for k := s.offs[it.to]; k < s.offs[it.to+1]; k++ {
			if !s.inTree[s.adjTo[k]] {
				s.h.Push(primItem{cost: s.edges[s.adjEdge[k]].Cost, to: s.adjTo[k], edge: s.adjEdge[k]})
			}
		}
	}
	slices.Sort(res.Nodes)
	return res
}

// SPTSolver is a cheap quota solver used as an ablation baseline: grow a
// shortest-path ball from each of the heaviest seed nodes until the quota
// is met, keep the best (shortest) resulting shortest-path tree, then
// quota-prune it.
type SPTSolver struct {
	quotaState
	seeds int

	order      []int32
	dist       []float64
	parentEdge []int32
	settled    []bool
	h          container.Heap[sptItem]
	hReady     bool

	// Double-buffered candidate/best assembly.
	candNodes, bestNodes []int32
	candEdges, bestEdges []int
}

type sptItem struct {
	dist float64
	v    int32
}

// NewSPTSolver returns an empty SPT solver trying the given number
// of seeds (clamped to at least 1); call Reset before use.
func NewSPTSolver(seeds int) *SPTSolver {
	if seeds < 1 {
		seeds = 1
	}
	return &SPTSolver{seeds: seeds}
}

// Reset points the solver at a new quota graph, reclaiming the previous
// query's Results.
func (s *SPTSolver) Reset(n int, edges []pcst.Edge, weights []int64) error {
	return s.quotaState.reset(n, edges, weights)
}

// Tree implements Solver. The returned Result aliases the solver's arenas
// and stays valid until the next Reset.
func (s *SPTSolver) Tree(quota int64) (Result, bool, error) {
	if s.n == 0 {
		return Result{}, false, nil
	}
	s.order = container.GrowTo(s.order, s.n)
	for i := range s.order {
		s.order[i] = int32(i)
	}
	slices.SortFunc(s.order, func(a, b int32) int {
		// Heaviest first. The recorded goldens depend on this exact
		// predicate under the unstable pdqsort.
		switch {
		case s.weights[a] > s.weights[b]:
			return -1
		case s.weights[b] > s.weights[a]:
			return 1
		default:
			return 0
		}
	})
	haveBest := false
	var best Result
	tries := s.seeds
	if tries > s.n {
		tries = s.n
	}
	for k := 0; k < tries; k++ {
		if s.chk.Now() {
			return Result{}, false, nil
		}
		r, ok := s.fromSeed(int(s.order[k]), quota)
		if !ok {
			continue
		}
		switch {
		case !haveBest:
			// r owns the candidate buffers now; recycle the parked best
			// buffers from the previous Tree call as the next candidate's.
			best, haveBest = r, true
			s.candNodes, s.candEdges = s.bestNodes[:0], s.bestEdges[:0]
		case r.Length < best.Length:
			s.candNodes, s.candEdges = best.Nodes, best.Edges
			best = r
		default:
			s.candNodes, s.candEdges = r.Nodes, r.Edges
		}
	}
	if !haveBest {
		return Result{}, false, nil
	}
	s.quotaPrune(&best, quota)
	s.bestNodes, s.bestEdges = best.Nodes, best.Edges // park grown capacity
	return s.finish(best), true, nil
}

// fromSeed grows a shortest-path ball from seed until the quota is met,
// assembling into the candidate buffers.
func (s *SPTSolver) fromSeed(seed int, quota int64) (Result, bool) {
	s.dist = container.GrowTo(s.dist, s.n)
	s.parentEdge = container.GrowTo(s.parentEdge, s.n)
	s.settled = container.GrowTo(s.settled, s.n)
	for i := 0; i < s.n; i++ {
		s.dist[i] = math.Inf(1)
		s.parentEdge[i] = -1
		s.settled[i] = false
	}
	s.dist[seed] = 0
	if !s.hReady {
		s.h.Init(func(a, b sptItem) bool { return a.dist < b.dist })
		s.hReady = true
	} else {
		s.h.Reset()
	}
	s.h.Push(sptItem{0, int32(seed)})
	res := Result{Nodes: s.candNodes[:0], Edges: s.candEdges[:0]}
	var acc int64
	met := false
	for {
		if s.chk.Tick() {
			break // unmet quota path below parks the buffers and reports !ok
		}
		it, ok := s.h.Pop()
		if !ok {
			break
		}
		if s.settled[it.v] {
			continue
		}
		s.settled[it.v] = true
		res.Nodes = append(res.Nodes, it.v)
		if s.parentEdge[it.v] >= 0 {
			res.Edges = append(res.Edges, int(s.parentEdge[it.v]))
			res.Length += s.edges[s.parentEdge[it.v]].Cost
		}
		acc += s.weights[it.v]
		if acc >= quota {
			met = true
			break
		}
		for k := s.offs[it.v]; k < s.offs[it.v+1]; k++ {
			nd := it.dist + s.edges[s.adjEdge[k]].Cost
			if nd < s.dist[s.adjTo[k]] {
				s.dist[s.adjTo[k]] = nd
				s.parentEdge[s.adjTo[k]] = s.adjEdge[k]
				s.h.Push(sptItem{nd, s.adjTo[k]})
			}
		}
	}
	if !met {
		s.candNodes, s.candEdges = res.Nodes, res.Edges // keep grown capacity
		return Result{}, false
	}
	res.Weight = acc
	slices.Sort(res.Nodes)
	return res, true
}
