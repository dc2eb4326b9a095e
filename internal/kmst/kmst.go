// Package kmst implements node-weighted quota-tree solvers: given a graph
// with non-negative integer node weights, find a low-length tree whose
// total node weight is at least a quota X. This is the "node-weighted
// k-MST" of §4.2 of the paper ("Given a node weight constraint X, the
// problem aims to find the tree with the smallest length such that the
// nodes it spans have total weight at least X"), the subproblem APP's
// binary search calls.
//
// The Garg solver follows Garg's FOCS'96 construction in its
// Lagrangian-relaxation reading: the quota constraint is priced into node
// prizes λ·w(v) and the Goemans–Williamson prize-collecting Steiner tree
// primal–dual (package pcst) is run, with a binary search driving λ to the
// smallest value whose GW tree meets the quota; a final quota-pruning pass
// strips unneeded leaves. A Prim-MST fallback guarantees a tree is found
// whenever any connected component carries the quota. The SPT solver is a
// cheap shortest-path-tree heuristic used for ablation benchmarks.
//
// # Pooling ownership
//
// GargSolver and SPTSolver keep all per-query state — CSR adjacency, the
// λ-cache, PCST solver state, Prim/Dijkstra heaps, quota-pruning scratch,
// and the storage behind returned Results — and are pointed at each new
// graph with Reset(n, edges, weights), so a warm solver answers Tree calls
// with zero steady-state allocations. Their Results are pinned bit-for-bit
// by testdata/quota.golden. A solver serves one goroutine; Results it
// returns alias its internal arenas and stay valid across later Tree calls
// — APP's binary search holds earlier trees while probing new quotas —
// until the next Reset reclaims them.
package kmst

import "math"

// Result is a tree meeting (or attempting) a quota.
type Result struct {
	Nodes  []int32
	Edges  []int // indices into the edge list given to Reset
	Length float64
	Weight int64
}

// Solver finds a low-length tree with node weight at least the quota.
type Solver interface {
	// Tree returns a quota tree; ok is false when no connected component
	// of the graph carries the quota (or the solve was cancelled). A
	// non-nil error means the underlying optimization failed — the query
	// is lost, not the process; callers surface it instead of panicking.
	Tree(quota int64) (Result, bool, error)
}

// pruneCand is one quotaPrune heap candidate: a leaf at the moment its
// degree reached 1, with its (then-fixed) single alive incident edge and
// removal score. Scores never change after that moment — edge costs and
// node weights are static, and a leaf's alive edge can only disappear by
// the leaf itself (or its neighbor) dying — so candidates are pushed once
// with their final score and lazily revalidated when popped.
type pruneCand struct {
	score float64
	pos   int32 // position in r.Nodes: replicates the scan's first-max tie-break
	node  int32
	edge  int32 // index into r.Edges
}

// pruneBetter orders heap candidates exactly as the reference scan
// (quotaPruneScan, in the tests) picks them: higher score first, earlier
// r.Nodes position on ties (the scan keeps the first maximum under a strict
// > comparison).
func pruneBetter(a, b pruneCand) bool {
	return a.score > b.score || (a.score == b.score && a.pos < b.pos)
}

// pruneScore is the leaf-removal score: zero-weight leaves are free
// removals (+Inf), otherwise length per unit of weight given up.
func pruneScore(length float64, weight int64) float64 {
	if weight == 0 {
		return math.Inf(1)
	}
	return length / float64(weight)
}
