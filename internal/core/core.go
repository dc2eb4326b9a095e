// Package core implements the paper's primary contribution: answering the
// length-constrained maximum-sum region (LCMSR) query. Given a working
// graph — the road network restricted to the query rectangle Q.Λ, with
// per-node relevance weights σv for the query keywords — the algorithms
// here find a connected subgraph ("region") of total edge length at most
// Q.∆ maximizing the total node weight:
//
//   - APP (§4): the (5+ε)-approximation built on node-weight scaling, a
//     binary search over node-weight quotas against a k-MST solver, and a
//     dynamic program (findOptTree) extracting the best feasible subtree;
//   - TGEN (§5): the tuple-generation heuristic that runs the same
//     dominance-pruned tuple machinery directly on the graph;
//   - Greedy (§6.1): frontier expansion balancing node weight and edge
//     length with the µ parameter;
//   - top-k variants of all three (§6.2);
//   - Exact: exhaustive baselines for small instances (used to measure
//     approximation quality in tests and benchmarks).
//
// # Pooling ownership
//
// SolveTGEN, SolveAPP, SolveGreedy and SolveTopK draw all per-query
// working state — epoch-stamped node and edge sets, the free-list Region
// arena behind the tuple arrays, the kmst/pcst solver state, and the top-k
// sub-instance — from a per-worker SolveScratch, so a warm scratch answers
// queries with zero steady-state allocations. Their answers are pinned
// bit-for-bit by the golden files in testdata/ (see golden_test.go).
//
// A SolveScratch serves one goroutine. The regions a solve returns alias
// the scratch's arenas and are invalidated by the next solve on the same
// scratch: consume or copy them before solving again.
package core

import (
	"fmt"
	"math"
)

// NodeID is a node index local to an Instance (0..N-1).
type NodeID = int32

// Edge is an undirected edge of the working graph.
type Edge struct {
	U, V   NodeID
	Length float64
}

// Halfedge is one direction of an edge in the adjacency structure.
type Halfedge struct {
	To   NodeID
	Edge int32
}

// Instance is the per-query working graph: the subgraph of the road
// network inside Q.Λ with query-dependent node weights σv ≥ 0. The zero
// weight marks nodes irrelevant to the query (junctions, dead ends,
// non-matching objects).
//
// The adjacency is stored in CSR form (halfedges of node v are
// adj[offs[v]:offs[v+1]]), and Reset rebuilds it in place, so a pooled
// Instance can serve many queries without reallocating.
type Instance struct {
	NumNodes int
	Edges    []Edge
	Weights  []float64 // σv per node

	offs   []int32
	adj    []Halfedge
	cursor []int32 // CSR fill scratch, reused by Reset
}

// NewInstance validates and indexes a working graph.
func NewInstance(numNodes int, edges []Edge, weights []float64) (*Instance, error) {
	inst := &Instance{}
	if err := inst.Reset(numNodes, edges, weights); err != nil {
		return nil, err
	}
	return inst, nil
}

// Reset re-initializes the instance in place with a new working graph,
// reusing the adjacency storage from previous queries (zero allocations
// once the buffers have grown to the workload's high-water mark). The
// instance keeps references to edges and weights. On error the instance is
// left unusable and must be Reset again before use.
func (in *Instance) Reset(numNodes int, edges []Edge, weights []float64) error {
	if len(weights) != numNodes {
		return fmt.Errorf("core: %d weights for %d nodes", len(weights), numNodes)
	}
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("core: node %d has invalid weight %v", i, w)
		}
	}
	for i, e := range edges {
		if e.U < 0 || int(e.U) >= numNodes || e.V < 0 || int(e.V) >= numNodes {
			return fmt.Errorf("core: edge %d endpoints (%d,%d) out of range", i, e.U, e.V)
		}
		if e.U == e.V {
			return fmt.Errorf("core: edge %d is a self loop", i)
		}
		if e.Length < 0 || math.IsNaN(e.Length) || math.IsInf(e.Length, 0) {
			return fmt.Errorf("core: edge %d has invalid length %v", i, e.Length)
		}
	}
	in.NumNodes = numNodes
	in.Edges = edges
	in.Weights = weights
	in.offs = growTo(in.offs, numNodes+1)
	for i := range in.offs {
		in.offs[i] = 0
	}
	for _, e := range edges {
		in.offs[e.U+1]++
		in.offs[e.V+1]++
	}
	for i := 0; i < numNodes; i++ {
		in.offs[i+1] += in.offs[i]
	}
	in.cursor = growTo(in.cursor, numNodes)
	copy(in.cursor, in.offs[:numNodes])
	in.adj = growTo(in.adj, 2*len(edges))
	for i, e := range edges {
		in.adj[in.cursor[e.U]] = Halfedge{To: e.V, Edge: int32(i)}
		in.cursor[e.U]++
		in.adj[in.cursor[e.V]] = Halfedge{To: e.U, Edge: int32(i)}
		in.cursor[e.V]++
	}
	return nil
}

// growTo returns s with length n, reusing its backing array when possible.
func growTo[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Neighbors returns the halfedges out of v (aliases internal storage).
func (in *Instance) Neighbors(v NodeID) []Halfedge {
	return in.adj[in.offs[v]:in.offs[v+1]]
}

// MaxWeight returns σmax, the maximum node weight, and its node.
func (in *Instance) MaxWeight() (float64, NodeID) {
	best, arg := 0.0, NodeID(-1)
	for v, w := range in.Weights {
		if w > best {
			best, arg = w, NodeID(v)
		}
	}
	return best, arg
}

// MaxEdgeLength returns τmax over the instance's edges (0 if edgeless).
func (in *Instance) MaxEdgeLength() float64 {
	var best float64
	for _, e := range in.Edges {
		if e.Length > best {
			best = e.Length
		}
	}
	return best
}
