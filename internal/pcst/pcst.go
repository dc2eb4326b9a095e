// Package pcst implements the Goemans–Williamson primal–dual approximation
// for the (unrooted) prize-collecting Steiner tree problem — the "general
// approximation technique for constrained forest problems" [9] that Garg's
// k-MST 3-approximation [8] is built on, which in turn is the solver APP
// invokes during its binary search (§4.2 of the paper).
//
// Given an undirected graph with non-negative edge costs c(e) and node
// prizes π(v), the algorithm grows moats (dual variables) uniformly around
// active clusters; an edge becomes part of the forest when the moats along
// it are tight, and a cluster deactivates when its prize budget is
// exhausted. A final strong-pruning pass (Johnson–Minkoff–Phillips) keeps,
// inside each forest component, the subtree with the best net worth
// Σπ − Σc. The classic guarantee is a 2-approximation for the PCST
// objective min c(T) + π(V \ T).
//
// # Pooling ownership
//
// Solver runs the algorithm from reusable state with zero steady-state
// allocations; it serves one goroutine, and its answers are pinned
// bit-for-bit by testdata/solve.golden. Trees returned by Solver.Solve
// alias the solver's arenas and stay valid across later Solve calls — the
// kmst λ-cache retains them — until Solver.Reset reclaims them all at once.
package pcst

import (
	"fmt"
	"math"
)

// Edge is an undirected edge with a non-negative cost.
type Edge struct {
	U, V int32
	Cost float64
}

// Graph is the PCST input: a node count, an edge list, and per-node prizes.
type Graph struct {
	N      int
	Edges  []Edge
	Prizes []float64
}

// Validate checks structural invariants and returns a descriptive error.
func (g *Graph) Validate() error {
	if len(g.Prizes) != g.N {
		return fmt.Errorf("pcst: %d prizes for %d nodes", len(g.Prizes), g.N)
	}
	for i, p := range g.Prizes {
		if p < 0 || math.IsNaN(p) {
			return fmt.Errorf("pcst: node %d has invalid prize %v", i, p)
		}
	}
	for i, e := range g.Edges {
		if e.U < 0 || int(e.U) >= g.N || e.V < 0 || int(e.V) >= g.N {
			return fmt.Errorf("pcst: edge %d endpoints (%d,%d) out of range", i, e.U, e.V)
		}
		if e.U == e.V {
			return fmt.Errorf("pcst: edge %d is a self loop", i)
		}
		if e.Cost < 0 || math.IsNaN(e.Cost) || math.IsInf(e.Cost, 0) {
			return fmt.Errorf("pcst: edge %d has invalid cost %v", i, e.Cost)
		}
	}
	return nil
}

// Tree is a connected subtree of the input graph.
type Tree struct {
	Nodes []int32 // sorted ascending
	Edges []int   // indices into Graph.Edges
	Cost  float64 // Σ c(e) over Edges
	Prize float64 // Σ π(v) over Nodes
}

// NetWorth returns Prize − Cost, the quantity strong pruning maximizes.
func (t *Tree) NetWorth() float64 { return t.Prize - t.Cost }

const eps = 1e-9

type eventKind uint8

const (
	evEdge eventKind = iota
	evDeath
)

type event struct {
	time float64
	kind eventKind
	id   int // edge index, or cluster representative node
}
