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
// # Edges between inactive clusters
//
// An edge whose two sides are both inactive produces no event; it waits in
// a dormancy list on each endpoint cluster, stamped with an episode number.
// A cluster turns active only by a merge, so a merge that leaves an active
// cluster can wake only the edges waiting on that cluster: it walks that one
// list, in stamp order, instead of re-testing every waiting edge in the
// graph. One GW run costs O((m + dormancy episodes) · log m) rather than
// O(merges × waiting edges), and the forest and duals are bit-identical to
// the global rescan's.
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
	id   int32 // edge index, or cluster representative node
	kind eventKind
}

// eventQueue is the GW event queue: a binary min-heap on event time whose
// sift-up and sift-down are container.Heap's line for line with the
// comparison inlined, so it pops tied events in exactly the order that
// container.Heap would.
type eventQueue []event

func (q *eventQueue) push(ev event) {
	*q = append(*q, ev)
	h := *q
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !(h[i].time < h[parent].time) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes and returns the earliest event; ok is false when q is empty.
func (q *eventQueue) pop() (ev event, ok bool) {
	h := *q
	n := len(h)
	if n == 0 {
		return event{}, false
	}
	top := h[0]
	h[0] = h[n-1]
	h = h[:n-1]
	*q = h
	n--
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h[l].time < h[smallest].time {
			smallest = l
		}
		if r < n && h[r].time < h[smallest].time {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	return top, true
}
