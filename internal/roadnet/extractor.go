package roadnet

import (
	"slices"

	"repro/internal/geo"
)

// Extractor materializes working subgraphs of one parent graph with reusable
// scratch state. Candidate nodes come from the parent's cell index and edges
// from the adjacency of in-rectangle nodes only, so an extraction costs
// O(nodes inside + edges incident) — never O(|E|) — and, once the scratch
// buffers have warmed up, performs no allocations at all. It hands over ids
// and edges only: no points, adjacency or spatial index of the subgraph.
//
// The returned *Subgraph aliases the extractor's buffers: it is valid only
// until the next Extract call on the same extractor. An Extractor is not
// safe for concurrent use; pool one per worker (see dataset.Planner).
type Extractor struct {
	g *Graph

	// Epoch-stamped parent→local remap: localOf[v] is meaningful iff
	// stamp[v] == epoch, so resetting the map between queries is a single
	// counter increment instead of an O(|V|) clear.
	epoch   uint32
	stamp   []uint32
	localOf []NodeID

	sub      Subgraph
	cand     []NodeID
	toParent []NodeID
	edges    []Edge
}

// NewExtractor returns an extractor for subgraphs of g.
func NewExtractor(g *Graph) *Extractor {
	return &Extractor{
		g:       g,
		stamp:   make([]uint32, g.NumNodes()),
		localOf: make([]NodeID, g.NumNodes()),
	}
}

// ExtractRect extracts the subgraph induced by the nodes inside r.
func (x *Extractor) ExtractRect(r geo.Rect) *Subgraph {
	x.cand = x.g.appendNodesInRect(r, x.cand[:0])
	// Ascending parent order keeps local IDs identical to a full scan,
	// so extraction results do not depend on the cell-grid geometry.
	slices.Sort(x.cand)
	return x.extract(x.cand)
}

// ExtractNodes extracts the subgraph induced by the given parent node IDs
// (duplicates ignored). Local IDs follow first occurrence order.
func (x *Extractor) ExtractNodes(nodes []NodeID) *Subgraph {
	return x.extract(nodes)
}

func (x *Extractor) extract(cand []NodeID) *Subgraph {
	x.epoch++
	if x.epoch == 0 { // uint32 wrap: old stamps would alias the new epoch
		for i := range x.stamp {
			x.stamp[i] = 0
		}
		x.epoch = 1
	}
	g := x.g
	x.toParent = x.toParent[:0]
	for _, v := range cand {
		if x.stamp[v] == x.epoch {
			continue // duplicate candidate
		}
		x.stamp[v] = x.epoch
		x.localOf[v] = NodeID(len(x.toParent))
		x.toParent = append(x.toParent, v)
	}

	// Collect induced edges by walking only the adjacency of inside nodes;
	// the u < he.To guard admits each undirected edge exactly once (also
	// for parallel edges, which occur once per endpoint list).
	x.edges = x.edges[:0]
	for _, u := range x.toParent {
		for _, he := range g.adj[g.offs[u]:g.offs[u+1]] {
			if u < he.To && x.stamp[he.To] == x.epoch {
				x.edges = append(x.edges, Edge{U: x.localOf[u], V: x.localOf[he.To], Length: he.Length})
			}
		}
	}

	x.sub = Subgraph{
		ToParent: x.toParent,
		Edges:    x.edges,
		localOf:  x.localOf,
		stamp:    x.stamp,
		epoch:    x.epoch,
	}
	return &x.sub
}
