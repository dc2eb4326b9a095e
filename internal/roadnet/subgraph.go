package roadnet

import (
	"slices"

	"repro/internal/geo"
)

// Subgraph is the restriction of a parent Graph to the nodes inside a query
// rectangle Q.Λ, with dense local IDs. The LCMSR definition (§2, Def. 3)
// only counts edges whose two endpoints are inside Q.Λ, so edges leaving
// the rectangle are dropped. A Subgraph is the local→parent id mapping, its
// inverse, and the induced edge list in local IDs; it has no adjacency of
// its own — the solvers' one per-request adjacency is the core.Instance
// built from Edges.
//
// The parent→local mapping is slice-based: localOf and stamp are arrays
// indexed by parent node ID, shared with the Extractor that produced the
// subgraph, and a remap entry is live only when its stamp equals the
// subgraph's epoch. This replaces the former map[NodeID]NodeID with O(1)
// lookups and zero per-query map allocation.
type Subgraph struct {
	// ToParent maps a local node ID to the node ID in the parent graph;
	// its length is the subgraph's node count.
	ToParent []NodeID
	// Edges are the induced edges in local IDs, grouped by their endpoint
	// with the lower parent ID, in local order of that endpoint.
	Edges   []Edge
	localOf []NodeID
	stamp   []uint32
	epoch   uint32
	// Compact copies replace the parent-sized stamped remap with sorted
	// (parent, local) pairs: lookupParent is ascending, lookupLocal[i] is
	// the local ID of lookupParent[i]. Exactly one of the two
	// representations is set.
	lookupParent []NodeID
	lookupLocal  []NodeID
}

// ExtractRect returns the subgraph induced by the nodes of g inside r.
// It allocates a fresh Extractor per call; hot paths that run many queries
// should pool an Extractor per worker instead.
func (g *Graph) ExtractRect(r geo.Rect) *Subgraph {
	return NewExtractor(g).ExtractRect(r)
}

// ExtractNodes returns the subgraph induced by the given parent node IDs
// (duplicates ignored). See ExtractRect about pooling.
func (g *Graph) ExtractNodes(nodes []NodeID) *Subgraph {
	return NewExtractor(g).ExtractNodes(nodes)
}

// Local returns the local ID of a parent node, or -1 if it is outside the
// subgraph.
func (s *Subgraph) Local(parent NodeID) NodeID {
	if s.stamp != nil {
		if parent >= 0 && int(parent) < len(s.stamp) && s.stamp[parent] == s.epoch {
			return s.localOf[parent]
		}
		return -1
	}
	if i, ok := slices.BinarySearch(s.lookupParent, parent); ok {
		return s.lookupLocal[i]
	}
	return -1
}

// Compact returns a self-contained copy of s sized to the subgraph
// itself: every slice is freshly allocated at its exact length, the
// parent→local mapping becomes sorted pairs instead of the extractor's
// parent-sized stamp/remap arrays, and nothing aliases extractor scratch
// — the copy stays valid across later extractions on the same extractor.
// Retaining it costs O(subgraph), not O(parent graph), which is what
// lets a driver pin many instances at once (see dataset.Detach).
func (s *Subgraph) Compact() *Subgraph {
	out := &Subgraph{
		ToParent:     append([]NodeID(nil), s.ToParent...),
		Edges:        append([]Edge(nil), s.Edges...),
		lookupParent: append([]NodeID(nil), s.ToParent...),
		lookupLocal:  make([]NodeID, len(s.ToParent)),
	}
	for i := range out.lookupLocal {
		out.lookupLocal[i] = NodeID(i)
	}
	// ExtractRect produces ascending ToParent already; ExtractNodes may
	// not, so sort the pair view when needed.
	if !slices.IsSorted(out.lookupParent) {
		sortParentLocal(out.lookupParent, out.lookupLocal)
	}
	return out
}

// sortParentLocal sorts the pair slices by parent, keeping them aligned.
func sortParentLocal(parents, locals []NodeID) {
	idx := make([]int, len(parents))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { return int(parents[a]) - int(parents[b]) })
	ps := append([]NodeID(nil), parents...)
	ls := append([]NodeID(nil), locals...)
	for i, j := range idx {
		parents[i] = ps[j]
		locals[i] = ls[j]
	}
}
