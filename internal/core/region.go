package core

import (
	"fmt"
	"sort"
)

// Region is the five-tuple of Definition 4: total length l, original
// weight s, scaled weight ŝ, node set V, and edge set E. A Region is
// always a connected subgraph of its Instance.
type Region struct {
	Length float64
	Score  float64 // s — Σ σv over Nodes
	Scaled int64   // ŝ — Σ σ̂v over Nodes
	Nodes  []int32 // sorted ascending
	Edges  []int32 // indices into Instance.Edges
}

// betterScore reports whether r should replace o as the query answer:
// larger original (unscaled) score wins, so results of algorithms with
// different scalings compare; ties prefer the shorter region (§2: "In the
// rare case that there is more than one optimal region, we return the one
// with shortest length").
func (r *Region) betterScore(o *Region) bool {
	if o == nil {
		return r != nil
	}
	return beats(r.Score, r.Length, o)
}

// beats is betterScore's rule for a region of the given score and length
// that need not be built yet (combineAcross's keep-check).
func beats(score, length float64, o *Region) bool {
	if score != o.Score {
		return score > o.Score
	}
	return length < o.Length
}

// Contains reports whether node v belongs to the region.
func (r *Region) Contains(v NodeID) bool {
	i := sort.Search(len(r.Nodes), func(i int) bool { return r.Nodes[i] >= v })
	return i < len(r.Nodes) && r.Nodes[i] == v
}

// String implements fmt.Stringer.
func (r *Region) String() string {
	if r == nil {
		return "Region(nil)"
	}
	return fmt.Sprintf("Region{|V|=%d, |E|=%d, len=%.3f, score=%.4f}",
		len(r.Nodes), len(r.Edges), r.Length, r.Score)
}
