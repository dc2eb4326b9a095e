package core

import (
	"context"
	"slices"
)

// The top-k LCMSR query (§6.2) returns the k best-scoring feasible
// regions. Regions are pairwise node-disjoint — the natural reading of
// "k best regions" for user exploration (a region and itself minus one
// node are not two answers), and exactly how the paper's Greedy variant
// behaves (each next region is seeded outside all previous ones).
//
// Rank 1 comes from the algorithm's native machinery (tuple arrays for
// APP/TGEN). Later ranks re-run the algorithm on the instance with the
// previous regions' nodes removed; the per-node tuple arrays of a single
// run concentrate on the best cluster, so re-running after exclusion is
// what actually yields k distinct exploration areas.

// topKState is the part of a SolveScratch the top-k extension owns: the
// banned-node set, the shrunken sub-instance with its mappings back to the
// original IDs, and the storage behind the returned regions. None of it is
// touched by the per-rank solves, which reset everything else.
type topKState struct {
	banned   []bool
	toLocal  []int32
	nodeOrig []int32
	edgeOrig []int32
	edges    []Edge
	weights  []float64
	sub      Instance
	regions  []Region // one per rank; Nodes/Edges keep their capacity
	out      []*Region
}

// SolveTopK returns up to k pairwise-disjoint regions, best first, using
// the method opts belongs to: APP (§4) and TGEN (§5) are re-run on the
// instance shrunk by every earlier rank's nodes and the ranks are ordered
// by score at the end; TGEN's α is resized for each shrunken instance so
// the scaled-weight granularity σ̂max stays constant across ranks. Greedy
// (§6.1) seeds each next region at the heaviest node outside all previous
// regions. Every rank runs on s like a single-region solve, so
// cancellation is observed mid-solve and a warm scratch allocates nothing.
// The returned slice and regions alias s and are valid only until the next
// solve on it.
func SolveTopK[O APPOptions | TGENOptions | GreedyOptions](ctx context.Context, s *SolveScratch, in *Instance, delta float64, k int, opts O) ([]*Region, error) {
	if k <= 0 {
		return nil, nil
	}
	k = min(k, in.NumNodes) // disjoint regions hold at least one node each
	tk := &s.topk
	tk.regions = growTo(tk.regions, k)
	tk.out = tk.out[:0]
	tk.banned = growTo(tk.banned, in.NumNodes)
	clear(tk.banned)
	switch o := any(opts).(type) {
	case GreedyOptions:
		return s.topKGreedy(ctx, in, delta, k, o)
	case APPOptions:
		return s.topKByExclusion(in, k, func(sub *Instance) (*Region, error) {
			return SolveAPP(ctx, s, sub, delta, o)
		})
	case TGENOptions:
		o = o.withDefaults(in.NumNodes)
		granularity := max(float64(in.NumNodes)/o.Alpha, 1) // σ̂max regime to hold
		return s.topKByExclusion(in, k, func(sub *Instance) (*Region, error) {
			o.Alpha = max(float64(sub.NumNodes)/granularity, 1)
			return SolveTGEN(ctx, s, sub, delta, o)
		})
	}
	panic("unreachable: the constraint admits no other type")
}

// topKGreedy grows each rank directly into its output region, banning the
// nodes of the regions found so far.
func (s *SolveScratch) topKGreedy(ctx context.Context, in *Instance, delta float64, k int, opts GreedyOptions) ([]*Region, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	sigmaMax, _ := in.MaxWeight()
	if sigmaMax <= 0 {
		return nil, nil
	}
	s.begin(ctx)
	defer s.cancel.Release() // don't pin the caller's context between queries
	tk := &s.topk
	for len(tk.out) < k {
		if s.cancel.Now() {
			return nil, s.cancel.Err()
		}
		// Heaviest unbanned node seeds the next region.
		seed := NodeID(-1)
		bestW := 0.0
		for v, w := range in.Weights {
			if !tk.banned[v] && w > bestW {
				bestW, seed = w, NodeID(v)
			}
		}
		if seed < 0 {
			break
		}
		r := greedyFrom(in, delta, opts.Mu, sigmaMax, seed, tk.banned, &s.inRegion, &tk.regions[len(tk.out)], &s.cancel)
		if s.cancel.Cancelled() {
			return nil, s.cancel.Err()
		}
		tk.out = append(tk.out, r)
		for _, v := range r.Nodes {
			tk.banned[v] = true
		}
	}
	return tk.out, nil
}

// topKByExclusion runs solve on progressively shrunken instances: after
// each region is found it is copied out in the original instance's IDs (the
// next solve recycles the scratch it lives in), its nodes are removed, and
// the next rank is solved on the remainder.
func (s *SolveScratch) topKByExclusion(in *Instance, k int, solve func(sub *Instance) (*Region, error)) ([]*Region, error) {
	tk := &s.topk
	for len(tk.out) < k {
		if err := tk.excludeBanned(in); err != nil {
			return nil, err
		}
		if w, _ := tk.sub.MaxWeight(); w <= 0 {
			break // nothing (relevant) remains
		}
		r, err := solve(&tk.sub)
		if err != nil {
			return nil, err
		}
		if r == nil || r.Score <= 0 {
			break
		}
		out := &tk.regions[len(tk.out)]
		*out = Region{Length: r.Length, Score: r.Score, Scaled: r.Scaled, Nodes: out.Nodes[:0], Edges: out.Edges[:0]}
		for _, v := range r.Nodes { // ascending, and nodeOrig is monotone
			out.Nodes = append(out.Nodes, tk.nodeOrig[v])
			tk.banned[tk.nodeOrig[v]] = true
		}
		for _, e := range r.Edges {
			out.Edges = append(out.Edges, tk.edgeOrig[e])
		}
		tk.out = append(tk.out, out)
	}
	slices.SortFunc(tk.out, func(a, b *Region) int {
		switch {
		case a.betterScore(b):
			return -1
		case b.betterScore(a):
			return 1
		default:
			return 0
		}
	})
	return tk.out, nil
}

// excludeBanned rebuilds tk.sub as in without the banned nodes, recording
// the mappings from its node and edge IDs back to in's.
func (tk *topKState) excludeBanned(in *Instance) error {
	tk.toLocal = growTo(tk.toLocal, in.NumNodes)
	tk.nodeOrig = tk.nodeOrig[:0]
	tk.weights = tk.weights[:0]
	for v := 0; v < in.NumNodes; v++ {
		if tk.banned[v] {
			tk.toLocal[v] = -1
			continue
		}
		tk.toLocal[v] = int32(len(tk.nodeOrig))
		tk.nodeOrig = append(tk.nodeOrig, int32(v))
		tk.weights = append(tk.weights, in.Weights[v])
	}
	tk.edges = tk.edges[:0]
	tk.edgeOrig = tk.edgeOrig[:0]
	for i, e := range in.Edges {
		if lu, lv := tk.toLocal[e.U], tk.toLocal[e.V]; lu >= 0 && lv >= 0 {
			tk.edges = append(tk.edges, Edge{U: lu, V: lv, Length: e.Length})
			tk.edgeOrig = append(tk.edgeOrig, int32(i))
		}
	}
	return tk.sub.Reset(len(tk.nodeOrig), tk.edges, tk.weights)
}
