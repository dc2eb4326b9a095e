package kmst

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cancel"
	"repro/internal/pcst"
)

// randomTree builds a random spanning tree over a fresh random graph and
// returns the graph plus the tree as a Result. Zero-cost edges and
// zero-weight nodes appear with some probability, covering the free-removal
// (+Inf score) and stop-pruning branches.
func randomTree(rng *rand.Rand, n int) (*graph, Result) {
	edges := make([]pcst.Edge, 0, n-1)
	for i := 1; i < n; i++ {
		cost := 0.25 + 2*rng.Float64()
		if rng.Float64() < 0.15 {
			cost = 0
		}
		edges = append(edges, pcst.Edge{U: int32(rng.Intn(i)), V: int32(i), Cost: cost})
	}
	weights := make([]int64, n)
	for i := range weights {
		if rng.Float64() < 0.25 {
			weights[i] = 0
		} else {
			weights[i] = 1 + int64(rng.Intn(7))
		}
	}
	g := &graph{N: n, Edges: edges, Weights: weights}
	var r Result
	// Visit nodes in shuffled order so r.Nodes position (the tie-break
	// the heap must replicate) is decoupled from node id.
	perm := rng.Perm(n)
	for _, v := range perm {
		r.Nodes = append(r.Nodes, int32(v))
		r.Weight += weights[v]
	}
	for i, e := range edges {
		r.Edges = append(r.Edges, i)
		r.Length += e.Cost
	}
	return g, r
}

func cloneResult(r Result) Result {
	return Result{
		Nodes:  append([]int32(nil), r.Nodes...),
		Edges:  append([]int(nil), r.Edges...),
		Length: r.Length,
		Weight: r.Weight,
	}
}

// quotaPruneScan is the original O(|T|²) quota prune — a full leaf rescan
// per removal — kept as the independent reference for the heap-based
// quotaPrune.
func (q *quotaState) quotaPruneScan(r *Result, quota int64) {
	if len(r.Nodes) <= 1 {
		return
	}
	q.pruneSetup(r)
	for {
		if q.chk.Tick() {
			return // partial prune; the abandoned result is discarded upstream
		}
		// Find the best removable leaf.
		bestLeaf := int32(-1)
		bestEdge := -1
		bestScore := math.Inf(-1)
		for _, v := range r.Nodes {
			lv := q.pos[v]
			if !q.alive[lv] || q.deg[lv] != 1 {
				continue
			}
			if r.Weight-q.weights[v] < quota {
				continue
			}
			// Its single alive incident edge.
			ei := -1
			for k := q.incOffs[lv]; k < q.incOffs[lv+1]; k++ {
				if q.edgeAlive[q.inc[k]] {
					ei = int(q.inc[k])
					break
				}
			}
			if ei < 0 {
				continue
			}
			score := pruneScore(q.edges[r.Edges[ei]].Cost, q.weights[v])
			if score > bestScore {
				bestScore = score
				bestLeaf = v
				bestEdge = ei
			}
		}
		if bestLeaf < 0 {
			break
		}
		e := q.edges[r.Edges[bestEdge]]
		if e.Cost <= 0 && q.weights[bestLeaf] > 0 {
			break
		}
		q.alive[q.pos[bestLeaf]] = false
		q.edgeAlive[bestEdge] = false
		other := e.U
		if other == bestLeaf {
			other = e.V
		}
		q.deg[q.pos[other]]--
		q.deg[q.pos[bestLeaf]]--
		r.Weight -= q.weights[bestLeaf]
		r.Length -= e.Cost
	}
	q.pruneCompact(r)
}

// TestQuotaPruneHeapMatchesScan is the gate for the heap-based quotaPrune:
// on random trees across a quota sweep — one solver reused across all trees
// — it must produce bit-identical results (same surviving nodes and edges in
// the same order, same Length and Weight down to the last float bit) to the
// O(|T|²) rescan.
func TestQuotaPruneHeapMatchesScan(t *testing.T) {
	gs := NewGargSolver()
	for i := int64(0); i < 120; i++ {
		seed := i%60 + 1000*(i/60) // 0..59 and 1000..1059
		rng := rand.New(rand.NewSource(seed))
		g, tree := randomTree(rng, 3+rng.Intn(60))
		if err := gs.Reset(g.N, g.Edges, g.Weights); err != nil {
			t.Fatalf("seed %d: reset: %v", seed, err)
		}
		total := tree.Weight
		for _, quota := range []int64{0, 1, total / 3, total / 2, total - 1, total} {
			got := cloneResult(tree)
			want := cloneResult(tree)
			gs.quotaPrune(&got, quota)
			gs.quotaPruneScan(&want, quota)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d quota %d: heap prune diverges from scan\n got %+v\nwant %+v",
					seed, quota, got, want)
			}
		}
	}
}

// TestGargSolverLamCachePersists pins the λ-cache persistence contract: a
// Reset with a byte-identical graph keeps the cache (observable via
// LamCacheReuses) and every Tree answer stays bit-identical to a fresh
// solver's, across interleaved quotas, a different-graph reset in between,
// and callers that rewrite their edge/weight buffers after Reset.
func TestGargSolverLamCachePersists(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n, edges, weights := randomQuotaGraph(rng, 40)
	n2, edges2, weights2 := randomQuotaGraph(rng, 31)
	var total int64
	for _, w := range weights {
		total += w
	}
	quotas := []int64{1, total / 4, total / 2, 2, total/3 + 1, total}

	fresh := func(quota int64) (Result, bool) {
		s := NewGargSolver()
		if err := s.Reset(n, edges, weights); err != nil {
			t.Fatal(err)
		}
		return treeOK(t, s, quota)
	}

	s := NewGargSolver()
	// The caller's buffers get rewritten between queries; the solver must
	// key its cache on content it owns, not on these slices.
	volEdges := append([]pcst.Edge(nil), edges...)
	volWeights := append([]int64(nil), weights...)
	for round, quota := range quotas {
		if round == 3 {
			// An unrelated graph in the middle must invalidate, then the
			// original graph re-snapshots cleanly.
			if err := s.Reset(n2, edges2, weights2); err != nil {
				t.Fatal(err)
			}
			treeOK(t, s, 1)
			if s.LamCacheReuses() != 2 {
				t.Fatalf("different graph counted as a cache reuse (reuses=%d)", s.LamCacheReuses())
			}
		}
		copy(volEdges, edges)
		copy(volWeights, weights)
		if err := s.Reset(n, volEdges, volWeights); err != nil {
			t.Fatal(err)
		}
		for i := range volEdges {
			volEdges[i].Cost = -1 // scribble: the solver must not read these again
		}
		for i := range volWeights {
			volWeights[i] = -99
		}
		gotR, gotOK := treeOK(t, s, quota)
		wantR, wantOK := fresh(quota)
		if gotOK != wantOK || (gotOK && (gotR.Length != wantR.Length || gotR.Weight != wantR.Weight ||
			!slices.Equal(gotR.Nodes, wantR.Nodes) || !slices.Equal(gotR.Edges, wantR.Edges))) {
			t.Fatalf("round %d quota %d: cached solver (%v,%v) != fresh (%v,%v)",
				round, quota, gotR, gotOK, wantR, wantOK)
		}
	}
	// Rounds 1 and 2 reuse the first snapshot; rounds 4 and 5 reuse the
	// re-snapshot taken after the unrelated graph evicted it.
	if got := s.LamCacheReuses(); got != 4 {
		t.Fatalf("LamCacheReuses = %d, want 4", got)
	}
}

// TestGargSolverCancelledSolveNotCached guards the persistent cache against
// poisoning: a Solve cut short by cancellation returns no trees, and that
// empty answer must not be cached as "no tree at this λ" for later,
// uncancelled queries over the same graph.
func TestGargSolverCancelledSolveNotCached(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n, edges, weights := randomQuotaGraph(rng, 40)
	var total int64
	for _, w := range weights {
		total += w
	}
	quota := total / 2

	want := NewGargSolver()
	if err := want.Reset(n, edges, weights); err != nil {
		t.Fatal(err)
	}
	wantR, wantOK := treeOK(t, want, quota)
	if !wantOK {
		t.Skip("quota infeasible for this seed")
	}

	s := NewGargSolver()
	if err := s.Reset(n, edges, weights); err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	stop() // cancelled before the solve starts: every Solve returns no trees
	var chk cancel.Check
	chk.Reset(ctx)
	s.SetCancel(&chk)
	if _, ok, err := s.Tree(quota); err != nil || ok {
		t.Fatalf("cancelled Tree = (ok=%v, err=%v), want (false, nil)", ok, err)
	}
	// Same graph again: the λ-cache survives the Reset. It must not carry
	// entries from the cancelled run.
	if err := s.Reset(n, edges, weights); err != nil {
		t.Fatal(err)
	}
	if s.LamCacheReuses() != 1 {
		t.Fatalf("expected the reset to keep the cache (reuses=%d)", s.LamCacheReuses())
	}
	gotR, gotOK := treeOK(t, s, quota)
	if !gotOK || gotR.Length != wantR.Length || gotR.Weight != wantR.Weight ||
		!slices.Equal(gotR.Nodes, wantR.Nodes) || !slices.Equal(gotR.Edges, wantR.Edges) {
		t.Fatalf("post-cancel solver (%v,%v) != fresh (%v,%v)", gotR, gotOK, wantR, wantOK)
	}
}
