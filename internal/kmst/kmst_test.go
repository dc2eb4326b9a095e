package kmst

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/container"
	"repro/internal/pcst"
)

// treeOK calls s.Tree and fails the test on a solver error (none of the
// deterministic test graphs should produce one).
func treeOK(t testing.TB, s Solver, quota int64) (Result, bool) {
	t.Helper()
	r, ok, err := s.Tree(quota)
	if err != nil {
		t.Fatalf("Tree(%d): %v", quota, err)
	}
	return r, ok
}

// graph is a quota-solver input kept by the tests for validation and the
// brute-force reference.
type graph struct {
	N       int
	Edges   []pcst.Edge
	Weights []int64
}

// garg and spt return fresh solvers pointed at g.
func (g *graph) garg(t testing.TB) *GargSolver {
	t.Helper()
	s := NewGargSolver()
	if err := s.Reset(g.N, g.Edges, g.Weights); err != nil {
		t.Fatal(err)
	}
	return s
}

func (g *graph) spt(t testing.TB, seeds int) *SPTSolver {
	t.Helper()
	s := NewSPTSolver(seeds)
	if err := s.Reset(g.N, g.Edges, g.Weights); err != nil {
		t.Fatal(err)
	}
	return s
}

// validate checks r is a connected tree of g with consistent stats.
func validate(t *testing.T, g *graph, r Result) {
	t.Helper()
	if len(r.Nodes) == 0 {
		t.Fatal("empty result")
	}
	if len(r.Edges) != len(r.Nodes)-1 {
		t.Fatalf("nodes=%d edges=%d: not a tree", len(r.Nodes), len(r.Edges))
	}
	in := map[int32]bool{}
	var weight int64
	for _, v := range r.Nodes {
		if in[v] {
			t.Fatal("duplicate node")
		}
		in[v] = true
		weight += g.Weights[v]
	}
	uf := container.NewUnionFind(g.N)
	var length float64
	for _, ei := range r.Edges {
		e := g.Edges[ei]
		if !in[e.U] || !in[e.V] {
			t.Fatal("edge endpoint outside node set")
		}
		if !uf.Union(int(e.U), int(e.V)) {
			t.Fatal("cycle in result")
		}
		length += e.Cost
	}
	if weight != r.Weight {
		t.Fatalf("Weight=%d recomputed %d", r.Weight, weight)
	}
	if math.Abs(length-r.Length) > 1e-9 {
		t.Fatalf("Length=%v recomputed %v", r.Length, length)
	}
}

// bruteQuota returns the minimum length of any connected subgraph (tree)
// with weight ≥ quota, or +Inf. Exponential; tiny graphs only.
func bruteQuota(g *graph, quota int64) float64 {
	best := math.Inf(1)
	for mask := 1; mask < 1<<g.N; mask++ {
		var w int64
		for v := 0; v < g.N; v++ {
			if mask&(1<<v) != 0 {
				w += g.Weights[v]
			}
		}
		if w < quota {
			continue
		}
		cost, connected := mstOfSubset(g, mask)
		if connected && cost < best {
			best = cost
		}
	}
	return best
}

func mstOfSubset(g *graph, mask int) (float64, bool) {
	count := 0
	for v := 0; v < g.N; v++ {
		if mask&(1<<v) != 0 {
			count++
		}
	}
	if count == 1 {
		return 0, true
	}
	type we struct {
		u, v int
		c    float64
	}
	var edges []we
	for _, e := range g.Edges {
		if mask&(1<<e.U) != 0 && mask&(1<<e.V) != 0 {
			edges = append(edges, we{int(e.U), int(e.V), e.Cost})
		}
	}
	for i := 1; i < len(edges); i++ {
		for j := i; j > 0 && edges[j].c < edges[j-1].c; j-- {
			edges[j], edges[j-1] = edges[j-1], edges[j]
		}
	}
	uf := container.NewUnionFind(g.N)
	var cost float64
	picked := 0
	for _, e := range edges {
		if uf.Union(e.u, e.v) {
			cost += e.c
			picked++
		}
	}
	return cost, picked == count-1
}

func mustNew(t *testing.T, n int, edges []pcst.Edge, weights []int64) *graph {
	t.Helper()
	return &graph{N: n, Edges: edges, Weights: weights}
}

func TestResetValidation(t *testing.T) {
	for name, reset := range map[string]func(int, []pcst.Edge, []int64) error{
		"garg": NewGargSolver().Reset,
		"spt":  NewSPTSolver(1).Reset,
	} {
		if err := reset(2, nil, []int64{1}); err == nil {
			t.Errorf("%s: weight count mismatch accepted", name)
		}
		if err := reset(1, nil, []int64{-5}); err == nil {
			t.Errorf("%s: negative weight accepted", name)
		}
		if err := reset(2, []pcst.Edge{{U: 0, V: 9, Cost: 1}}, []int64{1, 1}); err == nil {
			t.Errorf("%s: bad edge accepted", name)
		}
	}
}

func TestInfeasibleQuota(t *testing.T) {
	g := mustNew(t, 3, []pcst.Edge{{U: 0, V: 1, Cost: 1}}, []int64{2, 3, 4})
	// Components: {0,1} weight 5, {2} weight 4. Quota 6 unreachable.
	s := g.garg(t)
	if _, ok := treeOK(t, s, 6); ok {
		t.Error("infeasible quota reported feasible")
	}
	if r, ok := treeOK(t, s, 5); !ok || r.Weight < 5 {
		t.Errorf("quota 5 should be met by {0,1}, got %+v ok=%v", r, ok)
	}
}

func TestZeroQuota(t *testing.T) {
	g := mustNew(t, 3, nil, []int64{2, 9, 4})
	s := g.garg(t)
	r, ok := treeOK(t, s, 0)
	if !ok || r.Weight != 9 || len(r.Nodes) != 1 {
		t.Errorf("zero quota: %+v, ok=%v; want heaviest single node", r, ok)
	}
}

func TestGargMeetsQuotaAndNearOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	worstRatio := 1.0
	for trial := 0; trial < 80; trial++ {
		n := 4 + rng.Intn(6)
		var edges []pcst.Edge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.55 {
					edges = append(edges, pcst.Edge{U: int32(u), V: int32(v), Cost: 1 + rng.Float64()*4})
				}
			}
		}
		weights := make([]int64, n)
		var total int64
		for i := range weights {
			weights[i] = int64(rng.Intn(5))
			total += weights[i]
		}
		if total == 0 {
			continue
		}
		g := mustNew(t, n, edges, weights)
		s := g.garg(t)
		quota := 1 + int64(rng.Intn(int(total)))
		opt := bruteQuota(g, quota)
		r, ok := treeOK(t, s, quota)
		if math.IsInf(opt, 1) {
			if ok {
				// Feasibility is per component; brute force says no
				// connected subgraph meets the quota.
				t.Fatalf("trial %d: solver found tree but brute force says infeasible", trial)
			}
			continue
		}
		if !ok {
			t.Fatalf("trial %d: feasible quota %d not met (opt %v)", trial, quota, opt)
		}
		validate(t, g, r)
		if r.Weight < quota {
			t.Fatalf("trial %d: weight %d < quota %d", trial, r.Weight, quota)
		}
		if opt > 0 {
			ratio := r.Length / opt
			if ratio > worstRatio {
				worstRatio = ratio
			}
			// Garg's bound is 3; with quota pruning the practical ratio
			// stays small. Allow 5 as the hard cap per the APP analysis.
			if ratio > 5+1e-9 {
				t.Fatalf("trial %d: length %v vs optimum %v (ratio %.2f)", trial, r.Length, opt, ratio)
			}
		} else if r.Length > 1e-9 {
			// Optimum is a single node; solver should also pay ~nothing
			// only if a single node carries the quota — pruning should
			// find it.
			t.Fatalf("trial %d: optimum is 0 but solver paid %v", trial, r.Length)
		}
	}
	t.Logf("worst observed length ratio vs optimum: %.3f", worstRatio)
}

func TestQuotaMonotonicity(t *testing.T) {
	// Increasing quotas should never *decrease* the achieved weight below
	// the quota, and the solver must stay feasible up to the total weight.
	rng := rand.New(rand.NewSource(5))
	const n = 30
	var edges []pcst.Edge
	for i := 1; i < n; i++ {
		parent := rng.Intn(i)
		edges = append(edges, pcst.Edge{U: int32(parent), V: int32(i), Cost: 0.5 + rng.Float64()})
	}
	weights := make([]int64, n)
	var total int64
	for i := range weights {
		weights[i] = int64(rng.Intn(4))
		total += weights[i]
	}
	g := mustNew(t, n, edges, weights)
	s := g.garg(t)
	for quota := int64(1); quota <= total; quota += 3 {
		r, ok := treeOK(t, s, quota)
		if !ok {
			t.Fatalf("quota %d infeasible on connected graph with total %d", quota, total)
		}
		validate(t, g, r)
		if r.Weight < quota {
			t.Fatalf("quota %d: weight %d", quota, r.Weight)
		}
	}
}

func TestQuotaPruneStripsUselessLeaves(t *testing.T) {
	// Path 0-1-2-3 with weights 5,0,5,0: quota 10 must drop the trailing
	// zero-weight leaf 3 (and never include it).
	g := mustNew(t, 4,
		[]pcst.Edge{{U: 0, V: 1, Cost: 1}, {U: 1, V: 2, Cost: 1}, {U: 2, V: 3, Cost: 1}},
		[]int64{5, 0, 5, 0})
	s := g.garg(t)
	r, ok := treeOK(t, s, 10)
	if !ok {
		t.Fatal("quota infeasible")
	}
	validate(t, g, r)
	for _, v := range r.Nodes {
		if v == 3 {
			t.Error("useless leaf 3 not pruned")
		}
	}
	if r.Length > 2+1e-9 {
		t.Errorf("length = %v, want 2 (path 0-1-2)", r.Length)
	}
}

func TestSPTSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n = 40
	var edges []pcst.Edge
	for i := 1; i < n; i++ {
		parent := rng.Intn(i)
		edges = append(edges, pcst.Edge{U: int32(parent), V: int32(i), Cost: 0.5 + rng.Float64()})
	}
	// A few extra edges to create cycles.
	for k := 0; k < 10; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			edges = append(edges, pcst.Edge{U: int32(u), V: int32(v), Cost: 0.5 + rng.Float64()})
		}
	}
	weights := make([]int64, n)
	var total int64
	for i := range weights {
		weights[i] = int64(rng.Intn(4))
		total += weights[i]
	}
	g := mustNew(t, n, edges, weights)
	s := g.spt(t, 4)
	for quota := int64(1); quota <= total; quota += 5 {
		r, ok := treeOK(t, s, quota)
		if !ok {
			t.Fatalf("SPT: quota %d infeasible (total %d)", quota, total)
		}
		validate(t, g, r)
		if r.Weight < quota {
			t.Fatalf("SPT: quota %d got weight %d", quota, r.Weight)
		}
	}
	if _, ok := treeOK(t, s, total+1); ok {
		t.Error("SPT met an impossible quota")
	}
}

func TestSPTEmptyGraph(t *testing.T) {
	g := mustNew(t, 0, nil, nil)
	if _, ok := treeOK(t, g.spt(t, 3), 1); ok {
		t.Error("empty graph met quota")
	}
	if _, ok := treeOK(t, g.garg(t), 0); ok {
		t.Error("empty graph met zero quota via Garg")
	}
}

func TestGargCacheReuse(t *testing.T) {
	// Two Tree calls with different quotas must share λ cache entries
	// (deterministic midpoints over the same interval).
	g := mustNew(t, 6,
		[]pcst.Edge{{U: 0, V: 1, Cost: 1}, {U: 1, V: 2, Cost: 1}, {U: 2, V: 3, Cost: 1},
			{U: 3, V: 4, Cost: 1}, {U: 4, V: 5, Cost: 1}},
		[]int64{1, 2, 3, 1, 2, 1})
	s := g.garg(t)
	if _, ok := treeOK(t, s, 3); !ok {
		t.Fatal("quota 3 infeasible")
	}
	size1 := len(s.cacheLam)
	if _, ok := treeOK(t, s, 6); !ok {
		t.Fatal("quota 6 infeasible")
	}
	size2 := len(s.cacheLam)
	if size2 >= size1*2 {
		t.Errorf("cache grew from %d to %d: no sharing between quota searches", size1, size2)
	}
}
