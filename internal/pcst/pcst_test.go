package pcst

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/container"
)

// bruteForcePCST computes the exact optimum of min c(T) + π(V\T) over all
// trees T of g (including single-node trees), by enumerating node subsets
// whose induced subgraph is connected and spanning them with a minimum
// spanning tree. Exponential; for tiny graphs only.
func bruteForcePCST(g *Graph) float64 {
	n := g.N
	var totalPrize float64
	for _, p := range g.Prizes {
		totalPrize += p
	}
	best := totalPrize // the empty tree pays all penalties
	for mask := 1; mask < 1<<n; mask++ {
		cost, connected := mstOfSubset(g, mask)
		if !connected {
			continue
		}
		penalty := 0.0
		for v := 0; v < n; v++ {
			if mask&(1<<v) == 0 {
				penalty += g.Prizes[v]
			}
		}
		if c := cost + penalty; c < best {
			best = c
		}
	}
	return best
}

// mstOfSubset returns the MST length of the subgraph induced by the mask
// and whether that subgraph is connected.
func mstOfSubset(g *Graph, mask int) (float64, bool) {
	var nodes []int
	for v := 0; v < g.N; v++ {
		if mask&(1<<v) != 0 {
			nodes = append(nodes, v)
		}
	}
	if len(nodes) == 1 {
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
	// Kruskal.
	uf := container.NewUnionFind(g.N)
	// Sort edges by cost (insertion sort; tiny inputs).
	for i := 1; i < len(edges); i++ {
		for j := i; j > 0 && edges[j].c < edges[j-1].c; j-- {
			edges[j], edges[j-1] = edges[j-1], edges[j]
		}
	}
	var cost float64
	picked := 0
	for _, e := range edges {
		if uf.Union(e.u, e.v) {
			cost += e.c
			picked++
		}
	}
	return cost, picked == len(nodes)-1
}

// pcstObjective evaluates c(T) + π(V\T) for a returned tree.
func pcstObjective(g *Graph, t Tree) float64 {
	inTree := make(map[int32]bool)
	for _, v := range t.Nodes {
		inTree[v] = true
	}
	obj := t.Cost
	for v := 0; v < g.N; v++ {
		if !inTree[int32(v)] {
			obj += g.Prizes[v]
		}
	}
	return obj
}

// validateTree checks the returned tree is a real tree of g with accurate
// Cost and Prize.
func validateTree(t *testing.T, g *Graph, tr Tree) {
	t.Helper()
	if len(tr.Edges) != len(tr.Nodes)-1 {
		t.Fatalf("tree has %d nodes and %d edges", len(tr.Nodes), len(tr.Edges))
	}
	inTree := make(map[int32]bool)
	for _, v := range tr.Nodes {
		if inTree[v] {
			t.Fatal("duplicate node in tree")
		}
		inTree[v] = true
	}
	uf := container.NewUnionFind(g.N)
	var cost float64
	for _, ei := range tr.Edges {
		e := g.Edges[ei]
		if !inTree[e.U] || !inTree[e.V] {
			t.Fatalf("tree edge %d touches non-tree node", ei)
		}
		if !uf.Union(int(e.U), int(e.V)) {
			t.Fatal("tree contains a cycle")
		}
		cost += e.Cost
	}
	if math.Abs(cost-tr.Cost) > 1e-9 {
		t.Fatalf("Cost = %v, recomputed %v", tr.Cost, cost)
	}
	var prize float64
	for _, v := range tr.Nodes {
		prize += g.Prizes[v]
	}
	if math.Abs(prize-tr.Prize) > 1e-9 {
		t.Fatalf("Prize = %v, recomputed %v", tr.Prize, prize)
	}
}

func TestValidateRejectsBadInput(t *testing.T) {
	bad := []*Graph{
		{N: 2, Prizes: []float64{1}},                                       // prize count
		{N: 1, Prizes: []float64{-1}},                                      // negative prize
		{N: 2, Prizes: []float64{1, 1}, Edges: []Edge{{0, 5, 1}}},          // endpoint range
		{N: 2, Prizes: []float64{1, 1}, Edges: []Edge{{0, 0, 1}}},          // self loop
		{N: 2, Prizes: []float64{1, 1}, Edges: []Edge{{0, 1, -2}}},         // negative cost
		{N: 2, Prizes: []float64{1, 1}, Edges: []Edge{{0, 1, math.NaN()}}}, // NaN cost
	}
	for i, g := range bad {
		if _, err := NewSolver().Solve(g); err == nil {
			t.Errorf("case %d: invalid graph accepted", i)
		}
	}
}

func TestSingleProfitableEdge(t *testing.T) {
	// Two high-prize nodes joined by a cheap edge: the tree must take both.
	g := &Graph{N: 2, Prizes: []float64{10, 10}, Edges: []Edge{{0, 1, 1}}}
	trees, err := NewSolver().Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) == 0 {
		t.Fatal("no trees returned")
	}
	best := trees[0]
	validateTree(t, g, best)
	if len(best.Nodes) != 2 {
		t.Errorf("best tree nodes = %v, want both", best.Nodes)
	}
}

func TestExpensiveEdgeSkipped(t *testing.T) {
	// The edge costs more than the second prize: stay single.
	g := &Graph{N: 2, Prizes: []float64{10, 1}, Edges: []Edge{{0, 1, 5}}}
	trees, err := NewSolver().Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) == 0 {
		t.Fatal("no trees")
	}
	best := trees[0]
	if len(best.Nodes) != 1 || best.Nodes[0] != 0 {
		t.Errorf("best = %+v, want the single node 0", best)
	}
}

func TestZeroPrizeSteinerNode(t *testing.T) {
	// A zero-prize middle node must be used as a Steiner point when it
	// connects two valuable nodes cheaply.
	g := &Graph{
		N:      3,
		Prizes: []float64{10, 0, 10},
		Edges:  []Edge{{0, 1, 1}, {1, 2, 1}},
	}
	trees, err := NewSolver().Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	best := trees[0]
	validateTree(t, g, best)
	if len(best.Nodes) != 3 {
		t.Errorf("expected Steiner node included, got nodes %v", best.Nodes)
	}
}

func TestApproximationGuaranteeRandom(t *testing.T) {
	// On random small graphs the GW objective must be within 2x of the
	// brute-force optimum (the classic GW bound), and never better than it.
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 120; trial++ {
		n := 3 + rng.Intn(7) // 3..9 nodes
		g := &Graph{N: n, Prizes: make([]float64, n)}
		for v := range g.Prizes {
			g.Prizes[v] = float64(rng.Intn(8)) // some zero prizes
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.5 {
					g.Edges = append(g.Edges, Edge{int32(u), int32(v), 1 + rng.Float64()*5})
				}
			}
		}
		opt := bruteForcePCST(g)
		trees, err := NewSolver().Solve(g)
		if err != nil {
			t.Fatal(err)
		}
		// The solver's best objective: min over returned trees, and the
		// empty tree as fallback.
		var totalPrize float64
		for _, p := range g.Prizes {
			totalPrize += p
		}
		got := totalPrize
		for _, tr := range trees {
			validateTree(t, g, tr)
			if obj := pcstObjective(g, tr); obj < got {
				got = obj
			}
		}
		if got < opt-1e-6 {
			t.Fatalf("trial %d: solver objective %v beats optimum %v (bug in one of them)", trial, got, opt)
		}
		if got > 2*opt+1e-6 {
			t.Fatalf("trial %d: solver objective %v exceeds 2x optimum %v", trial, got, opt)
		}
	}
}

func TestDisconnectedGraph(t *testing.T) {
	g := &Graph{
		N:      4,
		Prizes: []float64{5, 5, 7, 7},
		Edges:  []Edge{{0, 1, 1}, {2, 3, 1}},
	}
	trees, err := NewSolver().Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 2 {
		t.Fatalf("got %d trees, want one per component", len(trees))
	}
	// Sorted by net worth: component {2,3} first (14-1 > 10-1).
	if trees[0].Prize != 14 || trees[1].Prize != 10 {
		t.Errorf("prizes = %v, %v", trees[0].Prize, trees[1].Prize)
	}
}

func TestAllZeroPrizes(t *testing.T) {
	g := &Graph{N: 3, Prizes: []float64{0, 0, 0}, Edges: []Edge{{0, 1, 1}, {1, 2, 1}}}
	trees, err := NewSolver().Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trees {
		if len(tr.Nodes) > 1 || tr.Prize > 0 {
			t.Errorf("zero-prize graph should produce no meaningful tree, got %+v", tr)
		}
	}
}

func TestPathGraphMoats(t *testing.T) {
	// A path with uniform prizes and uniform edges: with prize 3 and edge
	// cost 2, neighbouring moats meet (each side grows 1 < 3), so the
	// whole path should merge into one tree.
	const n = 6
	g := &Graph{N: n, Prizes: make([]float64, n)}
	for i := range g.Prizes {
		g.Prizes[i] = 3
	}
	for i := 0; i < n-1; i++ {
		g.Edges = append(g.Edges, Edge{int32(i), int32(i + 1), 2})
	}
	trees, err := NewSolver().Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 1 {
		t.Fatalf("got %d trees, want 1", len(trees))
	}
	best := trees[0]
	validateTree(t, g, best)
	if len(best.Nodes) != n {
		t.Errorf("tree spans %d nodes, want %d", len(best.Nodes), n)
	}
}

func TestStrongPruneDropsLossyBranch(t *testing.T) {
	// Star: center valuable, one good spoke, one spoke whose edge costs
	// more than its prize. The lossy spoke must be pruned even though the
	// moats may have merged it.
	g := &Graph{
		N:      3,
		Prizes: []float64{10, 5, 1},
		Edges:  []Edge{{0, 1, 1}, {0, 2, 4}},
	}
	trees, err := NewSolver().Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	best := trees[0]
	for _, v := range best.Nodes {
		if v == 2 {
			t.Error("lossy branch survived strong pruning")
		}
	}
}

func TestLargeRandomTerminates(t *testing.T) {
	// Sanity/performance guard: a 2000-node grid-ish instance must solve
	// quickly and produce a valid tree.
	rng := rand.New(rand.NewSource(3))
	const side = 45
	n := side * side
	g := &Graph{N: n, Prizes: make([]float64, n)}
	for i := range g.Prizes {
		if rng.Float64() < 0.3 {
			g.Prizes[i] = rng.Float64() * 4
		}
	}
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			v := int32(y*side + x)
			if x+1 < side {
				g.Edges = append(g.Edges, Edge{v, v + 1, 0.5 + rng.Float64()})
			}
			if y+1 < side {
				g.Edges = append(g.Edges, Edge{v, v + int32(side), 0.5 + rng.Float64()})
			}
		}
	}
	trees, err := NewSolver().Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) == 0 {
		t.Fatal("no trees on a graph with many prizes")
	}
	for _, tr := range trees[:min(len(trees), 5)] {
		validateTree(t, g, tr)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestDormantEdgeReactivation(t *testing.T) {
	// Topology: a(prize 20) -1- b(0) -1- c(0) -1- d(prize 0.2).
	// d's tiny cluster dies almost immediately; the (c,d) edge goes
	// dormant once both sides are inactive. a's big moat must later eat
	// through b and c and still absorb d through the formerly dormant
	// edge — this exercises the dormant re-seeding path.
	g := &Graph{
		N:      4,
		Prizes: []float64{20, 0, 0, 0.2},
		Edges:  []Edge{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}},
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// The moat-growing forest (pre-pruning) must pick up edge (2,3): a's
	// cluster re-activates the dormant edge after eating through b and c.
	// (Strong pruning then correctly drops the d branch — its prize 0.2
	// does not pay for the 1.0 connection — so assert on the raw forest.)
	s := NewSolver()
	s.growForest(g)
	if len(s.forest) != 3 {
		t.Fatalf("forest edges = %v, want all 3 (dormant edge never re-seeded)", s.forest)
	}
	// And the final answer remains the optimal single node a.
	trees, err := NewSolver().Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	best := trees[0]
	validateTree(t, g, best)
	if len(best.Nodes) != 1 || best.Nodes[0] != 0 {
		t.Errorf("pruned tree = %v, want just node 0", best.Nodes)
	}

	// Two dormant edges of one cluster waking at the same instant:
	// a(20) -2- d(0.2), and d -1- e(0), d -1- f(0). d dies at 0.2, so at
	// t = 1 both of d's spokes go dormant on d's cluster. a reaches d at
	// 1.8; the merge wakes both spokes with the same slack, so both fire at
	// 2.6 and the tie is broken by the order the dormant edges were pushed.
	g2 := &Graph{
		N:      4,
		Prizes: []float64{20, 0.2, 0, 0},
		Edges:  []Edge{{0, 1, 2}, {1, 2, 1}, {1, 3, 1}},
	}
	s.growForest(g2)
	if len(s.forest) != 3 {
		t.Fatalf("forest edges = %v, want all 3 (a tied dormant edge was lost)", s.forest)
	}
	if s.dual[2] != s.dual[3] {
		t.Errorf("duals of e and f = %v, %v; want equal (they join at the same instant)", s.dual[2], s.dual[3])
	}
	checkMatchesRescan(t, s, NewSolver(), g2)
}

func TestSinglePrizeIsland(t *testing.T) {
	// One prized node with no edges at all.
	g := &Graph{N: 3, Prizes: []float64{0, 7, 0}}
	trees, err := NewSolver().Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 1 || trees[0].Prize != 7 || len(trees[0].Nodes) != 1 {
		t.Errorf("trees = %+v", trees)
	}
}
