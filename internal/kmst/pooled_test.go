package kmst

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/pcst"
)

// randomQuotaGraph builds a random graph with integer node weights in the
// small-σ̂ regime APP's scaling produces.
func randomQuotaGraph(rng *rand.Rand, n int) (int, []pcst.Edge, []int64) {
	var edges []pcst.Edge
	for i := 1; i < n; i++ {
		if rng.Float64() < 0.1 {
			continue // split some components
		}
		edges = append(edges, pcst.Edge{U: int32(rng.Intn(i)), V: int32(i), Cost: 0.25 + 2*rng.Float64()})
	}
	for k := rng.Intn(n); k > 0; k-- {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			edges = append(edges, pcst.Edge{U: int32(u), V: int32(v), Cost: 0.25 + 2*rng.Float64()})
		}
	}
	weights := make([]int64, n)
	for i := range weights {
		weights[i] = int64(rng.Intn(8))
	}
	weights[rng.Intn(n)] = 5 + int64(rng.Intn(5))
	return n, edges, weights
}

// TestPooledResultsSurviveLaterTrees pins the ownership contract APP's
// binary search depends on: a Result from one Tree call keeps its content
// while later Tree calls run, until the solver is Reset.
func TestPooledResultsSurviveLaterTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n, edges, weights := randomQuotaGraph(rng, 30)
	garg := NewGargSolver()
	if err := garg.Reset(n, edges, weights); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, w := range weights {
		total += w
	}
	first, ok := treeOK(t, garg, total/2)
	if !ok {
		t.Skip("quota infeasible for this seed")
	}
	snap := Result{
		Nodes:  append([]int32(nil), first.Nodes...),
		Edges:  append([]int(nil), first.Edges...),
		Length: first.Length,
		Weight: first.Weight,
	}
	for q := int64(1); q <= total; q += total/8 + 1 {
		treeOK(t, garg, q)
	}
	if !reflect.DeepEqual(first, snap) {
		t.Fatalf("result mutated by later Tree calls:\n got %+v\nwant %+v", first, snap)
	}
}
