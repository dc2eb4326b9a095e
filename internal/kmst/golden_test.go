package kmst

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/golden"
)

// TestGoldenQuotaSolvers pins the quota solvers to Results recorded in
// testdata/ from the original allocating implementations (NewGarg/NewSPT)
// before they were deleted: on random graphs across a sweep of quotas, one
// GargSolver/SPTSolver reused through Reset must reproduce them bit-for-bit.
func TestGoldenQuotaSolvers(t *testing.T) {
	garg := NewGargSolver()
	spt := NewSPTSolver(8)
	var lines []string
	record := func(key string, s Solver, quota int64) {
		r, ok := treeOK(t, s, quota)
		line := fmt.Sprintf("%s quota=%d: ok=%v", key, quota, ok)
		if ok {
			line += fmt.Sprintf(" len=%s weight=%d nodes=%v edges=%v", golden.Float(r.Length), r.Weight, r.Nodes, r.Edges)
		}
		lines = append(lines, line)
	}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, edges, weights := randomQuotaGraph(rng, 5+rng.Intn(40))
		if err := garg.Reset(n, edges, weights); err != nil {
			t.Fatalf("seed %d: garg reset: %v", seed, err)
		}
		if err := spt.Reset(n, edges, weights); err != nil {
			t.Fatalf("seed %d: spt reset: %v", seed, err)
		}
		var total int64
		for _, w := range weights {
			total += w
		}
		for _, quota := range []int64{0, 1, 2, total / 4, total / 2, total, total + 1} {
			record(fmt.Sprintf("seed=%d garg", seed), garg, quota)
			record(fmt.Sprintf("seed=%d spt", seed), spt, quota)
		}
	}
	golden.Check(t, "quota.golden", lines)
}
