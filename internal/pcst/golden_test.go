package pcst

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/golden"
)

// TestGoldenSolver pins the GW solver to trees recorded in testdata/ from
// the original allocating implementation (the package-level Solve) before it
// was deleted: on many random graphs, a single Solver reused through Reset
// must reproduce them bit-for-bit — same order, same node and edge lists,
// same costs and prizes.
func TestGoldenSolver(t *testing.T) {
	s := NewSolver()
	var lines []string
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomPCSTGraph(rng, 5+rng.Intn(60))
		trees, err := s.Solve(g)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		lines = append(lines, fmt.Sprintf("seed=%d: trees=%d", seed, len(trees)))
		for i, tr := range trees {
			lines = append(lines, fmt.Sprintf("seed=%d tree=%d: cost=%s prize=%s nodes=%v edges=%v",
				seed, i, golden.Float(tr.Cost), golden.Float(tr.Prize), tr.Nodes, tr.Edges))
		}
		s.Reset() // trees from this round are dead; the next round reuses them
	}
	golden.Check(t, "solve.golden", lines)
}
