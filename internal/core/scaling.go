package core

import (
	"fmt"
	"math"
)

// Scaling is the node-weight scaling of §4.1: θ = α·σmax/|VQ| and
// σ̂v = ⌊σv/θ⌋. Theorem 2 guarantees that the best region under scaled
// weights has original weight at least (1−α) times the optimum.
type Scaling struct {
	Alpha  float64
	Theta  float64
	Scaled []int64 // σ̂v per node
	MaxHat int64   // σ̂max = max scaled weight
	SumHat int64   // Σ σ̂v, an upper bound on any region's scaled weight
}

// ScaleInto computes the scaled graph GS for an instance into sc. α must
// be positive; the paper uses α ∈ [0.01, 0.9] for APP and large values
// (50–1600) for TGEN, where coarse scaling collapses more tuples per
// weight value. An error is returned when the instance has no relevant
// node (σmax = 0), in which case no meaningful region exists. sc's Scaled
// slice is reused when large enough, so a pooled Scaling scales a new
// instance with zero steady-state allocations.
func ScaleInto(in *Instance, alpha float64, sc *Scaling) error {
	if alpha <= 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0) {
		return fmt.Errorf("core: scaling parameter α must be positive, got %v", alpha)
	}
	if in.NumNodes == 0 {
		return fmt.Errorf("core: cannot scale an empty instance")
	}
	sigmaMax, _ := in.MaxWeight()
	if sigmaMax <= 0 {
		return fmt.Errorf("core: no node is relevant to the query (σmax = 0)")
	}
	theta := alpha * sigmaMax / float64(in.NumNodes)
	sc.Alpha, sc.Theta = alpha, theta
	sc.MaxHat, sc.SumHat = 0, 0
	sc.Scaled = growTo(sc.Scaled, in.NumNodes)
	for v, w := range in.Weights {
		hat := int64(math.Floor(w / theta))
		sc.Scaled[v] = hat
		if hat > sc.MaxHat {
			sc.MaxHat = hat
		}
		sc.SumHat += hat
	}
	return nil
}
