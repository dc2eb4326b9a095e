package main

import (
	"fmt"
	"math"

	"repro"
)

// relTol is the relative tolerance of the Σ-object-scores check: the
// region weight is a sum over nodes of per-node sums, the check re-adds
// the same terms per object, so only the association order differs.
const relTol = 1e-9

// checkInvariants verifies what must hold for any answer to q, whatever
// solver produced it and whatever updates ran beside it: the region fits
// the length budget and every reported object lies inside Λ.
func checkInvariants(q repro.Query, r *repro.Result) error {
	if r == nil {
		return nil // no object in Λ matched: an empty answer is valid
	}
	if math.IsNaN(r.Score) || r.Score <= 0 {
		return fmt.Errorf("region score %v is not positive", r.Score)
	}
	if r.Length > q.Delta*(1+relTol) {
		return fmt.Errorf("region length %v exceeds ∆ = %v", r.Length, q.Delta)
	}
	for _, o := range r.Objects {
		if o.X < q.Region.MinX || o.X > q.Region.MaxX || o.Y < q.Region.MinY || o.Y > q.Region.MaxY {
			return fmt.Errorf("object %d at (%v, %v) lies outside Λ", o.ID, o.X, o.Y)
		}
	}
	return nil
}

// checkScoreSum verifies Result.Score = Σ Objects[i].Score under the
// default weighting. It holds only on a quiescent database: Score is fixed
// when the instance is built and the object scores are read again at
// materialization, so an update landing between the two changes one side.
func checkScoreSum(r *repro.Result) error {
	if r == nil {
		return nil
	}
	var sum float64
	for _, o := range r.Objects {
		sum += o.Score
	}
	if math.Abs(sum-r.Score) > relTol*math.Max(math.Abs(r.Score), 1) {
		return fmt.Errorf("region score %v differs from the sum of its object scores %v", r.Score, sum)
	}
	return nil
}

// sameResult reports whether two answers are bit-equal: same weight, same
// length, same nodes, edges and objects in the same order. nil and empty
// slices compare equal (JSON does not keep the difference).
func sameResult(a, b *repro.Result) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Score != b.Score || a.Length != b.Length ||
		len(a.Nodes) != len(b.Nodes) || len(a.Edges) != len(b.Edges) || len(a.Objects) != len(b.Objects) {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			return false
		}
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			return false
		}
	}
	for i := range a.Objects {
		if a.Objects[i] != b.Objects[i] {
			return false
		}
	}
	return true
}
