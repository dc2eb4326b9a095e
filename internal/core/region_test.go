package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// scaledScratch returns a scratch mid-query on in: begun, with in scaled.
func scaledScratch(in *Instance, alpha float64) (*SolveScratch, error) {
	s := NewSolveScratch()
	s.begin(context.Background())
	return s, ScaleInto(in, alpha, &s.scaling)
}

// TestCombineAdditive checks the tuple-combination rule of §5: lengths,
// scores and scaled weights add (plus the connecting edge's length), node
// sets concatenate, and edge sets concatenate plus the connecting edge.
func TestCombineAdditive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(10)
		in := randomInstance(nil, rng, n)
		s, err := scaledScratch(in, 0.3)
		if err != nil {
			return true // all-zero instance; nothing to combine
		}
		// Two disjoint singletons joined by the edge between them.
		for idx, e := range in.Edges {
			r1 := s.singleton(in, e.U)
			r2 := s.singleton(in, e.V)
			out := s.combine(in, r1, r2, int32(idx))
			if out.Length != r1.Length+r2.Length+e.Length {
				return false
			}
			if out.Score != r1.Score+r2.Score || out.Scaled != r1.Scaled+r2.Scaled {
				return false
			}
			if !slices.Equal(out.Nodes, []int32{e.U, e.V}) || !slices.Equal(out.Edges, []int32{int32(idx)}) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestTupleArrayDominance checks Definition 5/6 semantics on both tuple
// array layouts: per scaled weight an array keeps exactly the minimum-length
// region seen, and an equal-length region does not replace the stored one.
// TGEN's direct-indexed array also grows past its width on demand, reads
// its unfilled keys as holes, and never shows a slot left in its capacity
// by an earlier query.
func TestTupleArrayDominance(t *testing.T) {
	s := NewSolveScratch()
	s.begin(context.Background())
	region := func(scaled int64, length float64) *poolRegion {
		r := s.pool.newRegion()
		r.Region = Region{Scaled: scaled, Length: length}
		return r
	}
	type step struct {
		r       *poolRegion
		changes bool
		what    string
	}
	steps := func() (b, d, e *poolRegion, seq []step) {
		a, b, d, e := region(5, 10), region(5, 7), region(3, 100), region(9, 1)
		return b, d, e, []step{
			{a, true, "first insert"},
			{b, true, "shorter region replaces"},
			{region(5, 7), false, "equal-length region keeps the stored one"},
			{region(5, 9), false, "longer region does not replace"},
			{d, true, "new weight below fills a hole"},
			{e, true, "new weight past the width grows the array"},
		}
	}

	b, d, e, seq := steps()
	s.arrays = resetArrays(s.arrays, 1)
	for _, st := range seq {
		s.update(0, st.r)
		if got := s.arrays[0][st.r.Scaled].r == st.r; got != st.changes {
			t.Errorf("direct: %s: stored %v", st.what, got)
		}
	}
	want := map[int]*poolRegion{3: d, 5: b, 9: e}
	ta := s.arrays[0]
	if len(ta) != 10 {
		t.Fatalf("direct: width %d, want 10 (largest key + 1)", len(ta))
	}
	for k := range ta {
		if ta[k].r != want[k] {
			t.Errorf("direct: slot %d holds %v, want %v", k, ta[k].r, want[k])
		} else if ta[k].r != nil && ta[k].length != ta[k].r.Length {
			t.Errorf("direct: slot %d length %v, region's %v", k, ta[k].length, ta[k].r.Length)
		}
	}
	// A new query reuses the capacity without dropping the array (as after
	// a cancelled solve): regrowing within it must expose holes, not the
	// regions the last query stored at keys 3 and 5.
	s.begin(context.Background())
	s.arrays = resetArrays(s.arrays, 1)
	f := region(7, 2)
	s.update(0, f)
	for k, slot := range s.arrays[0] {
		if k == 7 && slot.r != f || k != 7 && slot.r != nil {
			t.Errorf("direct: after reuse slot %d holds %v", k, slot.r)
		}
	}
	s.dropArray(0)
	if len(s.arrays[0]) != 0 || f.refs != 0 {
		t.Errorf("direct: dropArray left width %d, refs %d", len(s.arrays[0]), f.refs)
	}

	b, d, e, seq = steps()
	s.treeArrays = resetArrays(s.treeArrays, 1)
	for _, st := range seq {
		if got := s.updateTree(0, st.r); got != st.changes {
			t.Errorf("sorted: %s: updateTree reported %v", st.what, got)
		}
	}
	if tt := s.treeArrays[0]; len(tt) != 3 || tt[0].r != d || tt[1].r != b || tt[2].r != e {
		t.Errorf("sorted: contents %+v, want keys 3, 5, 9", tt)
	}
}

// TestMarksCycleTest: the Lemma 9 cycle test — marks of one node set probed
// with another — must be symmetric and agree with a naive set intersection.
func TestMarksCycleTest(t *testing.T) {
	var marks stampSet
	f := func(aRaw, bRaw []uint8) bool {
		var a, b []int32
		for _, x := range aRaw {
			a = append(a, int32(x))
		}
		for _, x := range bRaw {
			b = append(b, int32(x))
		}
		naive := false
		set := map[int32]bool{}
		for _, x := range a {
			set[x] = true
		}
		for _, x := range b {
			if set[x] {
				naive = true
			}
		}
		shares := func(x, y []int32) bool {
			marks.begin(256)
			for _, v := range x {
				marks.add(v)
			}
			return marks.hasAny(y)
		}
		return shares(a, b) == naive && shares(b, a) == naive
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
