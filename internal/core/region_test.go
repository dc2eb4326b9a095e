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

// TestTupleArrayDominance checks Definition 5/6 semantics: update keeps,
// per scaled weight, exactly the minimum-length region seen.
func TestTupleArrayDominance(t *testing.T) {
	s := NewSolveScratch()
	s.begin(context.Background())
	s.ensureArrays(1)
	region := func(scaled int64, length float64) *poolRegion {
		r := s.pool.newRegion()
		r.Region = Region{Scaled: scaled, Length: length}
		return r
	}
	a, b, c, d := region(5, 10), region(5, 7), region(5, 9), region(3, 100)
	if !s.update(0, a) {
		t.Error("first insert must report change")
	}
	if !s.update(0, b) {
		t.Error("shorter region must replace")
	}
	if s.update(0, c) {
		t.Error("longer region must not replace")
	}
	if !s.update(0, d) {
		t.Error("new weight must insert")
	}
	if ta := s.arrays[0]; len(ta) != 2 || ta[0].r != d || ta[1].r != b {
		t.Error("array contents wrong")
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
