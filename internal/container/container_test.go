package container

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHeapOrdering(t *testing.T) {
	h := NewHeap[int](func(a, b int) bool { return a < b })
	in := []int{5, 1, 9, 3, 3, -2, 7}
	for _, v := range in {
		h.Push(v)
	}
	if len(h.items) != len(in) {
		t.Fatalf("len = %d, want %d", len(h.items), len(in))
	}
	want := append([]int(nil), in...)
	sort.Ints(want)
	for i, w := range want {
		got, ok := h.Pop()
		if !ok || got != w {
			t.Fatalf("pop %d = %d,%v want %d", i, got, ok, w)
		}
	}
	if _, ok := h.Pop(); ok {
		t.Error("pop on empty heap should report false")
	}
}

func TestHeapSortsArbitraryInput(t *testing.T) {
	f := func(in []int16) bool {
		h := NewHeap[int16](func(a, b int16) bool { return a < b })
		for _, v := range in {
			h.Push(v)
		}
		prev := int16(-32768)
		for len(h.items) > 0 {
			v, _ := h.Pop()
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// sets counts the disjoint sets of uf by their roots.
func sets(uf *UnionFind) int {
	n := 0
	for i := range uf.parent {
		if uf.Find(i) == i {
			n++
		}
	}
	return n
}

func TestUnionFindBasic(t *testing.T) {
	uf := NewUnionFind(6)
	if n := sets(uf); n != 6 {
		t.Fatalf("initial count = %d", n)
	}
	if !uf.Union(0, 1) || !uf.Union(2, 3) || !uf.Union(1, 2) {
		t.Fatal("fresh unions must report true")
	}
	if uf.Union(0, 3) {
		t.Error("union of already-joined sets must report false")
	}
	if n := sets(uf); n != 3 {
		t.Errorf("count = %d, want 3", n)
	}
	if uf.Find(0) != uf.Find(3) || uf.Find(0) == uf.Find(4) {
		t.Error("connectivity wrong")
	}
}

func TestUnionFindMatchesNaive(t *testing.T) {
	const n = 40
	rng := rand.New(rand.NewSource(1))
	uf := NewUnionFind(n)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i
	}
	relabel := func(from, to int) {
		for i := range labels {
			if labels[i] == from {
				labels[i] = to
			}
		}
	}
	for step := 0; step < 500; step++ {
		a, b := rng.Intn(n), rng.Intn(n)
		wantFresh := labels[a] != labels[b]
		if got := uf.Union(a, b); got != wantFresh {
			t.Fatalf("step %d: Union(%d,%d) = %v, want %v", step, a, b, got, wantFresh)
		}
		if wantFresh {
			relabel(labels[b], labels[a])
		}
		c, d := rng.Intn(n), rng.Intn(n)
		if (uf.Find(c) == uf.Find(d)) != (labels[c] == labels[d]) {
			t.Fatalf("step %d: Find(%d) == Find(%d) mismatch", step, c, d)
		}
	}
}

func TestSegTreeBasic(t *testing.T) {
	st := NewMaxAddSegTree(8)
	if st.Max() != 0 {
		t.Fatal("empty tree max should be 0")
	}
	st.Add(0, 3, 5)
	st.Add(2, 5, 4)
	if st.Max() != 9 {
		t.Errorf("max = %v, want 9", st.Max())
	}
	if idx := st.MaxIndex(); idx != 2 && idx != 3 {
		t.Errorf("MaxIndex = %d, want 2 or 3", idx)
	}
	st.Add(2, 3, -100)
	if st.Max() != 5 {
		t.Errorf("max after removal = %v, want 5", st.Max())
	}
}

func TestSegTreeClamping(t *testing.T) {
	st := NewMaxAddSegTree(4)
	st.Add(-10, 100, 2) // clamps to full range
	if st.Max() != 2 {
		t.Errorf("max = %v, want 2", st.Max())
	}
	st.Add(3, 1, 50) // empty range after clamp: no-op
	if st.Max() != 2 {
		t.Errorf("max = %v, want 2 after empty-range add", st.Max())
	}
}

func TestSegTreeMatchesNaive(t *testing.T) {
	const n = 32
	rng := rand.New(rand.NewSource(7))
	st := NewMaxAddSegTree(n)
	naive := make([]float64, n)
	for step := 0; step < 1000; step++ {
		lo, hi := rng.Intn(n), rng.Intn(n)
		if lo > hi {
			lo, hi = hi, lo
		}
		v := float64(rng.Intn(21) - 10)
		st.Add(lo, hi, v)
		for i := lo; i <= hi; i++ {
			naive[i] += v
		}
		want, argmax := naive[0], 0
		for i, x := range naive {
			if x > want {
				want, argmax = x, i
			}
		}
		if st.Max() != want {
			t.Fatalf("step %d: Max = %v, want %v", step, st.Max(), want)
		}
		if idx := st.MaxIndex(); naive[idx] != want {
			t.Fatalf("step %d: MaxIndex = %d (val %v), want argmax %d (val %v)",
				step, idx, naive[idx], argmax, want)
		}
	}
}

func TestSegTreeSizeOne(t *testing.T) {
	st := NewMaxAddSegTree(0) // clamps to 1 leaf
	st.Add(0, 0, 3)
	if st.Max() != 3 || st.MaxIndex() != 0 {
		t.Errorf("Max=%v MaxIndex=%d", st.Max(), st.MaxIndex())
	}
}
