package container

// MaxAddSegTree is a segment tree over n leaves supporting range addition
// and whole-tree maximum queries, with lazy propagation folded into the
// classic "max of children + pending add" formulation. It is the core of
// the MaxRS sweep-line baseline (Choi et al., PVLDB'12): each horizontal
// slab is a leaf, inserting/removing a point adds ±w to a contiguous range
// of slabs, and the best rectangle position at any sweep x is the tree max.
type MaxAddSegTree struct {
	n   int
	max []float64 // max over the subtree, including this node's pending add
	add []float64 // pending addition applying to the whole subtree
}

// NewMaxAddSegTree returns a tree over leaves 0..n-1, all zero.
func NewMaxAddSegTree(n int) *MaxAddSegTree {
	if n < 1 {
		n = 1
	}
	return &MaxAddSegTree{
		n:   n,
		max: make([]float64, 4*n),
		add: make([]float64, 4*n),
	}
}

// Add adds v to every leaf in [lo, hi] (inclusive, clamped to the domain).
func (t *MaxAddSegTree) Add(lo, hi int, v float64) {
	if lo < 0 {
		lo = 0
	}
	if hi >= t.n {
		hi = t.n - 1
	}
	if lo > hi {
		return
	}
	t.update(1, 0, t.n-1, lo, hi, v)
}

// Max returns the maximum leaf value.
func (t *MaxAddSegTree) Max() float64 { return t.max[1] }

// MaxIndex returns a leaf index attaining the maximum value.
func (t *MaxAddSegTree) MaxIndex() int {
	node, lo, hi := 1, 0, t.n-1
	var pending float64
	for lo < hi {
		pending += t.add[node]
		mid := (lo + hi) / 2
		l, r := 2*node, 2*node+1
		if t.max[l]+pending >= t.max[r]+pending {
			node, hi = l, mid
		} else {
			node, lo = r, mid+1
		}
	}
	return lo
}

func (t *MaxAddSegTree) update(node, lo, hi, qlo, qhi int, v float64) {
	if qlo <= lo && hi <= qhi {
		t.max[node] += v
		t.add[node] += v
		return
	}
	mid := (lo + hi) / 2
	if qlo <= mid {
		t.update(2*node, lo, mid, qlo, qhi, v)
	}
	if qhi > mid {
		t.update(2*node+1, mid+1, hi, qlo, qhi, v)
	}
	t.max[node] = t.add[node] + maxf(t.max[2*node], t.max[2*node+1])
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
