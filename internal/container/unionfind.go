package container

// UnionFind is a disjoint-set forest with union by rank and path compression.
type UnionFind struct {
	parent []int32
	rank   []int8
}

// NewUnionFind returns a forest of n singleton sets labelled 0..n-1.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{}
	uf.Reset(n)
	return uf
}

// Reset re-initializes the forest to n singleton sets in place, reusing the
// backing arrays once they have grown to the workload's high-water mark
// (zero value usable: Reset on a zero UnionFind behaves like NewUnionFind).
func (uf *UnionFind) Reset(n int) {
	if cap(uf.parent) < n {
		uf.parent = make([]int32, n)
		uf.rank = make([]int8, n)
	}
	uf.parent = uf.parent[:n]
	uf.rank = uf.rank[:n]
	for i := range uf.parent {
		uf.parent[i] = int32(i)
		uf.rank[i] = 0
	}
}

// Find returns the canonical representative of x's set.
func (uf *UnionFind) Find(x int) int {
	root := int32(x)
	for uf.parent[root] != root {
		root = uf.parent[root]
	}
	// Path compression.
	for int32(x) != root {
		next := uf.parent[x]
		uf.parent[x] = root
		x = int(next)
	}
	return int(root)
}

// Union merges the sets containing x and y and reports whether they were
// previously distinct.
func (uf *UnionFind) Union(x, y int) bool {
	rx, ry := uf.Find(x), uf.Find(y)
	if rx == ry {
		return false
	}
	if uf.rank[rx] < uf.rank[ry] {
		rx, ry = ry, rx
	}
	uf.parent[ry] = int32(rx)
	if uf.rank[rx] == uf.rank[ry] {
		uf.rank[rx]++
	}
	return true
}
