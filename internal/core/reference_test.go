package core

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// referenceTGEN is Algorithm 2 written naively, as the oracle for the
// pooled kernel: per node a map from scaled weight to the shortest region
// seen, walked in ascending key order; every feasible disjoint pair of an
// edge's endpoint maps is built and offered, with no keep-check, no direct
// index and no arena. It shares nothing with SolveTGEN but ScaleInto and the
// instance's adjacency. The answer's nodes are sorted, as SolveTGEN's are.
func referenceTGEN(in *Instance, delta float64, opts TGENOptions) *Region {
	opts = opts.withDefaults(in.NumNodes)
	var sc Scaling
	if ScaleInto(in, opts.Alpha, &sc) != nil {
		return nil
	}
	n := in.NumNodes
	arrays := make([]map[int64]*Region, n) // nil once dropped
	var best *Region
	offer := func(r *Region) {
		if best == nil || r.Score > best.Score || (r.Score == best.Score && r.Length < best.Length) {
			best = r
		}
	}
	store := func(v int32, r *Region) {
		if arrays[v] == nil {
			return
		}
		if cur, ok := arrays[v][r.Scaled]; !ok || r.Length < cur.Length {
			arrays[v][r.Scaled] = r
		}
	}
	// pairs builds every feasible pair of vi's regions (outer) with vj's
	// (inner) through edge ei that shares no node.
	pairs := func(vi, vj, ei int32) []*Region {
		e := in.Edges[ei]
		var out []*Region
		for _, k1 := range sortedKeys(arrays[vi]) {
			t1 := arrays[vi][k1]
			for _, k2 := range sortedKeys(arrays[vj]) {
				t2 := arrays[vj][k2]
				length := t1.Length + t2.Length + e.Length
				if length > delta || !disjointSets(t1.Nodes, t2.Nodes) {
					continue
				}
				out = append(out, &Region{
					Length: length,
					Score:  t1.Score + t2.Score,
					Scaled: t1.Scaled + t2.Scaled,
					Nodes:  append(slices.Clip(t1.Nodes), t2.Nodes...),
					Edges:  append(append(slices.Clip(t1.Edges), t2.Edges...), ei),
				})
			}
		}
		return out
	}
	install := func(out []*Region) {
		for _, r := range out {
			offer(r)
			for _, v := range r.Nodes {
				store(v, r)
			}
		}
	}

	for v := 0; v < n; v++ {
		arrays[v] = map[int64]*Region{}
		sg := &Region{Score: in.Weights[v], Scaled: sc.Scaled[v], Nodes: []int32{int32(v)}}
		store(int32(v), sg)
		offer(sg)
	}
	if opts.Order == OrderAscLength {
		order := make([]int32, len(in.Edges))
		remaining := make([]int, n)
		for i, e := range in.Edges {
			order[i] = int32(i)
			remaining[e.U]++
			remaining[e.V]++
		}
		slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(in.Edges[a].Length, in.Edges[b].Length) })
		finish := func(v int32) {
			if remaining[v]--; remaining[v] == 0 {
				arrays[v] = nil
			}
		}
		for _, ei := range order {
			e := in.Edges[ei]
			var out []*Region
			if e.Length <= delta {
				out = pairs(e.U, e.V, ei)
			}
			finish(e.U)
			finish(e.V)
			install(out)
		}
	} else {
		enqueued := make([]bool, n)
		edgeDone := make([]bool, len(in.Edges))
		for v0 := 0; v0 < n; v0++ {
			if arrays[v0] == nil || enqueued[v0] {
				continue
			}
			enqueued[v0] = true
			for queue := []int32{int32(v0)}; len(queue) > 0; queue = queue[1:] {
				vi := queue[0]
				for _, he := range in.Neighbors(vi) {
					if edgeDone[he.Edge] {
						continue
					}
					edgeDone[he.Edge] = true
					if in.Edges[he.Edge].Length > delta {
						continue
					}
					if !enqueued[he.To] {
						enqueued[he.To] = true
						queue = append(queue, he.To)
					}
					install(pairs(vi, he.To, he.Edge))
				}
				arrays[vi] = nil
			}
		}
	}
	if best == nil {
		return nil
	}
	answer := *best
	answer.Nodes = slices.Clone(best.Nodes)
	slices.Sort(answer.Nodes)
	return &answer
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys(m map[int64]*Region) []int64 {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// disjointSets reports whether two unsorted node lists share no node.
func disjointSets(a, b []int32) bool {
	for _, x := range a {
		if slices.Contains(b, x) {
			return false
		}
	}
	return true
}

// showRegion prints a region with its node and edge lists.
func showRegion(r *Region) string {
	if r == nil {
		return "nil"
	}
	return fmt.Sprintf("%v nodes %v edges %v", r, r.Nodes, r.Edges)
}

// FuzzTGENReference checks SolveTGEN bit-for-bit against referenceTGEN on
// random small graphs with cycles (and parallel edges), under both edge
// orders and three granularities: σ̂max ≈ 72 (wide keys), σ̂max ≈ 9 (the
// served default) and θ = 1. All six solves of an input run on one scratch,
// widest keys first, so a slot left stale by an earlier solve shows up as
// a wrong answer. integral draws integer weights and lengths, where equal
// lengths and scores are common and the strict tie rules of update and
// betterScore decide the answer.
func FuzzTGENReference(f *testing.F) {
	for seed := int64(1); seed <= 12; seed++ {
		f.Add(seed, uint8(7), true) // 10 nodes, ties common
	}
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(seed, uint8(seed+2), false) // 6–11 nodes
	}
	f.Fuzz(func(t *testing.T, seed int64, size uint8, integral bool) {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + int(size)%10
		draw := func(lo, span float64) float64 {
			if integral {
				return lo + float64(rng.Intn(int(span)+1))
			}
			return lo + rng.Float64()*span
		}
		var edges []Edge
		for i := 1; i < n; i++ {
			edges = append(edges, Edge{U: int32(rng.Intn(i)), V: int32(i), Length: draw(1, 3)})
		}
		for k := rng.Intn(n + 1); k > 0; k-- {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				edges = append(edges, Edge{U: int32(u), V: int32(v), Length: draw(1, 3)})
			}
		}
		weights := make([]float64, n)
		for i := range weights {
			if rng.Intn(4) > 0 {
				weights[i] = draw(0, 15)
			}
		}
		weights[rng.Intn(n)] = draw(1, 14) // σmax > 0
		in, err := NewInstance(n, edges, weights)
		if err != nil {
			t.Fatal(err)
		}
		delta := draw(0, 10)
		s := NewSolveScratch()
		for _, alpha := range []float64{float64(n) / 72, float64(n) / 9, float64(n) / slices.Max(weights)} {
			for _, order := range []EdgeOrder{OrderBFS, OrderAscLength} {
				opts := TGENOptions{Alpha: alpha, Order: order}
				got, err := SolveTGEN(context.Background(), s, in, delta, opts)
				want := referenceTGEN(in, delta, opts)
				if err != nil || !regionEq(got, want) {
					t.Fatalf("n=%d ∆=%v %+v: SolveTGEN %s (err %v), reference %s", n, delta, opts, showRegion(got), err, showRegion(want))
				}
			}
		}
	})
}
