package pcst

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/container"
)

// rescanGrowForest is the reference GW moat growing that growForest
// replaced: every edge that stops with both sides inactive joins one global
// dormant slice, and every merge that leaves an active cluster re-tests the
// whole slice. It runs on s's union–find, clusters, member lists and duals
// (s.forest and s.dual hold its answer afterwards) but on its own
// container.Heap, so it also pins the event queue's pop order.
func rescanGrowForest(s *Solver, g *Graph) {
	n := g.N
	s.uf.Reset(n)
	s.clusters = container.GrowTo(s.clusters, n)
	s.memberNext = container.GrowTo(s.memberNext, n)
	s.dual = container.GrowTo(s.dual, n)
	pq := container.NewHeap(func(a, b event) bool { return a.time < b.time })
	var dormant []int
	s.forest = s.forest[:0]

	activeCount := 0
	for v := 0; v < n; v++ {
		active := g.Prizes[v] > eps
		s.clusters[v] = solverCluster{active: active, potential: g.Prizes[v], head: int32(v), tail: int32(v)}
		s.memberNext[v] = -1
		s.dual[v] = 0
		if active {
			activeCount++
		}
	}
	for v := 0; v < n; v++ {
		if s.clusters[v].active {
			pq.Push(event{time: s.clusters[v].potential, kind: evDeath, id: int32(v)})
		}
	}
	for i := range g.Edges {
		if t, ok := s.edgeEventTime(g, i, 0); ok {
			pq.Push(event{time: t, kind: evEdge, id: int32(i)})
		} else {
			ru, rv := s.uf.Find(int(g.Edges[i].U)), s.uf.Find(int(g.Edges[i].V))
			if ru != rv {
				dormant = append(dormant, i)
			}
		}
	}

	for activeCount > 0 {
		ev, ok := pq.Pop()
		if !ok {
			break
		}
		id := int(ev.id)
		switch ev.kind {
		case evDeath:
			root := s.uf.Find(id)
			c := &s.clusters[root]
			if !c.active {
				continue
			}
			trueDeath := c.lastT + c.potential
			if trueDeath > ev.time+eps {
				pq.Push(event{time: trueDeath, kind: evDeath, id: int32(root)})
				continue
			}
			s.flush(root, ev.time)
			c.active = false
			activeCount--
		case evEdge:
			e := g.Edges[id]
			ru, rv := s.uf.Find(int(e.U)), s.uf.Find(int(e.V))
			if ru == rv {
				continue
			}
			t, ok := s.edgeEventTime(g, id, ev.time)
			if !ok {
				dormant = append(dormant, id)
				continue
			}
			if t > ev.time+eps {
				pq.Push(event{time: t, kind: evEdge, id: ev.id})
				continue
			}
			s.flush(ru, ev.time)
			s.flush(rv, ev.time)
			cu, cv := s.clusters[ru], s.clusters[rv]
			wasActiveU, wasActiveV := cu.active, cv.active
			s.uf.Union(ru, rv)
			root := s.uf.Find(ru)
			merged := solverCluster{
				active:    true,
				potential: math.Max(cu.potential, 0) + math.Max(cv.potential, 0),
				lastT:     ev.time,
				head:      cu.head,
				tail:      cv.tail,
			}
			s.memberNext[cu.tail] = cv.head
			s.clusters[root] = merged
			s.forest = append(s.forest, id)
			switch {
			case wasActiveU && wasActiveV:
				activeCount--
			case !wasActiveU && !wasActiveV:
				activeCount++
			}
			if merged.potential <= eps {
				s.clusters[root].active = false
				activeCount--
			} else {
				pq.Push(event{time: ev.time + merged.potential, kind: evDeath, id: int32(root)})
				still := dormant[:0]
				for _, ei := range dormant {
					if t2, ok := s.edgeEventTime(g, ei, ev.time); ok {
						pq.Push(event{time: t2, kind: evEdge, id: int32(ei)})
					} else if s.uf.Find(int(g.Edges[ei].U)) != s.uf.Find(int(g.Edges[ei].V)) {
						still = append(still, ei)
					}
				}
				dormant = still
			}
		}
	}
}

// sparseGraph builds a random graph in which only about one node in eight
// carries a prize, so most edges start with both sides inactive and many
// fall asleep again after waking. With ints set, costs and prizes are small
// integers, which makes tied event times common.
func sparseGraph(rng *rand.Rand, n int, ints bool) *Graph {
	val := func(lo, span float64, k int) float64 {
		if ints {
			return float64(1 + rng.Intn(k))
		}
		return lo + span*rng.Float64()
	}
	var edges []Edge
	for i := 1; i < n; i++ {
		if rng.Float64() < 0.1 {
			continue
		}
		edges = append(edges, Edge{U: int32(rng.Intn(i)), V: int32(i), Cost: val(0.25, 2, 3)})
	}
	for k := rng.Intn(2 * n); k > 0; k-- {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			edges = append(edges, Edge{U: int32(u), V: int32(v), Cost: val(0.25, 2, 3)})
		}
	}
	prizes := make([]float64, n)
	for i := range prizes {
		if rng.Float64() < 0.125 {
			prizes[i] = val(0, 4, 6)
		}
	}
	return &Graph{N: n, Edges: edges, Prizes: prizes}
}

// checkMatchesRescan runs growForest and rescanGrowForest on g and fails
// unless they pick the same forest edges in the same order and leave
// bit-equal duals on every node.
func checkMatchesRescan(t *testing.T, s, ref *Solver, g *Graph) {
	t.Helper()
	s.growForest(g)
	rescanGrowForest(ref, g)
	if !slices.Equal(s.forest, ref.forest) {
		t.Fatalf("forest %v, rescan reference %v\ngraph %+v", s.forest, ref.forest, g)
	}
	for v := 0; v < g.N; v++ {
		if math.Float64bits(s.dual[v]) != math.Float64bits(ref.dual[v]) {
			t.Fatalf("node %d: dual %v, rescan reference %v\ngraph %+v", v, s.dual[v], ref.dual[v], g)
		}
	}
}

// TestGrowForestMatchesRescan pins growForest's per-cluster wake-up to the
// global rescan it replaced on random graphs, half of them with tied event
// times.
func TestGrowForestMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s, ref := NewSolver(), NewSolver()
	for i := 0; i < 10000; i++ {
		g := sparseGraph(rng, 2+rng.Intn(60), i%2 == 1)
		checkMatchesRescan(t, s, ref, g)
	}
}

// FuzzGrowForest makes TestGrowForestMatchesRescan's comparison on a graph
// decoded from the input: the first byte is the node count, the next bytes
// the prizes (b mod 8)/2, one per node, and every three bytes after them an
// edge (u, v, cost (c mod 8)/2). The halves keep tied event times common.
func FuzzGrowForest(f *testing.F) {
	f.Add([]byte{4, 20, 0, 0, 1, 0, 1, 1, 1, 2, 1, 2, 3, 1})
	f.Add([]byte{6, 9, 0, 0, 0, 0, 9, 0, 1, 2, 1, 2, 2, 2, 3, 2, 3, 4, 2, 4, 5, 2, 0, 5, 4})
	f.Add([]byte{5, 0, 7, 0, 7, 0, 0, 1, 1, 1, 2, 1, 2, 3, 1, 3, 4, 1, 4, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])%64
		data = data[1:]
		g := &Graph{N: n, Prizes: make([]float64, n)}
		for v := 0; v < n && len(data) > 0; v++ {
			g.Prizes[v] = float64(data[0]%8) / 2
			data = data[1:]
		}
		for ; len(data) >= 3; data = data[3:] {
			u, v := int32(int(data[0])%n), int32(int(data[1])%n)
			if u != v {
				g.Edges = append(g.Edges, Edge{U: u, V: v, Cost: float64(data[2]%8) / 2})
			}
		}
		checkMatchesRescan(t, NewSolver(), NewSolver(), g)
	})
}
