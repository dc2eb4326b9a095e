package pcst

import (
	"math"
	"slices"

	"repro/internal/cancel"
	"repro/internal/container"
)

// Solver runs GW moat growing and strong pruning. Every piece of per-run
// working state — cluster member lists, the event queue, union–find
// forests, the per-component pruning scratch, and the storage behind the
// returned trees — lives in the Solver and is reused across runs, so a warm
// Solver performs zero steady-state allocations.
//
// Ownership: the trees returned by Solve (their Nodes and Edges slices)
// alias the Solver's internal arenas and stay valid across subsequent
// Solve calls until Reset is called; Reset reclaims them all at once. One
// Solver serves one goroutine; pool one per worker.
type Solver struct {
	// chk, when non-nil, is polled in the GW event loop; once it fires,
	// Solve returns early with a nil tree slice, which callers abandoning
	// the query treat as "no result".
	chk *cancel.Check

	// Moat-growing state (growForest).
	uf         container.UnionFind
	clusters   []solverCluster
	memberNext []int32 // intrusive singly-linked cluster member lists
	dual       []float64
	pq         eventQueue
	forest     []int

	// Dormancy index (growForest). An edge whose sides are both inactive
	// waits, stamped dormSeq[e] = its episode number (0: not waiting), in
	// the entry lists of both endpoint clusters.
	dormSeq  []uint32
	dormEnts []dormEntry
	episodes uint32

	// Component grouping (groupComponents).
	ufc          container.UnionFind
	compIdx      []int32 // per root node: component index, -1 unset
	compNodeOffs []int32
	compNodes    []int32
	compEdgeOffs []int32
	compEdges    []int
	cursor       []int32
	numComps     int

	// Strong-pruning scratch, local (per-component) indices.
	pos      []int32 // graph node -> local component index
	adjOffs  []int32
	adjTo    []int32
	adjEdge  []int
	keepHe   []bool // per local halfedge: kept by pruning
	visited  []bool
	net      []float64
	stack    []pruneFrame
	order    []pruneFrame
	collect  []collectFrame
	outNodes []int32
	outEdges []int

	// Arenas backing the returned trees; valid until Reset.
	treeArena container.Arena[Tree]
	i32Arena  container.Arena[int32]
	intArena  container.Arena[int]
}

// solverCluster is one moat: its members form an intrusive linked list
// (head/tail into Solver.memberNext), so cluster merges are O(1)
// concatenations. The dormancy entries of the edges waiting on it form a
// second list (dHead/dTail into Solver.dormEnts, -1 when empty).
type solverCluster struct {
	active       bool
	potential    float64 // remaining prize budget at time lastT
	lastT        float64
	head, tail   int32
	dHead, dTail int32
}

// dormEntry records that edge began dormancy episode seq while one of its
// endpoints was in the cluster whose list holds the entry. An entry whose
// seq no longer matches Solver.dormSeq[edge] is stale.
type dormEntry struct {
	edge int32
	seq  uint32
	next int32
}

type pruneFrame struct {
	v, parent int32
}

// NewSolver returns an empty solver.
func NewSolver() *Solver { return &Solver{} }

// SetCancel arms the solver with a cancellation checkpoint polled in the
// moat-growing event loop. A nil check disables the checkpoints.
func (s *Solver) SetCancel(chk *cancel.Check) { s.chk = chk }

// Reset reclaims the storage behind every tree returned since the last
// Reset. Those trees become invalid; the solver keeps its capacity.
func (s *Solver) Reset() {
	s.treeArena.Reset()
	s.i32Arena.Reset()
	s.intArena.Reset()
}

// Solve runs GW moat growing followed by strong pruning and returns one
// pruned candidate tree per forest component (components whose pruned tree
// is a single node with zero prize are dropped), sorted by decreasing net
// worth. The returned trees alias the solver's arenas (see type docs).
func (s *Solver) Solve(g *Graph) ([]Tree, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	s.growForest(g)
	if s.chk.Cancelled() {
		// The forest is partial; skip pruning and hand back nothing. The
		// caller is abandoning the query, so "no trees" is never cached
		// beyond the current (cancelled) request.
		return nil, nil
	}
	s.groupComponents(g)
	out := s.treeArena.Alloc(s.numComps)
	kept := 0
	for c := 0; c < s.numComps; c++ {
		nodes := s.compNodes[s.compNodeOffs[c]:s.compNodeOffs[c+1]]
		edges := s.compEdges[s.compEdgeOffs[c]:s.compEdgeOffs[c+1]]
		t := s.strongPrune(g, nodes, edges)
		if len(t.Nodes) == 1 && t.Prize <= 0 {
			continue
		}
		out[kept] = t
		kept++
	}
	out = out[:kept]
	slices.SortFunc(out, func(a, b Tree) int {
		// The recorded goldens depend on this exact predicate under the
		// unstable pdqsort.
		switch {
		case a.NetWorth() > b.NetWorth():
			return -1
		case b.NetWorth() > a.NetWorth():
			return 1
		default:
			return 0
		}
	})
	return out, nil
}

// growForest runs the primal–dual moat growing, leaving the indices of the
// forest edges picked by merge events in s.forest.
func (s *Solver) growForest(g *Graph) {
	n := g.N
	s.uf.Reset(n)
	s.clusters = container.GrowTo(s.clusters, n)
	s.memberNext = container.GrowTo(s.memberNext, n)
	s.dual = container.GrowTo(s.dual, n)
	s.pq = s.pq[:0]
	s.forest = s.forest[:0]
	s.dormSeq = container.GrowTo(s.dormSeq, len(g.Edges))
	clear(s.dormSeq)
	s.dormEnts = s.dormEnts[:0]
	s.episodes = 0

	activeCount := 0
	for v := 0; v < n; v++ {
		active := g.Prizes[v] > eps
		s.clusters[v] = solverCluster{active: active, potential: g.Prizes[v], head: int32(v), tail: int32(v), dHead: -1, dTail: -1}
		s.memberNext[v] = -1
		s.dual[v] = 0
		if active {
			activeCount++
		}
	}
	for v := 0; v < n; v++ {
		if s.clusters[v].active {
			s.pq.push(event{time: s.clusters[v].potential, kind: evDeath, id: int32(v)})
		}
	}
	// Edges whose last event computation found both sides inactive enter
	// dormancy (sleep). They re-enter the queue when a merge creates an
	// active cluster containing one of their endpoints (wakeMerged).
	for i := range g.Edges {
		if t, ok := s.edgeEventTime(g, i, 0); ok {
			s.pq.push(event{time: t, kind: evEdge, id: int32(i)})
		} else {
			ru, rv := s.uf.Find(int(g.Edges[i].U)), s.uf.Find(int(g.Edges[i].V))
			if ru != rv {
				s.sleep(i, ru, rv)
			}
		}
	}

	for activeCount > 0 {
		if s.chk.Tick() {
			return // partial forest; Solve bails before pruning
		}
		ev, ok := s.pq.pop()
		if !ok {
			break
		}
		id := int(ev.id)
		switch ev.kind {
		case evDeath:
			root := s.uf.Find(id)
			c := &s.clusters[root]
			if !c.active {
				continue // stale
			}
			trueDeath := c.lastT + c.potential
			if trueDeath > ev.time+eps {
				s.pq.push(event{time: trueDeath, kind: evDeath, id: int32(root)})
				continue
			}
			s.flush(root, ev.time)
			c.active = false
			activeCount--
		case evEdge:
			e := g.Edges[id]
			ru, rv := s.uf.Find(int(e.U)), s.uf.Find(int(e.V))
			if ru == rv {
				continue // became internal
			}
			t, ok := s.edgeEventTime(g, id, ev.time)
			if !ok {
				s.sleep(id, ru, rv)
				continue
			}
			if t > ev.time+eps {
				s.pq.push(event{time: t, kind: evEdge, id: ev.id})
				continue
			}
			// Fire: flush both clusters to now and merge.
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
				dHead:     cu.dHead,
				dTail:     cu.dTail,
			}
			s.memberNext[cu.tail] = cv.head // O(1) list concatenation
			// An edge fires only with an active side, and an active cluster
			// holds no dormancy entries (wakeMerged), so at most one side
			// brings a list.
			if cu.dHead < 0 {
				merged.dHead, merged.dTail = cv.dHead, cv.dTail
			}
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
				s.pq.push(event{time: ev.time + merged.potential, kind: evDeath, id: int32(root)})
				s.wakeMerged(g, root, ev.time)
			}
		}
	}
}

// sleep starts a dormancy episode for edge ei, whose endpoint clusters ru
// and rv are both inactive: it stamps the edge and files one entry in each
// cluster's list.
func (s *Solver) sleep(ei, ru, rv int) {
	s.episodes++
	s.dormSeq[ei] = s.episodes
	s.fileEntry(ru, ei)
	s.fileEntry(rv, ei)
}

func (s *Solver) fileEntry(root, ei int) {
	k := int32(len(s.dormEnts))
	s.dormEnts = append(s.dormEnts, dormEntry{edge: int32(ei), seq: s.episodes, next: -1})
	c := &s.clusters[root]
	if c.dTail < 0 {
		c.dHead = k
	} else {
		s.dormEnts[c.dTail].next = k
	}
	c.dTail = k
}

// wakeMerged re-queues the waiting edges of the active cluster a merge just
// formed at root. Only these can wake: a waiting edge has both sides
// inactive, and a cluster turns active only by such a merge, so an edge with
// no endpoint in this cluster still has both sides inactive. Each live entry
// either wakes or is now internal, so the list empties, and an active
// cluster never holds entries: sleep files only into inactive clusters.
// Entries are appended in episode order and a merge never interleaves two
// lists, so the woken edges are pushed in ascending episode stamp — the
// order a single global list of waiting edges would hold them in.
func (s *Solver) wakeMerged(g *Graph, root int, now float64) {
	c := &s.clusters[root]
	for k := c.dHead; k >= 0; k = s.dormEnts[k].next {
		d := s.dormEnts[k]
		if s.dormSeq[d.edge] != d.seq {
			continue // stale: woken, or waiting again in a later episode
		}
		s.dormSeq[d.edge] = 0
		if t, ok := s.edgeEventTime(g, int(d.edge), now); ok {
			s.pq.push(event{time: t, kind: evEdge, id: d.edge})
		}
	}
	c.dHead, c.dTail = -1, -1
}

// flush advances the cluster rooted at root to time now, crediting the
// elapsed growth to each member's dual.
func (s *Solver) flush(root int, now float64) {
	c := &s.clusters[root]
	if c.active && now > c.lastT {
		dt := now - c.lastT
		for m := c.head; m >= 0; m = s.memberNext[m] {
			s.dual[m] += dt
		}
		c.potential -= dt
	}
	c.lastT = now
}

// edgeEventTime computes the next firing time of edge i given the state at
// time now. ok is false when the edge cannot currently fire (same cluster
// or both sides inactive).
func (s *Solver) edgeEventTime(g *Graph, i int, now float64) (float64, bool) {
	e := g.Edges[i]
	ru, rv := s.uf.Find(int(e.U)), s.uf.Find(int(e.V))
	if ru == rv {
		return 0, false
	}
	cu, cv := &s.clusters[ru], &s.clusters[rv]
	dU := s.dual[e.U]
	if cu.active {
		dU += now - cu.lastT
	}
	dV := s.dual[e.V]
	if cv.active {
		dV += now - cv.lastT
	}
	rate := 0.0
	if cu.active {
		rate++
	}
	if cv.active {
		rate++
	}
	if rate == 0 {
		return 0, false
	}
	slack := e.Cost - dU - dV
	if slack < 0 {
		slack = 0
	}
	return now + slack/rate, true
}

// groupComponents groups the forest edges into connected components in CSR
// storage: components are numbered by their smallest node, nodes ascending
// within each, edges in forest order.
func (s *Solver) groupComponents(g *Graph) {
	n := g.N
	s.ufc.Reset(n)
	for _, ei := range s.forest {
		s.ufc.Union(int(g.Edges[ei].U), int(g.Edges[ei].V))
	}
	s.compIdx = container.GrowTo(s.compIdx, n)
	for i := range s.compIdx {
		s.compIdx[i] = -1
	}
	nc := 0
	for v := 0; v < n; v++ {
		r := s.ufc.Find(v)
		if s.compIdx[r] < 0 {
			s.compIdx[r] = int32(nc)
			nc++
		}
	}
	s.numComps = nc

	s.compNodeOffs = container.GrowTo(s.compNodeOffs, nc+1)
	for i := range s.compNodeOffs {
		s.compNodeOffs[i] = 0
	}
	for v := 0; v < n; v++ {
		s.compNodeOffs[s.compIdx[s.ufc.Find(v)]+1]++
	}
	for c := 0; c < nc; c++ {
		s.compNodeOffs[c+1] += s.compNodeOffs[c]
	}
	s.cursor = container.GrowTo(s.cursor, nc)
	copy(s.cursor, s.compNodeOffs[:nc])
	s.compNodes = container.GrowTo(s.compNodes, n)
	for v := 0; v < n; v++ {
		c := s.compIdx[s.ufc.Find(v)]
		s.compNodes[s.cursor[c]] = int32(v)
		s.cursor[c]++
	}

	s.compEdgeOffs = container.GrowTo(s.compEdgeOffs, nc+1)
	for i := range s.compEdgeOffs {
		s.compEdgeOffs[i] = 0
	}
	for _, ei := range s.forest {
		s.compEdgeOffs[s.compIdx[s.ufc.Find(int(g.Edges[ei].U))]+1]++
	}
	for c := 0; c < nc; c++ {
		s.compEdgeOffs[c+1] += s.compEdgeOffs[c]
	}
	copy(s.cursor, s.compEdgeOffs[:nc])
	s.compEdges = container.GrowTo(s.compEdges, len(s.forest))
	for _, ei := range s.forest {
		c := s.compIdx[s.ufc.Find(int(g.Edges[ei].U))]
		s.compEdges[s.cursor[c]] = ei
		s.cursor[c]++
	}
}

// strongPrune keeps, within one forest component, the subtree maximizing
// net worth. It roots the component at its maximum-prize node, computes
// net(v) = π(v) + Σ_children max(0, net(c) − cost(v,c)) bottom-up, and
// drops non-contributing branches. The component is remapped to local
// indices, adjacency is a CSR whose per-node halfedge order is the
// component's edge order, and keep decisions are flags on local halfedges.
// The returned tree's Nodes and Edges come from the solver's arenas.
func (s *Solver) strongPrune(g *Graph, nodes []int32, edges []int) Tree {
	nc := len(nodes)
	s.pos = container.GrowTo(s.pos, g.N)
	for i, v := range nodes {
		s.pos[v] = int32(i)
	}
	// Local adjacency CSR, per-node halfedge order = component edge order.
	s.adjOffs = container.GrowTo(s.adjOffs, nc+1)
	for i := 0; i <= nc; i++ {
		s.adjOffs[i] = 0
	}
	for _, ei := range edges {
		e := g.Edges[ei]
		s.adjOffs[s.pos[e.U]+1]++
		s.adjOffs[s.pos[e.V]+1]++
	}
	for i := 0; i < nc; i++ {
		s.adjOffs[i+1] += s.adjOffs[i]
	}
	s.cursor = container.GrowTo(s.cursor, nc)
	copy(s.cursor, s.adjOffs[:nc])
	nh := 2 * len(edges)
	s.adjTo = container.GrowTo(s.adjTo, nh)
	s.adjEdge = container.GrowTo(s.adjEdge, nh)
	for _, ei := range edges {
		e := g.Edges[ei]
		lu, lv := s.pos[e.U], s.pos[e.V]
		s.adjTo[s.cursor[lu]] = e.V
		s.adjEdge[s.cursor[lu]] = ei
		s.cursor[lu]++
		s.adjTo[s.cursor[lv]] = e.U
		s.adjEdge[s.cursor[lv]] = ei
		s.cursor[lv]++
	}

	root := nodes[0]
	for _, v := range nodes {
		if g.Prizes[v] > g.Prizes[root] {
			root = v
		}
	}

	// Iterative DFS discovery, children before parents on the way back.
	s.visited = container.GrowTo(s.visited, nc)
	for i := 0; i < nc; i++ {
		s.visited[i] = false
	}
	s.order = s.order[:0]
	s.stack = append(s.stack[:0], pruneFrame{v: root, parent: -1})
	for len(s.stack) > 0 {
		f := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		lv := s.pos[f.v]
		if s.visited[lv] {
			continue
		}
		s.visited[lv] = true
		s.order = append(s.order, f)
		for k := s.adjOffs[lv]; k < s.adjOffs[lv+1]; k++ {
			if s.adjTo[k] != f.parent {
				s.stack = append(s.stack, pruneFrame{v: s.adjTo[k], parent: f.v})
			}
		}
	}
	// net(v) = π(v) + Σ_children max(0, net(c) − cost(v,c)); keep flags on
	// the parent→child halfedges whose margin contributes.
	s.net = container.GrowTo(s.net, nc)
	s.keepHe = container.GrowTo(s.keepHe, nh)
	for i := 0; i < nh; i++ {
		s.keepHe[i] = false
	}
	for i := len(s.order) - 1; i >= 0; i-- {
		f := s.order[i]
		lv := s.pos[f.v]
		n := g.Prizes[f.v]
		for k := s.adjOffs[lv]; k < s.adjOffs[lv+1]; k++ {
			if s.adjTo[k] == f.parent {
				continue
			}
			margin := s.net[s.pos[s.adjTo[k]]] - g.Edges[s.adjEdge[k]].Cost
			if margin > eps {
				n += margin
				s.keepHe[k] = true
			}
		}
		s.net[lv] = n
	}

	// Preorder walk over kept halfedges from the root: node first, then
	// each kept child subtree in order.
	t := Tree{}
	s.outNodes = append(s.outNodes[:0], root)
	s.outEdges = s.outEdges[:0]
	t.Prize += g.Prizes[root]
	s.collect = append(s.collect[:0], collectFrame{v: root, parent: -1, k: s.adjOffs[s.pos[root]]})
	for len(s.collect) > 0 {
		f := &s.collect[len(s.collect)-1]
		lv := s.pos[f.v]
		advanced := false
		for k := f.k; k < s.adjOffs[lv+1]; k++ {
			if !s.keepHe[k] || s.adjTo[k] == f.parent {
				continue
			}
			f.k = k + 1
			to := s.adjTo[k]
			s.outEdges = append(s.outEdges, s.adjEdge[k])
			t.Cost += g.Edges[s.adjEdge[k]].Cost
			s.outNodes = append(s.outNodes, to)
			t.Prize += g.Prizes[to]
			s.collect = append(s.collect, collectFrame{v: to, parent: f.v, k: s.adjOffs[s.pos[to]]})
			advanced = true
			break
		}
		if !advanced {
			s.collect = s.collect[:len(s.collect)-1]
		}
	}

	t.Nodes = s.i32Arena.Alloc(len(s.outNodes))
	copy(t.Nodes, s.outNodes)
	slices.Sort(t.Nodes)
	if len(s.outEdges) > 0 { // nil for single-node trees
		t.Edges = s.intArena.Alloc(len(s.outEdges))
		copy(t.Edges, s.outEdges)
	}
	return t
}

// collectFrame is one frame of strongPrune's explicit collection walk: k is
// the next halfedge cursor within [adjOffs[lv], adjOffs[lv+1]).
type collectFrame struct {
	v      int32
	parent int32
	k      int32
}
