package roadnet

import (
	"math/rand"
	"testing"

	"repro/internal/geo"
)

// randomGraph builds a random geometric-ish graph for extraction tests.
func randomGraph(t testing.TB, rng *rand.Rand, n, m int) *Graph {
	t.Helper()
	b := NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100})
	}
	for added := 0; added < m; {
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		if err := b.AddEdge(u, v, 1+rng.Float64()*10); err != nil {
			t.Fatal(err)
		}
		added++
	}
	return b.Build()
}

// assertSameSubgraph checks that two subgraphs agree on nodes, edges and
// remaps.
func assertSameSubgraph(t *testing.T, parent *Graph, want, got *Subgraph) {
	t.Helper()
	if len(got.ToParent) != len(want.ToParent) || len(got.Edges) != len(want.Edges) {
		t.Fatalf("size mismatch: got %d/%d nodes/edges, want %d/%d",
			len(got.ToParent), len(got.Edges), len(want.ToParent), len(want.Edges))
	}
	for i, p := range want.ToParent {
		if got.ToParent[i] != p {
			t.Fatalf("ToParent[%d] = %d, want %d", i, got.ToParent[i], p)
		}
	}
	for v := NodeID(0); int(v) < parent.NumNodes(); v++ {
		if got.Local(v) != want.Local(v) {
			t.Fatalf("Local(%d) = %d, want %d", v, got.Local(v), want.Local(v))
		}
	}
	// Edge multisets must match; both paths emit edges grouped by the
	// lower endpoint in ascending order, so direct comparison works.
	for i, e := range want.Edges {
		if got.Edges[i] != e {
			t.Fatalf("edge %d: got %+v, want %+v", i, got.Edges[i], e)
		}
	}
}

// bruteExtract is a reference implementation: full node scan plus full edge
// scan, with local IDs in ascending parent order (the pre-CSR semantics).
func bruteExtract(g *Graph, r geo.Rect) (nodes []NodeID, edges []Edge) {
	local := make(map[NodeID]NodeID)
	for i := 0; i < g.NumNodes(); i++ {
		if r.Contains(g.Point(NodeID(i))) {
			local[NodeID(i)] = NodeID(len(nodes))
			nodes = append(nodes, NodeID(i))
		}
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(EdgeID(i))
		lu, okU := local[e.U]
		lv, okV := local[e.V]
		if okU && okV {
			edges = append(edges, Edge{U: lu, V: lv, Length: e.Length})
		}
	}
	return nodes, edges
}

func TestExtractorMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		g := randomGraph(t, rng, 30+rng.Intn(40), 80)
		ex := NewExtractor(g)
		for q := 0; q < 5; q++ {
			r := geo.NewRect(
				geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
				geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
			)
			sub := ex.ExtractRect(r)
			nodes, edges := bruteExtract(g, r)
			if len(sub.ToParent) != len(nodes) {
				t.Fatalf("trial %d: %d nodes, want %d", trial, len(sub.ToParent), len(nodes))
			}
			for i, p := range nodes {
				if sub.ToParent[i] != p {
					t.Fatalf("trial %d: ToParent[%d] = %d, want %d", trial, i, sub.ToParent[i], p)
				}
			}
			if len(sub.Edges) != len(edges) {
				t.Fatalf("trial %d: %d edges, want %d", trial, len(sub.Edges), len(edges))
			}
			// The incident-edge walk orders edges by lower endpoint, not
			// parent edge ID: compare as multisets keyed by endpoints.
			wantCount := map[Edge]int{}
			for _, e := range edges {
				if e.V < e.U {
					e.U, e.V = e.V, e.U
				}
				wantCount[e]++
			}
			for _, e := range sub.Edges {
				if e.V < e.U {
					e.U, e.V = e.V, e.U
				}
				wantCount[e]--
				if wantCount[e] < 0 {
					t.Fatalf("trial %d: unexpected edge %+v", trial, e)
				}
			}
		}
	}
}

func TestExtractorPooledMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(t, rng, 80, 200)
	ex := NewExtractor(g)
	rects := []geo.Rect{
		{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100},
		{MinX: 10, MinY: 10, MaxX: 40, MaxY: 60},
		{MinX: 70, MinY: 70, MaxX: 90, MaxY: 90},
		{MinX: 200, MinY: 200, MaxX: 300, MaxY: 300}, // empty
		{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100},
	}
	for i, r := range rects {
		got := ex.ExtractRect(r) // pooled, reused buffers
		want := g.ExtractRect(r) // fresh extractor
		assertSameSubgraph(t, g, want, got)
		if i == 3 && len(got.ToParent) != 0 {
			t.Fatalf("empty rect extracted %d nodes", len(got.ToParent))
		}
	}
}

func TestExtractorStaleRemapInvisible(t *testing.T) {
	// A node inside the first rectangle but not the second must map to -1
	// after the second extraction even though its stamp array entry holds a
	// stale local ID.
	b := NewBuilder()
	left := b.AddNode(geo.Point{X: 0, Y: 0})
	right := b.AddNode(geo.Point{X: 10, Y: 0})
	if err := b.AddEdge(left, right, 10); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	ex := NewExtractor(g)
	first := ex.ExtractRect(geo.Rect{MinX: -1, MinY: -1, MaxX: 11, MaxY: 1})
	if first.Local(left) != 0 || first.Local(right) != 1 {
		t.Fatalf("first extraction remap wrong: %d, %d", first.Local(left), first.Local(right))
	}
	second := ex.ExtractRect(geo.Rect{MinX: 5, MinY: -1, MaxX: 11, MaxY: 1})
	if second.Local(left) != -1 {
		t.Fatalf("stale node visible: Local(left) = %d, want -1", second.Local(left))
	}
	if second.Local(right) != 0 {
		t.Fatalf("Local(right) = %d, want 0", second.Local(right))
	}
	if second.Local(-3) != -1 || second.Local(99) != -1 {
		t.Fatal("out-of-range parent IDs must map to -1")
	}
}

func TestExtractorEpochWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomGraph(t, rng, 40, 100)
	ex := NewExtractor(g)
	r := geo.Rect{MinX: 20, MinY: 20, MaxX: 80, MaxY: 80}
	before := g.ExtractRect(r)
	ex.ExtractRect(geo.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100})
	ex.epoch = ^uint32(0) - 1 // force a wrap on the next two extractions
	assertSameSubgraph(t, g, before, ex.ExtractRect(r))
	assertSameSubgraph(t, g, before, ex.ExtractRect(r)) // epoch wrapped to 0→1
	if ex.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", ex.epoch)
	}
}

func TestExtractorExtractNodesDedup(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddNode(geo.Point{X: float64(i), Y: 0})
	}
	for i := 0; i < 3; i++ {
		if err := b.AddEdge(NodeID(i), NodeID(i+1), 1); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	ex := NewExtractor(g)
	sub := ex.ExtractNodes([]NodeID{2, 1, 2, 1})
	if len(sub.ToParent) != 2 || len(sub.Edges) != 1 {
		t.Fatalf("got %d nodes %d edges, want 2/1", len(sub.ToParent), len(sub.Edges))
	}
	// First-occurrence order assigns local 0 to parent 2.
	if sub.ToParent[0] != 2 || sub.ToParent[1] != 1 {
		t.Fatalf("ToParent = %v, want [2 1]", sub.ToParent)
	}
}

func TestNodesInRectMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(t, rng, 10+rng.Intn(60), 20)
		r := geo.NewRect(
			geo.Point{X: rng.Float64()*140 - 20, Y: rng.Float64()*140 - 20},
			geo.Point{X: rng.Float64()*140 - 20, Y: rng.Float64()*140 - 20},
		)
		got := g.NodesInRect(r)
		var want []NodeID
		for i := 0; i < g.NumNodes(); i++ {
			if r.Contains(g.Point(NodeID(i))) {
				want = append(want, NodeID(i))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d nodes, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: NodesInRect[%d] = %d, want %d", trial, i, got[i], want[i])
			}
		}
	}
}

func TestNodesInRectHugeRect(t *testing.T) {
	// A rectangle astronomically larger than the bbox must still return
	// every node (guards the int conversion in the cell-range computation).
	rng := rand.New(rand.NewSource(23))
	g := randomGraph(t, rng, 50, 100)
	huge := geo.Rect{MinX: -1e300, MinY: -1e300, MaxX: 1e300, MaxY: 1e300}
	if got := g.NodesInRect(huge); len(got) != g.NumNodes() {
		t.Fatalf("huge rect returned %d of %d nodes", len(got), g.NumNodes())
	}
	if sub := g.ExtractRect(huge); len(sub.ToParent) != g.NumNodes() || len(sub.Edges) != g.NumEdges() {
		t.Fatalf("huge rect extraction %d/%d nodes/edges, want %d/%d",
			len(sub.ToParent), len(sub.Edges), g.NumNodes(), g.NumEdges())
	}
}
