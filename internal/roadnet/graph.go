// Package roadnet implements the road-network graph substrate of the paper
// (§2, Definition 1): an undirected graph G = (V, E, τ, λ) whose nodes are
// road junctions, dead-ends, or geo-textual object locations, with a length
// function τ on edges and a spatial mapping λ on nodes. It also provides the
// operations the query algorithms need: rectangular subgraph extraction
// (for Q.Λ), connected components, nearest-node snapping, and a plain-text
// serialization format for datasets.
package roadnet

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/geo"
)

// NodeID identifies a node within a Graph. IDs are dense, 0..NumNodes-1.
type NodeID int32

// EdgeID identifies an edge within a Graph. IDs are dense, 0..NumEdges-1.
type EdgeID int32

// Edge is an undirected road segment between two nodes with length τ ≥ 0.
type Edge struct {
	U, V   NodeID
	Length float64
}

// Halfedge is one direction of an undirected edge, as stored in the
// adjacency structure.
type Halfedge struct {
	To     NodeID
	Edge   EdgeID
	Length float64
}

// Graph is an undirected road network with spatial node coordinates.
// Construct with NewBuilder; a built Graph is immutable and safe for
// concurrent reads.
type Graph struct {
	pts   []geo.Point
	edges []Edge
	// CSR adjacency: halfedges of node v are adj[offs[v]:offs[v+1]].
	offs []int32
	adj  []Halfedge
	bbox geo.Rect
	// Node cell index: a uniform nx×ny grid over bbox with ~1 node per
	// cell; the nodes of cell c are cellNodes[cellStart[c]:cellStart[c+1]]
	// in ascending ID order. Rectangle queries walk only overlapping cells
	// instead of scanning all nodes.
	cellStart []int32
	cellNodes []NodeID
	nx, ny    int32
	cellW     float64
	cellH     float64
}

// Builder accumulates nodes and edges and produces an immutable Graph.
type Builder struct {
	pts   []geo.Point
	edges []Edge
}

// NewBuilder returns an empty graph builder.
func NewBuilder() *Builder { return &Builder{} }

// AddNode appends a node at p and returns its ID.
func (b *Builder) AddNode(p geo.Point) NodeID {
	b.pts = append(b.pts, p)
	return NodeID(len(b.pts) - 1)
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.pts) }

// AddEdge appends an undirected edge (u, v) with the given length.
// It returns an error for out-of-range endpoints, self loops, or negative
// lengths; duplicate edges are permitted (parallel roads exist).
func (b *Builder) AddEdge(u, v NodeID, length float64) error {
	n := NodeID(len(b.pts))
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("roadnet: edge (%d,%d) references unknown node (have %d nodes)", u, v, n)
	}
	if u == v {
		return fmt.Errorf("roadnet: self loop at node %d", u)
	}
	if length < 0 || math.IsNaN(length) || math.IsInf(length, 0) {
		return fmt.Errorf("roadnet: invalid edge length %v", length)
	}
	b.edges = append(b.edges, Edge{U: u, V: v, Length: length})
	return nil
}

// AddEdgeEuclidean appends an edge whose length is the Euclidean distance
// between its endpoints.
func (b *Builder) AddEdgeEuclidean(u, v NodeID) error {
	n := NodeID(len(b.pts))
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("roadnet: edge (%d,%d) references unknown node (have %d nodes)", u, v, n)
	}
	return b.AddEdge(u, v, b.pts[u].Dist(b.pts[v]))
}

// Build freezes the builder into an immutable Graph.
func (b *Builder) Build() *Graph {
	n := len(b.pts)
	g := &Graph{
		pts:   append([]geo.Point(nil), b.pts...),
		edges: append([]Edge(nil), b.edges...),
		offs:  make([]int32, n+1),
	}
	deg := make([]int32, n)
	for _, e := range g.edges {
		deg[e.U]++
		deg[e.V]++
	}
	for i := 0; i < n; i++ {
		g.offs[i+1] = g.offs[i] + deg[i]
	}
	g.adj = make([]Halfedge, len(g.edges)*2)
	cursor := make([]int32, n)
	copy(cursor, g.offs[:n])
	for id, e := range g.edges {
		g.adj[cursor[e.U]] = Halfedge{To: e.V, Edge: EdgeID(id), Length: e.Length}
		cursor[e.U]++
		g.adj[cursor[e.V]] = Halfedge{To: e.U, Edge: EdgeID(id), Length: e.Length}
		cursor[e.V]++
	}
	g.bbox = computeBBox(g.pts)
	g.sizeCells()
	g.buildCellIndex()
	return g
}

// sizeCells picks the cell-grid dimensions for the bounding box: about one
// node per cell, with the grid's aspect ratio following the bbox so cells
// stay roughly square. Degenerate extents collapse to a single row/column.
func (g *Graph) sizeCells() {
	n := len(g.pts)
	if n == 0 {
		g.nx, g.ny, g.cellW, g.cellH = 0, 0, 1, 1
		return
	}
	w, h := g.bbox.Width(), g.bbox.Height()
	nx, ny := 1, 1
	switch {
	case w > 0 && h > 0:
		nx = clampInt(int(math.Round(math.Sqrt(float64(n)*w/h))), 1, n)
		ny = clampInt(int(math.Round(math.Sqrt(float64(n)*h/w))), 1, n)
	case w > 0:
		nx = n
	case h > 0:
		ny = n
	}
	g.nx, g.ny = int32(nx), int32(ny)
	g.cellW, g.cellH = w/float64(nx), h/float64(ny)
	if g.cellW <= 0 {
		g.cellW = 1
	}
	if g.cellH <= 0 {
		g.cellH = 1
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// cellOf returns the cell index of a point inside the bounding box.
func (g *Graph) cellOf(p geo.Point) int32 {
	cx := int32((p.X - g.bbox.MinX) / g.cellW)
	cy := int32((p.Y - g.bbox.MinY) / g.cellH)
	if cx >= g.nx {
		cx = g.nx - 1
	}
	if cy >= g.ny {
		cy = g.ny - 1
	}
	if cx < 0 {
		cx = 0
	}
	if cy < 0 {
		cy = 0
	}
	return cy*g.nx + cx
}

// buildCellIndex buckets all nodes into the cell grid. sizeCells must have
// run first.
func (g *Graph) buildCellIndex() {
	cells := int(g.nx) * int(g.ny)
	start := make([]int32, cells+1)
	g.cellStart = start
	if cells == 0 {
		return
	}
	for _, p := range g.pts {
		start[g.cellOf(p)+1]++
	}
	for c := 0; c < cells; c++ {
		start[c+1] += start[c]
	}
	g.cellNodes = make([]NodeID, len(g.pts))
	// Fill using start[c] as a cursor (ascending i keeps cells sorted),
	// then shift right to restore the prefix offsets.
	for i, p := range g.pts {
		c := g.cellOf(p)
		g.cellNodes[start[c]] = NodeID(i)
		start[c]++
	}
	copy(start[1:cells+1], start[:cells])
	start[0] = 0
}

// appendNodesInRect appends the IDs of all nodes inside r to buf, walking
// only the cells overlapping r, in cell order (ascending inside each cell).
func (g *Graph) appendNodesInRect(r geo.Rect, buf []NodeID) []NodeID {
	if g.nx == 0 {
		return buf
	}
	// Clip to the bounding box before computing cell coordinates: for a
	// rectangle far larger than the bbox the raw quotient can overflow
	// int, whose conversion result is implementation-defined.
	clipped, ok := r.Intersect(g.bbox)
	if !ok {
		return buf
	}
	cx0 := clampInt(int((clipped.MinX-g.bbox.MinX)/g.cellW), 0, int(g.nx)-1)
	cx1 := clampInt(int((clipped.MaxX-g.bbox.MinX)/g.cellW), 0, int(g.nx)-1)
	cy0 := clampInt(int((clipped.MinY-g.bbox.MinY)/g.cellH), 0, int(g.ny)-1)
	cy1 := clampInt(int((clipped.MaxY-g.bbox.MinY)/g.cellH), 0, int(g.ny)-1)
	for cy := cy0; cy <= cy1; cy++ {
		row := int32(cy) * g.nx
		for cx := cx0; cx <= cx1; cx++ {
			c := row + int32(cx)
			for _, v := range g.cellNodes[g.cellStart[c]:g.cellStart[c+1]] {
				if r.Contains(g.pts[v]) {
					buf = append(buf, v)
				}
			}
		}
	}
	return buf
}

func computeBBox(pts []geo.Point) geo.Rect {
	if len(pts) == 0 {
		return geo.Rect{}
	}
	r := geo.Rect{MinX: pts[0].X, MinY: pts[0].Y, MaxX: pts[0].X, MaxY: pts[0].Y}
	for _, p := range pts[1:] {
		r.MinX = math.Min(r.MinX, p.X)
		r.MinY = math.Min(r.MinY, p.Y)
		r.MaxX = math.Max(r.MaxX, p.X)
		r.MaxY = math.Max(r.MaxY, p.Y)
	}
	return r
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return len(g.pts) }

// NumEdges returns |E| (undirected edges, not arcs).
func (g *Graph) NumEdges() int { return len(g.edges) }

// Point returns λ(v), the coordinates of node v.
func (g *Graph) Point(v NodeID) geo.Point { return g.pts[v] }

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// Neighbors returns the halfedges out of v. The returned slice aliases
// internal storage and must not be modified.
func (g *Graph) Neighbors(v NodeID) []Halfedge {
	return g.adj[g.offs[v]:g.offs[v+1]]
}

// Degree returns the number of incident edges of v.
func (g *Graph) Degree(v NodeID) int { return int(g.offs[v+1] - g.offs[v]) }

// BBox returns the bounding rectangle of all node coordinates.
func (g *Graph) BBox() geo.Rect { return g.bbox }

// MinEdgeLength returns the smallest positive edge length (d_min in the
// complexity analysis of §4.2.4), or fallback if the graph has no positive-
// length edge.
func (g *Graph) MinEdgeLength(fallback float64) float64 {
	best := math.Inf(1)
	for _, e := range g.edges {
		if e.Length > 0 && e.Length < best {
			best = e.Length
		}
	}
	if math.IsInf(best, 1) {
		return fallback
	}
	return best
}

// MaxEdgeLength returns the largest edge length (τ_max in the Greedy score
// of §6.1), or 0 for an edgeless graph.
func (g *Graph) MaxEdgeLength() float64 {
	var best float64
	for _, e := range g.edges {
		if e.Length > best {
			best = e.Length
		}
	}
	return best
}

// NodesInRect returns the IDs of all nodes inside r, in ascending order.
// The cell index limits the scan to the cells overlapping r.
func (g *Graph) NodesInRect(r geo.Rect) []NodeID {
	out := g.appendNodesInRect(r, nil)
	slices.Sort(out)
	return out
}

// NearestNode returns the node closest to p in Euclidean distance (lowest
// ID on exact ties, matching a full ascending scan). Dataset construction
// snaps each geo-textual object to its nearest road node exactly as §7.1
// does. Returns -1 for an empty graph.
//
// The search walks the node cell index in growing rings around p's cell (a
// spiral) and stops as soon as the best node found is provably closer than
// anything outside the scanned ring, so snapping cost is proportional to
// local node density, not |V|.
func (g *Graph) NearestNode(p geo.Point) NodeID {
	if len(g.pts) == 0 {
		return -1
	}
	cx := clampInt(int((p.X-g.bbox.MinX)/g.cellW), 0, int(g.nx)-1)
	cy := clampInt(int((p.Y-g.bbox.MinY)/g.cellH), 0, int(g.ny)-1)
	best, bestD := NodeID(-1), math.Inf(1)
	scan := func(x, y int) {
		c := int32(y)*g.nx + int32(x)
		for _, v := range g.cellNodes[g.cellStart[c]:g.cellStart[c+1]] {
			d := p.Dist(g.pts[v])
			if d < bestD || (d == bestD && v < best) {
				best, bestD = v, d
			}
		}
	}
	// Rings past nx+ny cover the whole grid; the bound makes degenerate
	// inputs (NaN/Inf probe or node coordinates, where every distance
	// comparison is false) terminate with best = -1 like the full scan
	// did, instead of looping on a never-improving bestD.
	maxK := int(g.nx) + int(g.ny)
	for k := 0; k <= maxK; k++ {
		x0, x1 := cx-k, cx+k
		y0, y1 := cy-k, cy+k
		// Ring at Chebyshev distance k, clipped to the grid: top and
		// bottom rows in full, left and right columns without the corners.
		if y0 >= 0 {
			for x := max(x0, 0); x <= min(x1, int(g.nx)-1); x++ {
				scan(x, y0)
			}
		}
		if y1 <= int(g.ny)-1 && k > 0 {
			for x := max(x0, 0); x <= min(x1, int(g.nx)-1); x++ {
				scan(x, y1)
			}
		}
		if x0 >= 0 {
			for y := max(y0+1, 0); y <= min(y1-1, int(g.ny)-1); y++ {
				scan(x0, y)
			}
		}
		if x1 <= int(g.nx)-1 && k > 0 {
			for y := max(y0+1, 0); y <= min(y1-1, int(g.ny)-1); y++ {
				scan(x1, y)
			}
		}
		// Everything not yet scanned lies outside the rectangle R_k of
		// cells within ring k. A side that has passed the grid edge holds
		// no further nodes; for the others, any unscanned node is at least
		// the distance from p to that side's boundary away.
		exit := math.Inf(1)
		if x0 > 0 {
			exit = math.Min(exit, p.X-(g.bbox.MinX+float64(x0)*g.cellW))
		}
		if x1 < int(g.nx)-1 {
			exit = math.Min(exit, g.bbox.MinX+float64(x1+1)*g.cellW-p.X)
		}
		if y0 > 0 {
			exit = math.Min(exit, p.Y-(g.bbox.MinY+float64(y0)*g.cellH))
		}
		if y1 < int(g.ny)-1 {
			exit = math.Min(exit, g.bbox.MinY+float64(y1+1)*g.cellH-p.Y)
		}
		if bestD < exit {
			return best
		}
	}
	return best
}

// Components returns the connected components of the graph as slices of
// node IDs, largest first.
func (g *Graph) Components() [][]NodeID {
	n := g.NumNodes()
	seen := make([]bool, n)
	var comps [][]NodeID
	queue := make([]NodeID, 0, 64)
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		seen[s] = true
		queue = append(queue[:0], NodeID(s))
		comp := []NodeID{NodeID(s)}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, he := range g.Neighbors(v) {
				if !seen[he.To] {
					seen[he.To] = true
					comp = append(comp, he.To)
					queue = append(queue, he.To)
				}
			}
		}
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(i, j int) bool { return len(comps[i]) > len(comps[j]) })
	return comps
}
