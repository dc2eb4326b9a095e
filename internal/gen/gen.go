// Package gen synthesizes the experimental substrates the paper's datasets
// provide (§7.1), which are not redistributable/downloadable offline:
//
//   - a Manhattan-style road network (perturbed grid with missing blocks
//     and dead-ends) standing in for the DIMACS New York network;
//   - a random geometric network (sparser, longer edges) standing in for
//     the northwest-USA network;
//   - Zipf-distributed keyword vocabularies standing in for Google Places
//     categories (NY) and Flickr tags (USANW) — term frequencies in both
//     corpora are classically Zipfian;
//   - geo-textual objects placed "following the network distribution"
//     (near random road nodes), exactly how the paper generates USANW
//     objects and snaps NY objects.
//
// Densities (nodes/km², objects/node) track the real datasets; absolute
// counts are scaled down by a size knob so the full benchmark suite runs
// on one machine.
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geo"
	"repro/internal/roadnet"
)

// GridConfig describes a Manhattan-style network.
type GridConfig struct {
	Rows, Cols int
	// Spacing is the nominal block edge length in metres.
	Spacing float64
	// Jitter perturbs node positions by ±Jitter·Spacing (0..0.5 sensible).
	Jitter float64
	// RemoveEdge is the probability an interior grid edge is deleted
	// (parks, blocked streets); connectivity is restored afterwards.
	RemoveEdge float64
	// DeadEndFrac converts this fraction of boundary nodes into dead-end
	// stubs poking outward.
	DeadEndFrac float64
}

// Validate reports configuration errors.
func (c GridConfig) Validate() error {
	if c.Rows < 2 || c.Cols < 2 {
		return fmt.Errorf("gen: grid needs at least 2x2, got %dx%d", c.Rows, c.Cols)
	}
	if c.Spacing <= 0 {
		return fmt.Errorf("gen: spacing must be positive, got %v", c.Spacing)
	}
	if c.Jitter < 0 || c.Jitter > 0.5 {
		return fmt.Errorf("gen: jitter must be in [0, 0.5], got %v", c.Jitter)
	}
	if c.RemoveEdge < 0 || c.RemoveEdge >= 1 {
		return fmt.Errorf("gen: remove-edge probability must be in [0,1), got %v", c.RemoveEdge)
	}
	if c.DeadEndFrac < 0 || c.DeadEndFrac > 1 {
		return fmt.Errorf("gen: dead-end fraction must be in [0,1], got %v", c.DeadEndFrac)
	}
	return nil
}

// ManhattanGrid generates a perturbed grid road network. The result is
// always connected.
func ManhattanGrid(cfg GridConfig, rng *rand.Rand) (*roadnet.Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := roadnet.NewBuilder()
	ids := make([][]roadnet.NodeID, cfg.Rows)
	pos := make(map[roadnet.NodeID]geo.Point)
	for r := 0; r < cfg.Rows; r++ {
		ids[r] = make([]roadnet.NodeID, cfg.Cols)
		for c := 0; c < cfg.Cols; c++ {
			jx := (rng.Float64()*2 - 1) * cfg.Jitter * cfg.Spacing
			jy := (rng.Float64()*2 - 1) * cfg.Jitter * cfg.Spacing
			p := geo.Point{
				X: float64(c)*cfg.Spacing + jx,
				Y: float64(r)*cfg.Spacing + jy,
			}
			ids[r][c] = b.AddNode(p)
			pos[ids[r][c]] = p
		}
	}
	type pending struct{ u, v roadnet.NodeID }
	var kept, removed []pending
	consider := func(u, v roadnet.NodeID) {
		if rng.Float64() < cfg.RemoveEdge {
			removed = append(removed, pending{u, v})
		} else {
			kept = append(kept, pending{u, v})
		}
	}
	for r := 0; r < cfg.Rows; r++ {
		for c := 0; c < cfg.Cols; c++ {
			if c+1 < cfg.Cols {
				consider(ids[r][c], ids[r][c+1])
			}
			if r+1 < cfg.Rows {
				consider(ids[r][c], ids[r+1][c])
			}
		}
	}
	for _, e := range kept {
		if err := b.AddEdgeEuclidean(e.u, e.v); err != nil {
			return nil, err
		}
	}
	// Dead-end stubs on the boundary.
	if cfg.DeadEndFrac > 0 {
		for c := 0; c < cfg.Cols; c++ {
			if rng.Float64() < cfg.DeadEndFrac {
				base := ids[0][c]
				stub := b.AddNode(pos[base].Add(0, -0.5*cfg.Spacing))
				if err := b.AddEdgeEuclidean(base, stub); err != nil {
					return nil, err
				}
			}
		}
	}
	g := b.Build()
	// Restore connectivity broken by removals: re-add removed edges that
	// bridge components until one component remains.
	comps := g.Components()
	for len(comps) > 1 && len(removed) > 0 {
		compOf := make(map[roadnet.NodeID]int)
		for ci, comp := range comps {
			for _, v := range comp {
				compOf[v] = ci
			}
		}
		nb := roadnet.NewBuilder()
		for v := 0; v < g.NumNodes(); v++ {
			nb.AddNode(g.Point(roadnet.NodeID(v)))
		}
		for i := 0; i < g.NumEdges(); i++ {
			e := g.Edge(roadnet.EdgeID(i))
			if err := nb.AddEdge(e.U, e.V, e.Length); err != nil {
				return nil, err
			}
		}
		var still []pending
		bridged := false
		for _, e := range removed {
			if !bridged && compOf[e.u] != compOf[e.v] {
				if err := nb.AddEdgeEuclidean(e.u, e.v); err != nil {
					return nil, err
				}
				bridged = true
			} else {
				still = append(still, e)
			}
		}
		if !bridged {
			break // removals cannot reconnect (should not happen on a grid)
		}
		removed = still
		g = nb.Build()
		comps = g.Components()
	}
	return g, nil
}

// GeometricConfig describes a random geometric (rural-style) network.
type GeometricConfig struct {
	Nodes int
	// Width and Height of the area in metres.
	Width, Height float64
	// Neighbors is how many nearest nodes each node connects to (≥1).
	Neighbors int
}

// Validate reports configuration errors.
func (c GeometricConfig) Validate() error {
	if c.Nodes < 2 {
		return fmt.Errorf("gen: geometric network needs ≥2 nodes, got %d", c.Nodes)
	}
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("gen: area must be positive, got %v x %v", c.Width, c.Height)
	}
	if c.Neighbors < 1 {
		return fmt.Errorf("gen: neighbors must be ≥1, got %d", c.Neighbors)
	}
	return nil
}

// GeometricNetwork generates a connected random geometric network: nodes
// uniform in the area, each connected to its k nearest neighbours, plus
// minimum bridging edges to guarantee a single component.
func GeometricNetwork(cfg GeometricConfig, rng *rand.Rand) (*roadnet.Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pts := make([]geo.Point, cfg.Nodes)
	for i := range pts {
		pts[i] = geo.Point{X: rng.Float64() * cfg.Width, Y: rng.Float64() * cfg.Height}
	}
	b := roadnet.NewBuilder()
	for _, p := range pts {
		b.AddNode(p)
	}
	// Bucket grid for k-nearest queries.
	cell := math.Sqrt(cfg.Width * cfg.Height / float64(cfg.Nodes))
	nx := int(cfg.Width/cell) + 1
	ny := int(cfg.Height/cell) + 1
	buckets := make([][]int32, nx*ny)
	bucketOf := func(p geo.Point) (int, int) {
		cx, cy := int(p.X/cell), int(p.Y/cell)
		if cx >= nx {
			cx = nx - 1
		}
		if cy >= ny {
			cy = ny - 1
		}
		return cx, cy
	}
	for i, p := range pts {
		cx, cy := bucketOf(p)
		buckets[cy*nx+cx] = append(buckets[cy*nx+cx], int32(i))
	}
	added := make(map[[2]int32]bool)
	addEdge := func(u, v int32) error {
		if u == v {
			return nil
		}
		key := [2]int32{min32(u, v), max32(u, v)}
		if added[key] {
			return nil
		}
		added[key] = true
		return b.AddEdgeEuclidean(roadnet.NodeID(u), roadnet.NodeID(v))
	}
	for i, p := range pts {
		// Expand rings of buckets until k candidates are found.
		type cand struct {
			id int32
			d  float64
		}
		var cands []cand
		cx, cy := bucketOf(p)
		for ring := 0; ring < nx+ny && len(cands) < cfg.Neighbors*3; ring++ {
			for dy := -ring; dy <= ring; dy++ {
				for dx := -ring; dx <= ring; dx++ {
					if abs(dx) != ring && abs(dy) != ring {
						continue
					}
					x, y := cx+dx, cy+dy
					if x < 0 || x >= nx || y < 0 || y >= ny {
						continue
					}
					for _, j := range buckets[y*nx+x] {
						if int(j) != i {
							cands = append(cands, cand{j, p.Dist(pts[j])})
						}
					}
				}
			}
		}
		// Partial selection of the k nearest.
		for k := 0; k < cfg.Neighbors && k < len(cands); k++ {
			minIdx := k
			for m := k + 1; m < len(cands); m++ {
				if cands[m].d < cands[minIdx].d {
					minIdx = m
				}
			}
			cands[k], cands[minIdx] = cands[minIdx], cands[k]
			if err := addEdge(int32(i), cands[k].id); err != nil {
				return nil, err
			}
		}
	}
	g := b.Build()
	// Bridge remaining components with their nearest cross pairs.
	for {
		comps := g.Components()
		if len(comps) <= 1 {
			return g, nil
		}
		main := comps[0]
		other := comps[1]
		bu, bv, bd := roadnet.NodeID(-1), roadnet.NodeID(-1), math.Inf(1)
		for _, u := range main {
			pu := g.Point(u)
			for _, v := range other {
				if d := pu.Dist(g.Point(v)); d < bd {
					bu, bv, bd = u, v, d
				}
			}
		}
		nb := roadnet.NewBuilder()
		for v := 0; v < g.NumNodes(); v++ {
			nb.AddNode(g.Point(roadnet.NodeID(v)))
		}
		for i := 0; i < g.NumEdges(); i++ {
			e := g.Edge(roadnet.EdgeID(i))
			if err := nb.AddEdge(e.U, e.V, e.Length); err != nil {
				return nil, err
			}
		}
		if err := nb.AddEdgeEuclidean(bu, bv); err != nil {
			return nil, err
		}
		g = nb.Build()
	}
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
