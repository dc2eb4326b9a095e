package experiments

import (
	"fmt"
	"math"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/maxrs"
)

// MaxRSComparison reproduces §7.5 (and the Figure 20 contrast): for each
// query, (1) find the best 500m×500m MaxRS rectangle over the relevant
// objects; (2) derive the LCMSR length budget from it exactly as the paper
// does — "we compute the minimum total length of the road segments
// connecting all relevant objects in this region, and we use this value as
// the length constraint"; (3) answer the LCMSR query with TGEN under that
// budget.
//
// The paper's human annotators preferred the LCMSR region on 90% of
// queries. The mechanical proxy here scores a win for LCMSR when its
// (always-connected) region weight is at least the weight of the largest
// road-connected object group inside the MaxRS rectangle — rectangles cut
// through the network, so their content is usually fragmented, which is
// precisely the paper's argument.
func (e *Env) MaxRSComparison() (Table, error) {
	d, err := e.NY()
	if err != nil {
		return Table{}, err
	}
	p := e.params(d)
	qs, err := e.queries(d, p.Keywords, p.LambdaM2, p.DeltaM)
	if err != nil {
		return Table{}, err
	}
	const rectSide = 500.0 // §7.5: both width and height 500 m
	table := Table{
		Title:  "§7.5 / Fig 20: LCMSR (TGEN) vs MaxRS, 500m x 500m rectangles (NY)",
		Header: []string{"query", "maxrs_weight", "maxrs_connected", "lcmsr_weight", "lcmsr_delta_km", "lcmsr_wins"},
	}
	wins, valid := 0, 0
	for i, q := range qs {
		qi, err := e.instantiate(d, q)
		if err != nil {
			return Table{}, err
		}
		// Relevant objects inside Λ, with their scores and nodes.
		var objs []relevantObject
		var pts []maxrs.Point
		for v := 0; v < qi.In.NumNodes; v++ {
			for _, id := range qi.NodeObjects[v] {
				o := d.Objects[id]
				w := qi.Prepared.Score(&o.Doc)
				if w <= 0 {
					continue
				}
				objs = append(objs, relevantObject{pt: o.Point, w: w, local: core.NodeID(v)})
				pts = append(pts, maxrs.Point{P: o.Point, Weight: w})
			}
		}
		if len(objs) == 0 {
			continue
		}
		best, err := maxrs.Solve(pts, rectSide, rectSide)
		if err != nil {
			return Table{}, err
		}
		// Objects covered by the winning rectangle.
		rect := geo.Rect{
			MinX: best.Center.X - rectSide/2, MinY: best.Center.Y - rectSide/2,
			MaxX: best.Center.X + rectSide/2, MaxY: best.Center.Y + rectSide/2,
		}
		var covered []relevantObject
		for _, o := range objs {
			if rect.Contains(o.pt) {
				covered = append(covered, o)
			}
		}
		if len(covered) == 0 {
			continue
		}
		// The paper's budget: minimum road length connecting the covered
		// objects — approximated by the metric-closure MST over shortest
		// path distances (the classic 2-approximation of Steiner trees).
		terminals := make([]core.NodeID, 0, len(covered))
		seen := map[core.NodeID]bool{}
		for _, o := range covered {
			if !seen[o.local] {
				seen[o.local] = true
				terminals = append(terminals, o.local)
			}
		}
		delta := steinerLength(qi.In, terminals)
		if delta <= 0 {
			delta = rectSide // all objects on one node: any small budget
		}
		lr, err := e.solveTGEN(qi.In, delta, core.TGENOptions{Alpha: tgenAlphaFor(qi.In, p.TGENSigma)})
		if err != nil {
			return Table{}, err
		}
		// MaxRS connected weight: the heaviest road-connected group of
		// covered objects, where two objects connect if a road path inside
		// the rectangle's node set joins them.
		connWeight := maxConnectedWeight(qi.In, covered)
		lcmsrW := scoreOf(lr)
		valid++
		win := lcmsrW >= connWeight-1e-9
		if win {
			wins++
		}
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%d", i+1),
			fmtF(best.Weight),
			fmtF(connWeight),
			fmtF(lcmsrW),
			fmt.Sprintf("%.2f", delta/1000),
			fmt.Sprintf("%v", win),
		})
	}
	if valid > 0 {
		table.Rows = append(table.Rows, []string{
			"TOTAL", "", "", "", "",
			fmt.Sprintf("%d/%d (%.0f%%)", wins, valid, 100*float64(wins)/float64(valid)),
		})
	}
	return table, nil
}

// steinerLength approximates the minimum road length connecting the
// terminal nodes: Dijkstra from each terminal gives the metric closure,
// whose MST is a 2-approximate Steiner tree length.
func steinerLength(in *core.Instance, terminals []core.NodeID) float64 {
	if len(terminals) <= 1 {
		return 0
	}
	// Shortest path distances from each terminal to the others.
	k := len(terminals)
	distMat := make([][]float64, k)
	for i, t := range terminals {
		d := dijkstra(in, t)
		distMat[i] = make([]float64, k)
		for j, u := range terminals {
			distMat[i][j] = d[u]
		}
	}
	// Prim MST over the metric closure.
	inTree := make([]bool, k)
	dist := make([]float64, k)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[0] = 0
	var total float64
	for range terminals {
		best := -1
		for i := 0; i < k; i++ {
			if !inTree[i] && (best < 0 || dist[i] < dist[best]) {
				best = i
			}
		}
		if best < 0 || math.IsInf(dist[best], 1) {
			break // disconnected terminals: connect what is reachable
		}
		inTree[best] = true
		total += dist[best]
		for i := 0; i < k; i++ {
			if !inTree[i] && distMat[best][i] < dist[i] {
				dist[i] = distMat[best][i]
			}
		}
	}
	return total
}

// dijkstra computes shortest path distances from src over the instance.
func dijkstra(in *core.Instance, src core.NodeID) []float64 {
	dist := make([]float64, in.NumNodes)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	type item struct {
		d float64
		v core.NodeID
	}
	h := container.NewHeap[item](func(a, b item) bool { return a.d < b.d })
	h.Push(item{0, src})
	for {
		it, ok := h.Pop()
		if !ok {
			return dist
		}
		if it.d > dist[it.v] {
			continue
		}
		for _, he := range in.Neighbors(it.v) {
			nd := it.d + in.Edges[he.Edge].Length
			if nd < dist[he.To] {
				dist[he.To] = nd
				h.Push(item{nd, he.To})
			}
		}
	}
}

// relevantObject is an object with positive query relevance, its location
// and its (local) road node.
type relevantObject struct {
	pt    geo.Point
	w     float64
	local core.NodeID
}

// maxConnectedWeight returns the total weight of the heaviest group of
// covered objects whose nodes are connected by road segments between
// covered nodes (a rectangle cuts longer connecting paths anyway).
func maxConnectedWeight(in *core.Instance, covered []relevantObject) float64 {
	// Union nodes joined by edges whose two endpoints' objects are inside
	// the rectangle's node set: approximate "inside the rectangle" by the
	// covered nodes themselves.
	inside := map[core.NodeID]bool{}
	for _, o := range covered {
		inside[o.local] = true
	}
	uf := container.NewUnionFind(in.NumNodes)
	// Edges between covered nodes (possibly through a path of non-object
	// nodes are not counted: the rectangle usually severs them anyway).
	for _, e := range in.Edges {
		if inside[e.U] && inside[e.V] {
			uf.Union(int(e.U), int(e.V))
		}
	}
	groups := map[int]float64{}
	for _, o := range covered {
		groups[uf.Find(int(o.local))] += o.w
	}
	var best float64
	for _, w := range groups {
		if w > best {
			best = w
		}
	}
	return best
}
