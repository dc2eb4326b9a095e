package repro

import (
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/queryengine"
)

// Method selects the query-answering algorithm.
type Method = queryengine.Method

const (
	// MethodTGEN is the tuple-generation heuristic (§5) — the best
	// accuracy and efficiency in the paper's study, and the default.
	MethodTGEN = queryengine.MethodTGEN
	// MethodAPP is the (5+ε)-approximation algorithm (§4).
	MethodAPP = queryengine.MethodAPP
	// MethodGreedy is the fast, lower-accuracy greedy expansion (§6.1).
	MethodGreedy = queryengine.MethodGreedy
	// MethodAuto defers the choice to the server-side cost planner: per
	// request, the planner estimates each solver's cost from the grid's
	// term directories and the instance size, picks the most expensive
	// method affordable within the request's budget (SearchOptions.Budget,
	// else the context deadline), and degrades one rung under queue
	// pressure instead of shedding. Set Request.Explain to see the
	// decision in Response.Plan.
	MethodAuto = queryengine.MethodAuto
)

// ParseMethod parses a method name ("tgen", "APP", ...), case-insensitively,
// round-tripping Method.String.
func ParseMethod(s string) (Method, error) { return queryengine.ParseMethod(s) }

// SearchOptions selects the Method and, for MethodAuto, its budget. Every
// method runs with the paper's recommended knobs: APP α = 0.5 and
// β = 0.1, Greedy µ = 0.2, and TGEN's α sized so σ̂max ≈ 9 over the
// query region (the regime the paper's α = 400 inhabits at its data
// scale).
type SearchOptions struct {
	// Method picks the algorithm (default MethodTGEN).
	Method Method
	// Budget, for MethodAuto, is the explicit solve budget the planner
	// chooses against. Zero derives the budget from the request context's
	// deadline, falling back to a generous default when there is none.
	// Ignored by the concrete methods. An explicit Budget makes Auto's
	// choice deterministic regardless of scheduling (deadline-derived
	// budgets shrink while the request queues).
	Budget time.Duration
}

// ResultObject is a relevant object inside a result region.
type ResultObject struct {
	ID    int
	X, Y  float64
	Score float64 // σ(o.ψ, Q.ψ)
}

// Result is a region returned for an LCMSR query.
type Result struct {
	// Score is the region's total weight w.r.t. the query (Σ σv).
	Score float64
	// Length is the total road length of the region.
	Length float64
	// Nodes are the road-network node IDs forming the region (IDs into
	// the Database's graph).
	Nodes []int
	// Edges are (u, v, length) road segments of the region.
	Edges []EdgeSpec
	// Objects are the relevant objects the region contains.
	Objects []ResultObject
}

// materialize converts a core region (local IDs) into a public Result
// (parent graph IDs, object details).
func (db *Database) materialize(qi *dataset.QueryInstance, region *core.Region) *Result {
	res := &Result{
		Score:  region.Score,
		Length: region.Length,
		Nodes:  make([]int, len(region.Nodes)),
		Edges:  make([]EdgeSpec, 0, len(region.Edges)),
	}
	for i, v := range region.Nodes {
		res.Nodes[i] = int(qi.Sub.ToParent[v])
	}
	for _, ei := range region.Edges {
		e := qi.In.Edges[ei]
		res.Edges = append(res.Edges, EdgeSpec{
			U:      int(qi.Sub.ToParent[e.U]),
			V:      int(qi.Sub.ToParent[e.V]),
			Length: e.Length,
		})
	}
	// Object details race with live mutators (a concurrent Reweight swaps
	// the weight slice this reads); take the dataset read lock.
	db.ds.RLock()
	defer db.ds.RUnlock()
	for _, objID := range qi.RegionObjects(region) {
		o := db.ds.Objects[objID]
		res.Objects = append(res.Objects, ResultObject{
			ID:    int(objID),
			X:     o.Point.X,
			Y:     o.Point.Y,
			Score: qi.Prepared.Score(&o.Doc),
		})
	}
	return res
}
