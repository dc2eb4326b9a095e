// Package plan is the cost-based query planner behind Method = Auto: it
// turns the grid's directory statistics into per-method cost estimates
// and picks the solver a request can afford within its deadline.
//
// The three solvers form a quality/cost ladder. APP (§4) is the only one
// with a provable (5+ε) approximation bound, and the most expensive.
// TGEN (§5) is the paper's best practical heuristic — near-APP quality
// at a fraction of the cost — and the server's default. Greedy (§6.1)
// is the cheap floor. Auto walks the ladder top-down: the most expensive
// method whose estimated cost, with headroom, fits the request's budget
// wins. Under queue pressure the choice degrades one rung instead of
// letting the request age toward the shedding threshold — a cheaper
// answer beats ErrOverloaded.
//
// Everything here is pure computation on value types: no allocation, no
// locks, no clocks. Estimates and choices for the same inputs are
// identical across runs, which is what lets Auto be golden-tested
// bit-identical against direct method selection. The caller owns every
// value; nothing is pooled or retained.
package plan

import (
	"fmt"
	"time"

	"repro/internal/grid"
	"repro/internal/queryengine"
)

// DefaultBudget is the solve budget assumed for requests that carry no
// deadline and set no explicit budget. It is deliberately generous: an
// undeclared deadline should get the best affordable answer, not a
// panicked cheap one.
const DefaultBudget = time.Second

// Headroom is the safety factor between an estimate and the budget it
// must fit: a method is affordable when Headroom × estimate ≤ budget.
// Estimates come from directory counts, not measurements, so spending at
// most half the budget on the model's say-so keeps a mis-estimate from
// blowing the deadline.
const Headroom = 2

// DegradePressure is the queue-pressure threshold at which Auto degrades
// its choice one rung (APP→TGEN, TGEN→Greedy). Pressure is queue wait
// over the shedding threshold (MaxQueueAge), so degradation at 0.5
// structurally fires before shedding at 1.0: a server under building
// load serves cheaper answers first and sheds only when even that cannot
// keep up.
const DegradePressure = 0.5

// CostModel converts directory statistics into per-method durations. The
// zero value is not useful; start from Default. Fields are plain values —
// copy freely, no ownership rules.
type CostModel struct {
	// SearchPerList and SearchPerPosting price the grid search: per
	// posting list fetched and per posting accumulated.
	SearchPerList    time.Duration
	SearchPerPosting time.Duration
	// GreedyPerNode, TGENPerNode and APPPerNode price each solver per
	// working-graph node. They must be strictly increasing in that order
	// so the estimate ladder (Greedy < TGEN < APP) is strict too.
	GreedyPerNode time.Duration
	TGENPerNode   time.Duration
	APPPerNode    time.Duration
}

// Default is the cost model Auto ships with. Only the ratios between its
// constants carry information: they order the methods (Greedy < TGEN < APP)
// and were sized on microsecond-scale solves of a small dataset. In
// absolute terms the model is far off at realistic sizes — on a ~290-node
// viewport TGEN and APP cost tens of µs per node, not 150 ns and 700 ns —
// and the benchmark reports by how much as plan.log2_err_p50 (see
// bench/README.md; about 8 doublings under on solve_tgen). So an Estimate
// ranks methods; it is not a latency to hold against a real deadline. The
// Auto goldens pin these values: correcting the model is a change of its
// own.
func Default() CostModel {
	return CostModel{
		SearchPerList:    200 * time.Nanosecond,
		SearchPerPosting: 2 * time.Nanosecond,
		GreedyPerNode:    5 * time.Nanosecond,
		TGENPerNode:      150 * time.Nanosecond,
		APPPerNode:       700 * time.Nanosecond,
	}
}

// Estimate is the model's prediction for one request: the instance size
// it was computed from and the end-to-end (search + solve) duration per
// method. Greedy < TGEN < APP always holds strictly.
type Estimate struct {
	// Nodes is the working-graph size the solve estimates used: the
	// actual instance size when known, otherwise the directory-based
	// candidate bound.
	Nodes int64
	// Search is the grid-search share, common to all methods.
	Search time.Duration
	// Greedy, TGEN and APP are the per-method end-to-end estimates.
	Greedy time.Duration
	TGEN   time.Duration
	APP    time.Duration
}

// Of returns the estimate for m (MethodAuto is not a solver and panics).
func (e Estimate) Of(m queryengine.Method) time.Duration {
	switch m {
	case queryengine.MethodGreedy:
		return e.Greedy
	case queryengine.MethodTGEN:
		return e.TGEN
	case queryengine.MethodAPP:
		return e.APP
	}
	panic(fmt.Sprintf("plan: no estimate for method %v", m))
}

// Estimate prices a request from the grid's directory walk. nodes is the
// instance's working-graph node count when the caller already
// instantiated (the serving path chooses post-search, so it knows);
// nodes <= 0 falls back to the directory's posting count as the
// candidate-object bound — cells overlapped × postings per cell is
// exactly what se carries. The result is deterministic in its inputs.
func (m CostModel) Estimate(se grid.SearchEstimate, nodes int) Estimate {
	n := int64(nodes)
	if n <= 0 {
		n = se.Postings
	}
	if n < 1 {
		n = 1
	}
	search := time.Duration(se.Lists)*m.SearchPerList + time.Duration(se.Postings)*m.SearchPerPosting
	return Estimate{
		Nodes:  n,
		Search: search,
		Greedy: search + time.Duration(n)*m.GreedyPerNode,
		TGEN:   search + time.Duration(n)*m.TGENPerNode,
		APP:    search + time.Duration(n)*m.APPPerNode,
	}
}

// Choice is one planning decision: the solver to run, the human-readable
// reason, and whether load pressure degraded the budget-affordable pick.
// A Choice is a value; the Reason string is freshly formatted per call
// and owned by the caller.
type Choice struct {
	// Method is the solver to run (never MethodAuto).
	Method queryengine.Method
	// Estimated is the model's end-to-end estimate for Method.
	Estimated time.Duration
	// Degraded reports that pressure pushed the choice one rung below
	// what the budget alone would have afforded.
	Degraded bool
	// Reason explains the decision in one line, for EXPLAIN output.
	Reason string
}

// Choose picks the solver for one request: the most expensive method
// whose Headroom-padded estimate fits budget, degraded one rung when
// pressure ≥ DegradePressure. budget <= 0 means DefaultBudget; pressure
// is the request's queue wait over the shedding threshold (0 when the
// server does not shed). Deterministic in its inputs.
func Choose(est Estimate, budget time.Duration, pressure float64) Choice {
	if budget <= 0 {
		budget = DefaultBudget
	}
	var c Choice
	switch {
	case Headroom*est.APP <= budget:
		c.Method = queryengine.MethodAPP
		c.Reason = fmt.Sprintf("app: provable bound affordable (%d×%v ≤ budget %v)", Headroom, est.APP, budget)
	case Headroom*est.TGEN <= budget:
		c.Method = queryengine.MethodTGEN
		c.Reason = fmt.Sprintf("tgen: app over budget (%d×%v > %v), tgen fits (%d×%v ≤ %v)",
			Headroom, est.APP, budget, Headroom, est.TGEN, budget)
	default:
		c.Method = queryengine.MethodGreedy
		c.Reason = fmt.Sprintf("greedy: only method within budget (%d×tgen %v > %v)", Headroom, est.TGEN, budget)
	}
	if pressure >= DegradePressure {
		switch c.Method {
		case queryengine.MethodAPP:
			c.Method = queryengine.MethodTGEN
			c.Degraded = true
			c.Reason += fmt.Sprintf("; degraded app→tgen under load (pressure %.2f ≥ %.2f)", pressure, DegradePressure)
		case queryengine.MethodTGEN:
			c.Method = queryengine.MethodGreedy
			c.Degraded = true
			c.Reason += fmt.Sprintf("; degraded tgen→greedy under load (pressure %.2f ≥ %.2f)", pressure, DegradePressure)
		}
	}
	c.Estimated = est.Of(c.Method)
	return c
}
