package repro

import (
	"context"
	"time"

	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/plan"
)

// Plan is the EXPLAIN annotation of one answered request: which solver
// ran and why, what the cost model predicted versus what the request
// actually cost, and what the search scanned versus skipped — rectangle
// prunes, term-directory misses, score-cache hits, and (in a cluster)
// routing skips. It is attached to Response.Plan only when
// Request.Explain was set; with Explain off no Plan is built and the
// served path stays allocation-free.
//
// Ownership: a Plan is freshly allocated per explained request and owned
// by the caller. Nothing in it aliases pooled planner or scratch state,
// so it stays valid indefinitely — keep it, log it, marshal it.
type Plan struct {
	// Method is the solver that answered the request. With MethodAuto it
	// is the planner's resolved choice (never Auto itself); Auto reports
	// which way the method was picked.
	Method Method
	Auto   bool
	// Degraded reports that queue pressure pushed an Auto choice one rung
	// below what the budget alone afforded (APP→TGEN or TGEN→Greedy).
	Degraded bool
	// Reason is the planner's one-line explanation of the choice (for
	// client-requested methods: "method requested by client").
	Reason string
	// Budget is the solve budget the planner chose against; Pressure is
	// the queue-age load signal (queue wait over the shedding threshold,
	// 0 on the unqueued Database.Do path).
	Budget   time.Duration
	Pressure float64
	// EstimatedCost is the model's end-to-end (search + solve) estimate
	// for the chosen method; ActualCost is the measured service time,
	// queue wait excluded. EstGreedy/EstTGEN/EstAPP are the per-method
	// estimates the choice compared.
	EstimatedCost time.Duration
	ActualCost    time.Duration
	EstGreedy     time.Duration
	EstTGEN       time.Duration
	EstAPP        time.Duration
	// Nodes is the working-graph size the solve estimates used.
	Nodes int

	// Search trace: every cell the rectangle walk visited landed in
	// exactly one bucket — scanned (posting lists fetched), or skipped
	// because its directory was empty, shared no query term, or replayed
	// from the score cache.
	CellsInRect        int64
	CellsScanned       int64
	CellsSkippedEmpty  int64
	CellsSkippedNoTerm int64
	CellsSkippedCache  int64
	// PostingLists / Postings are the lists fetched and postings
	// accumulated; PostingsFiltered of them were rejected by the exact
	// rectangle check (boundary cells). Candidates is the distinct
	// matching objects found.
	PostingLists     int64
	Postings         int64
	PostingsFiltered int64
	Candidates       int64

	// Cluster is the coordinator's routing fragment, present only when
	// the request was served by a cluster.
	Cluster *ClusterPlan
}

// ClusterPlan is the coordinator-side slice of a Plan: how the scattered
// search was routed. Node-side scan counters are already merged into the
// Plan's cell/posting fields (summed across contacted nodes).
type ClusterPlan struct {
	// GroupsContacted replica groups answered partial searches; the
	// skipped ones were pruned by cell-range ∩ rectangle (SkippedRect) or
	// by the group's term-directory summary (SkippedTerm).
	GroupsContacted   int64
	GroupsSkippedRect int64
	GroupsSkippedTerm int64
}

// CellsSkipped sums the skipped-cell buckets — cells the walk visited but
// whose posting lists were never fetched.
func (p *Plan) CellsSkipped() int64 {
	return p.CellsSkippedEmpty + p.CellsSkippedNoTerm + p.CellsSkippedCache
}

// resolveBudget picks the planning budget: an explicit SearchOptions
// .Budget wins, else the context deadline's remaining time, else zero
// (plan.Choose substitutes its generous default).
func resolveBudget(ctx context.Context, search SearchOptions) time.Duration {
	if search.Budget > 0 {
		return search.Budget
	}
	if dl, ok := ctx.Deadline(); ok {
		return time.Until(dl)
	}
	return 0
}

// planQuery is the per-request planning step, run after instantiation
// (when the instance size is known) and before the solve. It resolves
// MethodAuto against the cost model and, when explain is set, allocates
// the request's Plan. For concrete methods without explain it is a no-op
// returning (search, nil) — the hot path never reaches the estimator.
func (db *Database) planQuery(ctx context.Context, qi *dataset.QueryInstance, lambda geo.Rect, search SearchOptions, pressure float64, explain bool) (SearchOptions, *Plan) {
	auto := search.Method == MethodAuto
	if !auto && !explain {
		return search, nil
	}
	se := db.ds.Index.EstimateSearch(qi.Prepared, lambda)
	est := plan.Default().Estimate(se, qi.In.NumNodes)
	budget := resolveBudget(ctx, search)
	var pl *Plan
	if explain {
		shown := budget
		if shown <= 0 {
			shown = plan.DefaultBudget
		}
		pl = &Plan{
			Auto:      auto,
			Budget:    shown,
			Pressure:  pressure,
			EstGreedy: est.Greedy,
			EstTGEN:   est.TGEN,
			EstAPP:    est.APP,
			Nodes:     int(est.Nodes),
		}
	}
	if auto {
		choice := plan.Choose(est, budget, pressure)
		search.Method = choice.Method
		if pl != nil {
			pl.Method = search.Method
			pl.Reason = choice.Reason
			pl.Degraded = choice.Degraded
			pl.EstimatedCost = choice.Estimated
		}
	} else if pl != nil {
		pl.Method = search.Method
		pl.Reason = "method requested by client"
		pl.EstimatedCost = est.Of(search.Method)
	}
	return search, pl
}

// finish completes a Plan after the solve: the measured cost and the
// search-trace counters. It must run while qi is still valid (before the
// owning planner's next Instantiate), because qi.SearchTrace aliases
// pooled planner state; the counters are copied out here, which is what
// frees the finished Plan from any aliasing. nil-safe: finishing a nil
// plan (Explain off) does nothing.
func (pl *Plan) finish(qi *dataset.QueryInstance, started time.Time, wait time.Duration) {
	if pl == nil {
		return
	}
	actual := time.Since(started) - wait
	if actual < 0 {
		actual = 0
	}
	pl.ActualCost = actual
	tr := qi.SearchTrace
	if tr == nil {
		return
	}
	pl.CellsInRect = tr.CellsInRect
	pl.CellsScanned = tr.CellsScanned
	pl.CellsSkippedEmpty = tr.CellsEmpty
	pl.CellsSkippedNoTerm = tr.CellsNoTerm
	pl.CellsSkippedCache = tr.CellsCacheHit
	pl.PostingLists = tr.Lists
	pl.Postings = tr.Postings
	pl.PostingsFiltered = tr.PostingsFiltered
	pl.Candidates = tr.Objects
	if tr.GroupsContacted+tr.GroupsSkippedRect+tr.GroupsSkippedTerm > 0 {
		pl.Cluster = &ClusterPlan{
			GroupsContacted:   tr.GroupsContacted,
			GroupsSkippedRect: tr.GroupsSkippedRect,
			GroupsSkippedTerm: tr.GroupsSkippedTerm,
		}
	}
}
