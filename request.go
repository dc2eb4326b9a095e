package repro

import (
	"context"
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/queryengine"
)

// Request is the unified query request: every way into the system —
// one-shot (Database.Do), batch (Database.RunBatch), streaming
// (Server.Do), and the HTTP front end — speaks this shape. Run, RunTopK
// and Submit remain as thin wrappers over it.
type Request struct {
	// Query is the LCMSR query ⟨ψ, ∆, Λ⟩.
	Query Query
	// Search selects the algorithm and its tuning. For Database.Do the
	// zero value selects the defaults (TGEN with the paper's knobs). For
	// Server.Do the zero value means "use the server's configured
	// defaults"; any non-zero Search overrides them for this request
	// only. Because plain TGEN defaults ARE the zero value, they cannot
	// be forced through this field on a server configured with another
	// method — use Server.DoWithOptions for that.
	Search SearchOptions
	// K, when > 1, asks for the top-K pairwise-disjoint regions in
	// decreasing quality order (§6.2); K <= 1 returns the single best
	// region. Either way the request runs on the worker's pooled solver
	// state and is cancelled mid-solve.
	K int
	// Explain asks for an EXPLAIN annotation: the answered Response
	// carries a Plan describing the method choice, estimated vs. actual
	// cost, and what the search scanned vs. skipped. Results are
	// bit-identical with or without it; the plan costs one allocation and
	// some counters, paid only by requests that opt in.
	Explain bool
}

// Response is the unified query outcome. Results is empty when no object
// inside Q.Λ matches the keywords (and Err is nil — an empty answer is
// not an error), or when Err is set.
type Response struct {
	// Results holds up to max(1, K) regions, best first.
	Results []*Result
	// Err is the request error: validation, solver failure, ctx.Err()
	// after a cancellation or missed deadline, or ErrOverloaded when the
	// server shed the request.
	Err error
	// Plan is the EXPLAIN annotation, set only when the request asked for
	// it (Request.Explain) and was answered (nil on error). The caller
	// owns it; nothing in it aliases pooled serving state.
	Plan *Plan
}

// Best returns the best region of the response, or nil when the response
// is empty or errored.
func (r Response) Best() *Result {
	if len(r.Results) == 0 {
		return nil
	}
	return r.Results[0]
}

// Do answers one request against the database. ctx bounds the work: the
// solvers carry cancellation checkpoints, so a cancelled or expired
// context makes Do return ctx.Err() in Response.Err within a bounded
// number of solver iterations, top-K requests included. Do is the one-shot
// form; use RunBatch for workloads and Serve for continuous traffic.
func (db *Database) Do(ctx context.Context, req Request) Response {
	dq, err := toDatasetQuery(req.Query)
	if err != nil {
		return Response{Err: fmt.Errorf("repro: %w", err)}
	}
	dq.Trace = req.Explain
	search := req.Search
	// Validate the tuning knobs (and any concrete method) before doing
	// instantiate work. MethodAuto is resolved after instantiation, when
	// the instance size is known, so it is probed as its cheapest
	// resolution here.
	probe := search
	if probe.Method == MethodAuto {
		probe.Method = MethodTGEN
	}
	if _, err := toEngineOptions(probe, 1); err != nil {
		return Response{Err: err}
	}
	started := time.Now()
	qi, err := db.ds.Instantiate(dq)
	if err != nil {
		return Response{Err: err}
	}
	search, pl := db.planQuery(ctx, qi, dq.Lambda, search, 0, req.Explain)
	qeOpts, err := toEngineOptions(search, 1)
	if err != nil {
		return Response{Err: err}
	}
	results, err := db.solve(ctx, qi, dq.Delta, req.K, qeOpts)
	if err != nil {
		return Response{Err: err}
	}
	pl.finish(qi, started, 0)
	return Response{Results: results, Plan: pl}
}

// solve answers a materialized query with a resolved method — the single
// best region, or the top k when k > 1 — and materializes the regions before
// the instance's pooled planner and scratch are reused; shared by
// Database.Do and Server.Do.
func (db *Database) solve(ctx context.Context, qi *dataset.QueryInstance, delta float64, k int, opts queryengine.Options) ([]*Result, error) {
	if k <= 1 {
		region, err := queryengine.Solve(ctx, qi, delta, opts)
		if err != nil || region == nil {
			return nil, err
		}
		return []*Result{db.materialize(qi, region)}, nil
	}
	regions, err := queryengine.SolveTopK(ctx, qi, delta, k, opts)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, 0, len(regions))
	for _, r := range regions {
		out = append(out, db.materialize(qi, r))
	}
	return out, nil
}
