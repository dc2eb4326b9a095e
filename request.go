package repro

import (
	"context"
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/queryengine"
)

// Request is the unified query request: every way into the system —
// one-shot (Database.Do), streaming (Server.Do), a cluster
// (Cluster.Do), and the HTTP front end — speaks
// this shape and is answered by the same code path.
type Request struct {
	// Query is the LCMSR query ⟨ψ, ∆, Λ⟩.
	Query Query
	// Search selects the algorithm and its tuning. For Database.Do the
	// zero value selects the defaults (TGEN with the paper's knobs). For
	// Server.Do the zero value means "use the server's configured
	// defaults"; any non-zero Search overrides them for this request
	// only. Because plain TGEN defaults ARE the zero value, they cannot
	// be forced through this field on a server configured with another
	// method; the HTTP front end's method field can.
	Search SearchOptions
	// K, when > 1, asks for the top-K pairwise-disjoint regions in
	// decreasing quality order (§6.2); K <= 1 returns the single best
	// region. Either way the request runs on pooled solver state and is
	// cancelled mid-solve.
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

// Do answers one request against the database. ctx bounds the work: it
// reaches the object search (a cluster scatter included) and the solvers'
// cancellation checkpoints, so a cancelled or expired context makes Do
// return ctx.Err() in Response.Err within a bounded number of solver
// iterations, top-K requests included. Do runs in the caller's goroutine
// on a planner borrowed from the dataset's pool, the same pool a Server's
// requests borrow from; use Serve for workloads and continuous traffic.
func (db *Database) Do(ctx context.Context, req Request) Response {
	return db.answer(ctx, nil, req, req.Search)
}

// answer is the one request path — validate, instantiate, plan, solve,
// finish — behind Database.Do, Server.Do (and so Cluster.Do) and the
// HTTP front end. search is the tuning to answer with, already
// resolved against any server default. Either way the request runs on a
// planner borrowed from the dataset's pool: with srv nil in the caller's
// goroutine, otherwise queued on srv and run by a worker, where its queue
// wait is the load signal the planner degrades MethodAuto on.
func (db *Database) answer(ctx context.Context, srv *Server, req Request, search SearchOptions) Response {
	dq, err := toDatasetQuery(req.Query)
	if err != nil {
		return Response{Err: fmt.Errorf("repro: %w", err)}
	}
	dq.Trace = req.Explain
	// Validate the knobs before any instantiate work; MethodAuto is
	// resolved by planQuery once the instance size is known.
	opts, err := toEngineOptions(search)
	if err != nil {
		return Response{Err: err}
	}
	var results []*Result
	var pl *Plan
	started := time.Now()
	t := queryengine.Task{Ctx: ctx, Query: dq}
	// Visit materializes the answer while qi is still this request's: the
	// instance aliases pooled planner buffers the next request reuses.
	t.Visit = func(qi *dataset.QueryInstance) error {
		// At pressure ≥ plan.DegradePressure Auto serves one rung cheaper;
		// shedding only fires at pressure > 1, so degradation always gets
		// its chance first.
		pressure := 0.0
		if srv != nil && srv.maxQueueAge > 0 {
			pressure = float64(t.Wait) / float64(srv.maxQueueAge)
		}
		resolved, p := db.planQuery(ctx, qi, dq.Lambda, search, pressure, req.Explain)
		opts.Method = resolved.Method
		var err error
		results, err = db.solve(ctx, qi, dq.Delta, req.K, opts)
		// The trace aliases the planner; finish copies it out.
		p.finish(qi, started, t.Wait)
		pl = p
		return err
	}
	if srv != nil {
		err = srv.inner.Do(&t)
	} else {
		err = db.ds.Visit(ctx, dq, t.Visit)
	}
	if err != nil {
		return Response{Err: err}
	}
	if srv != nil && len(results) > 0 {
		srv.matched.Add(1)
	}
	return Response{Results: results, Plan: pl}
}

// solve answers a materialized query with a resolved method — the single
// best region, or the top k when k > 1 — and materializes the regions before
// the instance's pooled planner and scratch are reused.
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

// toEngineOptions maps the public SearchOptions onto the engine's Options,
// rejecting unknown methods. MethodAuto stays unresolved until planQuery
// picks a solver per request.
func toEngineOptions(opts SearchOptions) (queryengine.Options, error) {
	if opts.Method < MethodTGEN || opts.Method > MethodAuto {
		return queryengine.Options{}, fmt.Errorf("repro: unknown method %v", opts.Method)
	}
	return queryengine.Options{Method: opts.Method}, nil
}
