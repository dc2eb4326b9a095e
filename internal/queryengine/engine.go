// Package queryengine answers LCMSR queries on a pool of workers: Server is
// a long-lived service fed through a bounded request channel, with
// deadline-aware admission, load shedding, graceful shutdown and
// per-request latency percentiles. Package repro's Database.Serve and
// Cluster both run on it; Solve and SolveTopK are the one
// method dispatch every request path shares, and Method (with
// ParseMethod) is the one method enum, which package repro re-exports.
//
// Each request borrows a dataset.Planner — a pooled extractor, instance,
// query/search and solver scratch, and buffers — from the dataset's pool
// (Dataset.Visit) and gives it back when answered, so steady-state query
// execution reuses memory instead of allocating per query, and throughput
// scales with worker count while results stay bit-identical to a serial
// loop.
//
// # Concurrency model and pooling ownership
//
// The Dataset (graph, vocabulary, grid index) is shared by all workers;
// searches take the index's read lock, so live updates never interleave
// with one. The grid's MemStore is safe for concurrent reads, and
// ShardedStore stripes cells across independently locked shards so
// workers' cold posting fetches only contend when they hit the same shard.
// All mutable per-query state lives in the borrowed Planner, which only
// the borrowing request touches; the QueryInstance handed to Task.Visit
// aliases that planner's buffers and is valid only for the duration of
// the call. Extraction, scoring and the solvers are
// deterministic and every request is answered from the same immutable
// state, so scheduling cannot change an answer.
package queryengine

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/roadnet"
)

// Method selects the query-answering algorithm.
type Method int

const (
	// MethodTGEN is the tuple-generation heuristic (§5) — the best
	// accuracy and efficiency in the paper's study, and the default.
	MethodTGEN Method = iota
	// MethodAPP is the (5+ε)-approximation algorithm (§4).
	MethodAPP
	// MethodGreedy is the fast, lower-accuracy greedy expansion (§6.1).
	MethodGreedy
	// MethodAuto defers the choice to the cost planner (package plan): per
	// request, the planner estimates each solver's cost from the grid's
	// term directories and the instance size, picks the most expensive
	// method affordable within the request's budget, and degrades one
	// rung under queue pressure instead of shedding. It is not a solver:
	// Solve and SolveTopK reject it, so it must be resolved first.
	MethodAuto
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodTGEN:
		return "TGEN"
	case MethodAPP:
		return "APP"
	case MethodGreedy:
		return "Greedy"
	case MethodAuto:
		return "Auto"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// ParseMethod parses a method name, case-insensitively, round-tripping
// Method.String: ParseMethod(m.String()) == m for every defined method.
// It is the one place method names are spelled out — the CLI flag parser
// and the HTTP front end both use it.
func ParseMethod(s string) (Method, error) {
	switch strings.ToLower(s) {
	case "tgen":
		return MethodTGEN, nil
	case "app":
		return MethodAPP, nil
	case "greedy":
		return MethodGreedy, nil
	case "auto":
		return MethodAuto, nil
	default:
		return 0, fmt.Errorf("unknown method %q (want TGEN, APP, Greedy, or Auto)", s)
	}
}

// Options selects the algorithm for one solve. Every method runs with
// the paper's defaults (core.APPOptions, core.TGENOptions and
// core.GreedyOptions at their zero values).
type Options struct {
	// Method picks the algorithm (default MethodTGEN).
	Method Method
}

// Result is the outcome of one query on the Server's default solve path,
// expressed in parent (road-network) node IDs so it is comparable across
// runs.
type Result struct {
	// Matched reports whether any region matched the query.
	Matched bool
	// Score is the region's total weight Σ σv.
	Score float64
	// Length is the region's total road length.
	Length float64
	// Nodes are the parent node IDs of the region, ascending.
	Nodes []roadnet.NodeID
}

// Solve runs the configured algorithm on one materialized query. The
// Server's default path and every Task.Visit in package repro share this
// dispatch so method selection lives in one place. The solve runs on the
// instance's SolveScratch (set by Planner.Instantiate and Detach): zero
// steady-state allocations and mid-solve cancellation — a cancelled ctx
// makes Solve return ctx.Err() within a bounded number of solver
// iterations. The returned region is valid only until the next solve on
// the same scratch.
func Solve(ctx context.Context, qi *dataset.QueryInstance, delta float64, opts Options) (*core.Region, error) {
	switch opts.Method {
	case MethodAPP:
		return core.SolveAPP(ctx, qi.Scratch, qi.In, delta, core.APPOptions{})
	case MethodGreedy:
		return core.SolveGreedy(ctx, qi.Scratch, qi.In, delta, core.GreedyOptions{})
	case MethodTGEN:
		return core.SolveTGEN(ctx, qi.Scratch, qi.In, delta, core.TGENOptions{})
	default:
		return nil, fmt.Errorf("unknown method %v", opts.Method)
	}
}

// SolveTopK is Solve for the top-k query (§6.2): up to k pairwise-disjoint
// regions, best first, from the same scratch under the same allocation,
// cancellation and lifetime rules.
func SolveTopK(ctx context.Context, qi *dataset.QueryInstance, delta float64, k int, opts Options) ([]*core.Region, error) {
	switch opts.Method {
	case MethodAPP:
		return core.SolveTopK(ctx, qi.Scratch, qi.In, delta, k, core.APPOptions{})
	case MethodGreedy:
		return core.SolveTopK(ctx, qi.Scratch, qi.In, delta, k, core.GreedyOptions{})
	case MethodTGEN:
		return core.SolveTopK(ctx, qi.Scratch, qi.In, delta, k, core.TGENOptions{})
	default:
		return nil, fmt.Errorf("unknown method %v", opts.Method)
	}
}
