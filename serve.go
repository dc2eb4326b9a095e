package repro

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/queryengine"
)

// ErrOverloaded is returned in Response.Err when the server sheds a
// request under load: the request waited in the queue longer than
// ServeOptions.MaxQueueAge. Clients should back off and retry. It aliases
// the engine's sentinel so errors.Is works across layers.
var ErrOverloaded = queryengine.ErrOverloaded

// ServeOptions configures a streaming query server (Database.Serve).
//
// At most 2×Workers requests wait for a worker; a full queue makes Do
// block (backpressure) until space frees or the request's context fires.
// Latency percentiles cover each worker's 4096 most recent requests.
type ServeOptions struct {
	// Workers is the serving-goroutine count; <= 0 means GOMAXPROCS. Each
	// request borrows a pooled planner for the time it is served, so
	// memory grows with the number of requests served concurrently — at
	// most Workers — not with traffic.
	Workers int
	// Search selects the algorithm and tuning, exactly as for Database.Do.
	// A Request may override it per request (Request.Search).
	Search SearchOptions
	// MaxQueueAge, when positive, sheds requests that waited in the queue
	// longer than this: they are answered with ErrOverloaded instead of
	// being solved, bounding the work wasted on requests whose clients
	// have likely given up. Zero disables shedding.
	MaxQueueAge time.Duration
}

// ServeStats summarizes a server's traffic so far: counters over the
// server's lifetime and request latencies (submission to answer, so
// queueing delay under load is included) over the retained window.
type ServeStats = queryengine.ServerStats

// Server is a long-lived streaming query service over one Database. Any
// number of goroutines may call Do concurrently; answers are
// bit-identical to Database.Do on the same database. Admission is
// deadline-aware: a request whose context is already done is rejected
// without dispatch, one that out-waits MaxQueueAge is shed with
// ErrOverloaded, and one cancelled mid-solve returns ctx.Err() promptly
// while the worker stays healthy. Close it when done.
type Server struct {
	db          *Database
	inner       *queryengine.Server
	search      SearchOptions
	maxQueueAge time.Duration
	matched     atomic.Int64
}

// Serve starts a streaming query server: it accepts requests from any
// number of goroutines until Close, with per-request latency tracking
// (Stats). Queued requests reach a worker oldest first.
func (db *Database) Serve(opts ServeOptions) (*Server, error) {
	return db.serve(opts, false)
}

// serve is Serve with the queue order chosen: deadlineOrdered makes idle
// workers pick up the queued request whose context deadline is earliest
// (EDF) instead of the oldest one, which cluster serving needs for its
// per-node budgets.
func (db *Database) serve(opts ServeOptions, deadlineOrdered bool) (*Server, error) {
	if _, err := toEngineOptions(opts.Search); err != nil {
		return nil, err
	}
	inner := queryengine.NewServer(db.ds, queryengine.ServerOptions{
		Workers:         opts.Workers,
		MaxQueueAge:     opts.MaxQueueAge,
		DeadlineOrdered: deadlineOrdered,
	})
	return &Server{db: db, inner: inner, search: opts.Search, maxQueueAge: opts.MaxQueueAge}, nil
}

// Do answers one request, blocking until a worker is free (that is the
// server's backpressure) and the answer is computed. ctx bounds the whole
// request — queueing included: an already-done context is rejected
// without dispatch, a context firing while blocked on a full queue gives
// up with ctx.Err(), and a cancel mid-solve is observed by the solver
// checkpoints. A zero req.Search uses the server's configured defaults;
// any other value overrides them for this request.
func (s *Server) Do(ctx context.Context, req Request) Response {
	search := s.search
	if req.Search != (SearchOptions{}) {
		search = req.Search
	}
	return s.db.answer(ctx, s, req, search)
}

// Close stops accepting requests, drains the queue, and waits for the
// workers to exit. It is idempotent and safe to call concurrently;
// Do after Close returns queryengine.ErrServerClosed.
func (s *Server) Close() {
	s.inner.Close()
}

// Stats snapshots the server's counters and latency percentiles. Matched
// is counted here: requests run through Task.Visit, which the engine's
// own matched counter does not see.
func (s *Server) Stats() ServeStats {
	st := s.inner.Stats()
	st.Matched = s.matched.Load()
	return st
}
