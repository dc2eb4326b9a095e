package queryengine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/roadnet"
)

// ErrServerClosed is returned by Do after Close.
var ErrServerClosed = errors.New("queryengine: server closed")

// ErrOverloaded is returned when the server sheds a request under load:
// the request waited in the queue longer than ServerOptions.MaxQueueAge.
// Shed requests are counted in ServerStats.Shed; clients should back off
// and retry.
var ErrOverloaded = errors.New("queryengine: server overloaded")

// ErrQueryPanic is returned to the one client whose request made a worker
// panic (a solver bug, not bad input). The blast radius stops there: the
// worker recovers, the dataset drops the possibly-poisoned planner the
// panic unwound through (the next request borrows another), and the
// worker keeps serving; other requests — past and future — are unaffected.
// Panics are counted in ServerStats.Panics.
var ErrQueryPanic = errors.New("queryengine: query panicked")

// ServerOptions configures a streaming Server.
type ServerOptions struct {
	// Workers is the number of serving goroutines; <= 0 means
	// runtime.GOMAXPROCS(0). Each request borrows a dataset.Planner from
	// the dataset's pool for the time it is served.
	Workers int
	// Options selects the algorithm for the default solve path (tasks
	// without a Visit).
	Options Options
	// Queue is the request-channel capacity. A full queue makes Do block —
	// that backpressure is the server's admission control. <= 0 means
	// 2×Workers.
	Queue int
	// MaxQueueAge, when positive, is the load-shedding threshold: a
	// request that waited longer than this between submission and pickup
	// is answered with ErrOverloaded instead of being solved. Under
	// sustained overload this bounds the work the server wastes on
	// requests whose clients have likely timed out already. Zero disables
	// shedding.
	MaxQueueAge time.Duration
	// LatencyWindow is the number of per-worker latency samples retained
	// for percentile reporting (a ring buffer of the most recent requests);
	// <= 0 means 4096.
	LatencyWindow int
	// DeadlineOrdered, when set, serves queued requests earliest-deadline-
	// first instead of FIFO: a dispatcher moves requests from the admission
	// channel into a deadline-ordered heap and workers pop from it.
	// Requests without a deadline sort after every request with one; ties
	// (equal deadlines, or all-deadline-free) fall back to admission order.
	// The heap is bounded at Queue and the admission channel is unbuffered
	// in this mode, so the total waiting backlog stays capped by Queue
	// (plus the one request in the dispatcher's hand) and Do blocks on a
	// full backlog exactly as in FIFO mode; shedding is unchanged — only
	// the order in which waiting requests reach a worker differs.
	DeadlineOrdered bool
}

// Task is one streamed query request. A Task is reusable: submitting the
// same Task again through Do reuses its internal completion channel and the
// Result's Nodes backing array, so a caller replaying queries through one
// Task allocates nothing per request.
type Task struct {
	// Query is the request.
	Query dataset.Query
	// Ctx, when non-nil, bounds the request: a context that is already
	// done at submission is rejected without dispatch, cancellation while
	// queued is observed at pickup, and cancellation mid-solve is observed
	// by the solver checkpoints, all surfacing ctx.Err(). nil means
	// context.Background() (never cancelled).
	Ctx context.Context
	// Visit, when non-nil, replaces the default solve: it runs on the
	// worker goroutine with the materialized working graph, which aliases
	// the request's borrowed planner buffers and is valid only for the
	// duration of the call. The caller typically runs Solve itself and
	// consumes the region in place.
	Visit func(qi *dataset.QueryInstance) error
	// Result holds the default-path outcome after Do returns (zero value
	// when Visit was set or no region matched). A matched Result's Nodes
	// aliases the task's pooled backing array and is valid until the task
	// is submitted again.
	Result Result
	// Wait is the queue delay the worker observed at pickup — the time
	// between submission and the start of service. It is written by the
	// worker before the shedding check and before Visit runs, so a Visit
	// callback can read it as its load signal (Wait / MaxQueueAge is the
	// pressure that reaches 1.0 exactly at the shedding threshold). Valid
	// during Visit and after Do returns, until the task is resubmitted.
	Wait time.Duration

	start time.Time
	done  chan error
	nodes []roadnet.NodeID // pooled Result.Nodes backing array
}

// ctx returns the task's context, defaulting to Background.
func (t *Task) ctx() context.Context {
	if t.Ctx != nil {
		return t.Ctx
	}
	return context.Background()
}

// Server answers a continuous stream of LCMSR queries. Requests enter
// through a bounded channel and are picked up by a fixed pool of workers;
// each request borrows a pooled dataset.Planner from the dataset for the
// time it is served (Dataset.Visit), so the steady-state search path
// (query preparation, grid search, subgraph extraction, instance build) is
// allocation-free. Results are bit-identical to a serial Instantiate +
// Solve loop on the same dataset: the shared state is immutable and all
// per-query computation is deterministic, so scheduling cannot change
// answers.
//
// Admission control is deadline-aware: a request whose context is already
// done is rejected without dispatch, a request still queued past
// MaxQueueAge is shed with ErrOverloaded, and a request cancelled
// mid-solve returns ctx.Err() within a bounded number of solver
// iterations (the worker and its scratch stay healthy and serve the next
// request with bit-identical results).
//
// A Server must be Closed when done; Close drains queued requests and waits
// for the workers to exit.
type Server struct {
	d           *dataset.Dataset
	opts        Options
	maxQueueAge time.Duration

	tasks    chan *Task
	edf      *edfQueue // non-nil when DeadlineOrdered: workers pop here
	workers  []*workerState
	rejected atomic.Int64 // admission rejections (context done before dispatch)

	mu     sync.RWMutex // guards closed vs. in-flight sends
	closed bool
	wg     sync.WaitGroup
}

// workerState is one worker's latency/match bookkeeping. The ring buffer is
// preallocated so recording a sample never allocates.
type workerState struct {
	mu      sync.Mutex
	lat     []time.Duration // ring of the most recent samples
	next    int             // overwrite cursor once the ring is full
	served  int64
	matched int64
	errors  int64
	shed    int64
	panics  int64
}

func (ws *workerState) record(d time.Duration, matched, errored bool) {
	ws.mu.Lock()
	if len(ws.lat) < cap(ws.lat) {
		ws.lat = append(ws.lat, d)
	} else if len(ws.lat) > 0 {
		ws.lat[ws.next] = d
		ws.next++
		if ws.next == len(ws.lat) {
			ws.next = 0
		}
	}
	ws.served++
	if matched {
		ws.matched++
	}
	if errored {
		ws.errors++
	}
	ws.mu.Unlock()
}

// recordShed counts a request shed at pickup; no latency sample is taken
// because the request was never served.
func (ws *workerState) recordShed() {
	ws.mu.Lock()
	ws.shed++
	ws.mu.Unlock()
}

// recordRejected counts a request found dead (context done) at pickup.
// Like a shed request it was never served, so it takes no latency sample
// and does not count as Served — a queue full of expired requests must
// not drag the reported percentiles below real service latency.
func (ws *workerState) recordRejected() {
	ws.mu.Lock()
	ws.errors++
	ws.mu.Unlock()
}

// NewServer starts a streaming query server over d. The returned server is
// immediately ready; callers submit through Do from any number of
// goroutines and must Close it when done.
func NewServer(d *dataset.Dataset, opts ServerOptions) *Server {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	queue := opts.Queue
	if queue <= 0 {
		queue = 2 * workers
	}
	window := opts.LatencyWindow
	if window <= 0 {
		window = 4096
	}
	s := &Server{
		d:           d,
		opts:        opts.Options,
		maxQueueAge: opts.MaxQueueAge,
	}
	if opts.DeadlineOrdered {
		// The waiting backlog lives in the bounded heap, so the channel is
		// a pure handoff: buffering it too would double the effective queue
		// capacity behind the caller's back.
		s.tasks = make(chan *Task)
		s.edf = newEDFQueue(queue)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for t := range s.tasks {
				s.edf.push(t) // blocks while the heap is full: backpressure
			}
			s.edf.close()
		}()
	} else {
		s.tasks = make(chan *Task, queue)
	}
	for i := 0; i < workers; i++ {
		ws := &workerState{lat: make([]time.Duration, 0, window)}
		s.workers = append(s.workers, ws)
		s.wg.Add(1)
		go s.worker(ws)
	}
	return s
}

// Do submits t and blocks until it is served, returning the per-query
// error. Latency is measured from submission, so queueing delay under
// backpressure is part of the reported percentiles. A task whose context
// is already done is rejected with ctx.Err() without dispatch; a task
// blocked on a full queue gives up with ctx.Err() when the context fires
// first. Once dispatched, Do waits for the worker's answer — cancellation
// is then honored by the worker (at pickup and in the solver
// checkpoints), which keeps a reused Task's memory owned by exactly one
// side at a time. Do is safe for concurrent use with distinct Tasks; a
// single Task must not be submitted concurrently with itself.
func (s *Server) Do(t *Task) error {
	ctx := t.ctx()
	if err := ctx.Err(); err != nil {
		s.rejected.Add(1)
		return err
	}
	if t.done == nil {
		t.done = make(chan error, 1)
	}
	t.start = time.Now()
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrServerClosed
	}
	select {
	case s.tasks <- t:
		s.mu.RUnlock()
	case <-ctx.Done():
		s.mu.RUnlock()
		s.rejected.Add(1)
		return ctx.Err()
	}
	return <-t.done
}

// Close stops accepting new requests, serves everything already queued,
// and waits for the workers to exit. It is idempotent and safe to call
// concurrently.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.tasks)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// worker serves tasks until the queue closes. In FIFO mode tasks come
// straight off the admission channel; in deadline-ordered mode they come
// off the EDF heap the dispatcher feeds.
func (s *Server) worker(ws *workerState) {
	defer s.wg.Done()
	for {
		var t *Task
		var ok bool
		if s.edf != nil {
			t, ok = s.edf.pop()
		} else {
			t, ok = <-s.tasks
		}
		if !ok {
			return
		}
		t.done <- s.serveSafe(ws, t)
	}
}

// serveSafe runs serve with a recover backstop: a panicking solver fails
// only its own request (ErrQueryPanic) instead of crashing the process and
// every in-flight query with it. The dataset drops the planner the panic
// unwound through, so later answers stay bit-identical to an unpoisoned
// server's.
func (s *Server) serveSafe(ws *workerState, t *Task) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrQueryPanic, r)
			ws.mu.Lock()
			ws.served++
			ws.errors++
			ws.panics++
			ws.mu.Unlock()
		}
	}()
	return s.serve(ws, t)
}

// serve answers one task on a planner borrowed from the dataset and
// records its latency.
func (s *Server) serve(ws *workerState, t *Task) error {
	t.Result = Result{} // a reused Task must never carry a stale answer
	t.Wait = time.Since(t.start)
	ctx := t.ctx()
	// Shed before touching the planner: a request that went stale in the
	// queue (dead context, or older than the shedding threshold) is not
	// worth solving.
	if err := ctx.Err(); err != nil {
		ws.recordRejected()
		return err
	}
	if s.maxQueueAge > 0 && t.Wait > s.maxQueueAge {
		ws.recordShed()
		return ErrOverloaded
	}
	matched := false
	err := s.d.Visit(ctx, t.Query, func(qi *dataset.QueryInstance) error {
		if t.Visit != nil {
			return t.Visit(qi)
		}
		region, err := Solve(ctx, qi, t.Query.Delta, s.opts)
		if err == nil && region != nil {
			matched = true
			nodes := t.nodes[:0] // reuse the task's pooled backing array
			for _, v := range region.Nodes {
				nodes = append(nodes, qi.Sub.ToParent[v])
			}
			t.nodes = nodes
			t.Result = Result{Matched: true, Score: region.Score, Length: region.Length, Nodes: nodes}
		}
		return err
	})
	ws.record(time.Since(t.start), matched, err != nil)
	return err
}
