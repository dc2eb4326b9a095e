package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/textindex"
)

// Coordinator fronts a set of nodes that together own the whole cell
// space. Per query it decides which replica groups are needed (rectangle
// ∩ owned cells non-empty AND the group's term directory shares a term
// with the query — both checks run on metadata the nodes shipped at
// Hello, so skipped nodes cost nothing), scatters partial searches with
// the request's deadline, gathers, and merges.
//
// Replicas: nodes reporting the same cell range form a replica group and
// are interchangeable. Routing within a group is power-of-two-choices on
// in-flight counts; a replica that fails a request with a retryable error
// (connection failure, or a typed grid.ErrShardIO from its store) is
// retried on the group's other replicas, and only when every replica has
// failed does the query fail — typed ErrNoReplica, never a silently
// partial answer.
type Coordinator struct {
	cfg    CoordinatorConfig
	groups []*replicaGroup // sorted by cellLo; tiles [0, numCells)

	searches    atomic.Int64
	skippedRect atomic.Int64
	skippedTerm atomic.Int64
	retries     atomic.Int64
	noReplica   atomic.Int64

	quotas *quotaTable // nil when quotas are disabled

	closed atomic.Bool
}

// CoordinatorConfig configures NewCoordinator.
type CoordinatorConfig struct {
	// Addrs lists the node addresses (host:port). Nodes reporting the same
	// cell range become replicas of each other.
	Addrs []string
	// Index is the coordinator's local index, used only for routing
	// metadata (cell count, rectangle→cell-range intersection); no search
	// runs on it.
	Index *grid.Index
	// Objects is the expected corpus size; nodes that disagree are refused
	// (ErrMismatch) — a coordinator and node built from different datasets
	// would silently mis-answer otherwise.
	Objects int
	// DialTimeout bounds each connection attempt; <= 0 means 5s.
	DialTimeout time.Duration
	// RPCTimeout bounds a node RPC when the request context carries no
	// deadline; <= 0 means 10s.
	RPCTimeout time.Duration
	// Quota, when non-nil, enables per-client token-bucket admission.
	Quota *QuotaOptions
}

// replicaGroup is one owned cell range and the replicas serving it.
type replicaGroup struct {
	lo, hi   uint32
	terms    map[textindex.TermID]struct{}
	replicas []*nodeClient
}

// nodeClient is the coordinator's handle on one node process: its
// address, a small pool of idle connections, and routing/latency state.
type nodeClient struct {
	addr string

	mu     sync.Mutex
	idle   []net.Conn
	closed bool // set by closeIdle: stop pooling, fail new requests

	inflight atomic.Int64
	sent     atomic.Int64
	errors   atomic.Int64

	latMu   sync.Mutex
	lat     []time.Duration
	latNext int
	latCap  int
}

func (nc *nodeClient) record(d time.Duration) {
	nc.latMu.Lock()
	if len(nc.lat) < nc.latCap {
		nc.lat = append(nc.lat, d)
	} else if len(nc.lat) > 0 {
		nc.lat[nc.latNext] = d
		nc.latNext = (nc.latNext + 1) % len(nc.lat)
	}
	nc.latMu.Unlock()
}

// get returns an idle pooled connection or dials a fresh one; pooled
// reports which. After closeIdle it fails with ErrCoordinatorClosed.
func (nc *nodeClient) get(timeout time.Duration) (c net.Conn, pooled bool, err error) {
	nc.mu.Lock()
	if nc.closed {
		nc.mu.Unlock()
		return nil, false, ErrCoordinatorClosed
	}
	if l := len(nc.idle); l > 0 {
		c = nc.idle[l-1]
		nc.idle = nc.idle[:l-1]
		nc.mu.Unlock()
		return c, true, nil
	}
	nc.mu.Unlock()
	c, err = net.DialTimeout("tcp", nc.addr, timeout)
	return c, false, err
}

func (nc *nodeClient) put(c net.Conn) {
	nc.mu.Lock()
	if !nc.closed && len(nc.idle) < 8 {
		nc.idle = append(nc.idle, c)
		nc.mu.Unlock()
		return
	}
	nc.mu.Unlock()
	_ = c.Close()
}

// closeIdle closes the pooled connections and marks the client closed:
// an in-flight Search racing Close can no longer dial fresh connections
// or park finished ones back in the pool, so Close leaks nothing.
func (nc *nodeClient) closeIdle() {
	nc.mu.Lock()
	nc.closed = true
	for _, c := range nc.idle {
		_ = c.Close()
	}
	nc.idle = nil
	nc.mu.Unlock()
}

// exchange runs one framed request/response on c, bounded by deadline.
// On success the connection returns to the pool; on transport failure it
// is closed and the error returned.
func (nc *nodeClient) exchange(c net.Conn, req *request, deadline time.Time) (*response, error) {
	nc.sent.Add(1)
	nc.inflight.Add(1)
	start := time.Now()
	defer func() {
		nc.inflight.Add(-1)
		nc.record(time.Since(start))
	}()
	_ = c.SetDeadline(deadline)
	req.TimeoutMillis = int64(time.Until(deadline) / time.Millisecond)
	if req.TimeoutMillis <= 0 {
		req.TimeoutMillis = 1
	}
	var resp response
	err := writeFrame(c, req)
	if err == nil {
		err = readFrame(c, &resp)
	}
	if err != nil {
		_ = c.Close()
		return nil, err
	}
	nc.put(c)
	return &resp, nil
}

// rpc performs one request/response exchange, bounding it by deadline.
// A transport failure on a pooled connection proves nothing about the
// node — the connection may simply have died while idle (node restart,
// half-closed socket) — so those are retried here on the next connection
// until a freshly dialed one has spoken; only a failure on a fresh dial
// (or a node-reported error) escapes to the caller. Transport failures
// and node-side kindShardIO responses are retryable on a replica; other
// node-reported errors are not.
func (nc *nodeClient) rpc(req *request, deadline time.Time, dialTimeout time.Duration) (*response, error, bool) {
	for {
		c, pooled, err := nc.get(dialTimeout)
		if err != nil {
			nc.errors.Add(1)
			return nil, err, true
		}
		resp, err := nc.exchange(c, req, deadline)
		if err != nil {
			nc.errors.Add(1)
			if pooled {
				// The pool is finite and get drained one entry, so this
				// loop reaches a fresh dial after at most pool-size spins.
				continue
			}
			return nil, fmt.Errorf("cluster: rpc to %s: %w", nc.addr, err), true
		}
		if resp.Err != "" {
			nc.errors.Add(1)
			if resp.ErrKind == kindShardIO {
				return nil, fmt.Errorf("cluster: node %s: %s: %w", nc.addr, resp.Err, grid.ErrShardIO), true
			}
			return nil, fmt.Errorf("cluster: node %s: %s", nc.addr, resp.Err), false
		}
		return resp, nil, false
	}
}

// NewCoordinator dials every node, validates their dataset identity
// against the local index, groups replicas by cell range, and verifies
// the ranges tile the grid. It fails loud on any mismatch: a topology
// that cannot answer every query exactly is refused at startup, not
// discovered per query.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Index == nil {
		return nil, fmt.Errorf("cluster: NewCoordinator: nil index")
	}
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("cluster: NewCoordinator: no node addresses")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.RPCTimeout <= 0 {
		cfg.RPCTimeout = 10 * time.Second
	}
	numCells := cfg.Index.NumCells()
	byRange := make(map[[2]uint32]*replicaGroup)
	var groups []*replicaGroup
	for _, addr := range cfg.Addrs {
		nc := &nodeClient{addr: addr, latCap: 1024} // per-node latency ring size
		resp, err, _ := nc.rpc(&request{Op: opHello}, time.Now().Add(cfg.RPCTimeout), cfg.DialTimeout)
		if err != nil {
			closeGroups(groups)
			return nil, fmt.Errorf("cluster: hello to %s: %w", addr, err)
		}
		if resp.NumCells != numCells || resp.Objects != cfg.Objects {
			closeGroups(groups)
			return nil, fmt.Errorf("%w: node %s has %d cells / %d objects, coordinator has %d / %d",
				ErrMismatch, addr, resp.NumCells, resp.Objects, numCells, cfg.Objects)
		}
		key := [2]uint32{resp.CellLo, resp.CellHi}
		g := byRange[key]
		if g == nil {
			g = &replicaGroup{lo: resp.CellLo, hi: resp.CellHi, terms: make(map[textindex.TermID]struct{})}
			byRange[key] = g
			groups = append(groups, g)
		}
		for _, t := range resp.Terms {
			g.terms[textindex.TermID(t)] = struct{}{}
		}
		g.replicas = append(g.replicas, nc)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].lo < groups[j].lo })
	want := uint32(0)
	for _, g := range groups {
		if g.lo != want {
			closeGroups(groups)
			return nil, fmt.Errorf("%w: gap or overlap at cell %d (next group starts at %d)", ErrBadTopology, want, g.lo)
		}
		want = g.hi
	}
	if int(want) < numCells {
		closeGroups(groups)
		return nil, fmt.Errorf("%w: coverage ends at cell %d of %d", ErrBadTopology, want, numCells)
	}
	c := &Coordinator{cfg: cfg, groups: groups}
	if cfg.Quota != nil {
		c.quotas = newQuotaTable(*cfg.Quota)
	}
	return c, nil
}

func closeGroups(groups []*replicaGroup) {
	for _, g := range groups {
		for _, nc := range g.replicas {
			nc.closeIdle()
		}
	}
}

// Admit charges one request to client's token bucket. With quotas
// disabled every client is admitted. Callers identify clients however
// they like (the HTTP front end uses the remote host).
func (c *Coordinator) Admit(client string) error {
	if c.quotas == nil {
		return nil
	}
	if !c.quotas.take(client) {
		c.quotas.denied.Add(1)
		return ErrQuotaExceeded
	}
	return nil
}

// Search answers q over r by scattering to the owning replica groups and
// merging their partials. The result is bit-identical to
// Index.SearchInto on a single process holding all the data: partials
// are disjoint per object (see grid.SearchRangeInto) and the merge is
// concatenate + sort by object id, no arithmetic.
func (c *Coordinator) Search(ctx context.Context, q textindex.Query, r geo.Rect) ([]grid.ObjScore, error) {
	return c.SearchTrace(ctx, q, r, nil)
}

// SearchTrace is Search with an EXPLAIN trace: when tr is non-nil, every
// contacted node runs its partial search traced and the coordinator sums
// the returned fragments into tr — plus the routing decisions of this one
// request (groups contacted, skipped by rectangle, skipped by term
// directory), which only the coordinator knows. The caller owns tr and
// resets it between queries; the scores themselves are bit-identical
// traced or not.
func (c *Coordinator) SearchTrace(ctx context.Context, q textindex.Query, r geo.Rect, tr *grid.SearchTrace) ([]grid.ObjScore, error) {
	if c.closed.Load() {
		return nil, ErrCoordinatorClosed
	}
	c.searches.Add(1)
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = time.Now().Add(c.cfg.RPCTimeout)
	}

	// Route: a group is needed iff its cells intersect the rectangle and
	// its term directory shares at least one term with the query.
	needed := make([]*replicaGroup, 0, len(c.groups))
	for _, g := range c.groups {
		if !c.cfg.Index.RangeOverlapsRect(g.lo, g.hi, r) {
			c.skippedRect.Add(1)
			if tr != nil {
				tr.GroupsSkippedRect++
			}
			continue
		}
		if !sharesTerm(g.terms, q.Terms) {
			c.skippedTerm.Add(1)
			if tr != nil {
				tr.GroupsSkippedTerm++
			}
			continue
		}
		needed = append(needed, g)
	}
	if tr != nil {
		tr.GroupsContacted += int64(len(needed))
	}
	if len(needed) == 0 {
		return nil, nil
	}

	req := request{
		Op:      opPartial,
		Terms:   make([]int32, len(q.Terms)),
		IDF:     q.IDF,
		Norm:    q.Norm,
		Rect:    &wireRect{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY},
		Explain: tr != nil,
	}
	for i, t := range q.Terms {
		req.Terms[i] = int32(t)
	}

	type partial struct {
		scores []wireScore
		trace  *wireTrace
		err    error
	}
	parts := make([]partial, len(needed))
	var wg sync.WaitGroup
	for i, g := range needed {
		wg.Add(1)
		go func(i int, g *replicaGroup) {
			defer wg.Done()
			reqCopy := req // per-goroutine: rpc mutates TimeoutMillis
			parts[i].scores, parts[i].trace, parts[i].err = c.searchGroup(g, &reqCopy, deadline)
		}(i, g)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i := range parts {
		if parts[i].err != nil {
			return nil, parts[i].err
		}
	}

	var total int
	for i := range parts {
		total += len(parts[i].scores)
	}
	out := make([]grid.ObjScore, 0, total)
	for i := range parts {
		for _, ws := range parts[i].scores {
			out = append(out, grid.ObjScore{Obj: grid.ObjectID(ws.Obj), Score: ws.Score})
		}
		if tr != nil && parts[i].trace != nil {
			parts[i].trace.addTo(tr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Obj < out[j].Obj })
	return out, nil
}

// searchGroup runs the partial search on one replica group: first choice
// by power-of-two-choices on in-flight counts, then retry on each
// remaining replica for retryable failures. Exhausting the group is
// ErrNoReplica.
func (c *Coordinator) searchGroup(g *replicaGroup, req *request, deadline time.Time) ([]wireScore, *wireTrace, error) {
	order := c.replicaOrder(g)
	var lastErr error
	for attempt, nc := range order {
		if attempt > 0 {
			c.retries.Add(1)
		}
		resp, err, retryable := nc.rpc(req, deadline, c.cfg.DialTimeout)
		if err == nil {
			return resp.Scores, resp.Trace, nil
		}
		lastErr = err
		if !retryable {
			return nil, nil, err
		}
	}
	c.noReplica.Add(1)
	return nil, nil, fmt.Errorf("%w: cells [%d, %d): %w", ErrNoReplica, g.lo, g.hi, lastErr)
}

// replicaOrder returns the group's replicas in routing order: the head is
// the power-of-two-choices pick (two random replicas, fewer in-flight
// wins), the tail is everyone else as retry fallbacks.
func (c *Coordinator) replicaOrder(g *replicaGroup) []*nodeClient {
	n := len(g.replicas)
	if n == 1 {
		return g.replicas
	}
	i := rand.Intn(n)
	j := rand.Intn(n - 1)
	if j >= i {
		j++
	}
	if g.replicas[j].inflight.Load() < g.replicas[i].inflight.Load() {
		i, j = j, i
	}
	order := make([]*nodeClient, 0, n)
	order = append(order, g.replicas[i], g.replicas[j])
	for k, nc := range g.replicas {
		if k != i && k != j {
			order = append(order, nc)
		}
	}
	return order
}

func sharesTerm(set map[textindex.TermID]struct{}, terms []textindex.TermID) bool {
	for _, t := range terms {
		if _, ok := set[t]; ok {
			return true
		}
	}
	return false
}

// Close releases every pooled connection and fails later Searches fast
// with ErrCoordinatorClosed. A Search racing Close may still finish (or
// fail on a closed connection), but it can no longer dial new
// connections or park them in the pool. Idempotent.
func (c *Coordinator) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	closeGroups(c.groups)
	return nil
}
