package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/textindex"
)

// Coordinator fronts a set of nodes that together own the whole cell
// space. Per query it asks only the replica groups whose cells meet the
// rectangle and whose term directory shares a query term (both decided on
// metadata the nodes shipped at Hello), scatters partial searches under
// the request's deadline, and merges the replies.
//
// Nodes reporting the same cell range are interchangeable replicas, routed
// by power-of-two-choices on in-flight counts. A retryable failure (a
// connection failure, or grid.ErrShardIO from a store) moves on to the
// next replica; only an exhausted group fails the query, typed
// ErrNoReplica, never a silently partial answer.
type Coordinator struct {
	cfg    CoordinatorConfig
	groups []*replicaGroup // sorted by cellLo; tiles [0, numCells)

	searches    atomic.Int64
	skippedRect atomic.Int64
	skippedTerm atomic.Int64
	retries     atomic.Int64
	noReplica   atomic.Int64

	quotas *quotaTable // nil when quotas are disabled

	scatters sync.Pool // *scatter
	closed   atomic.Bool
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

// call is one RPC: what to send, and where the reply lands. A scatter's
// calls are pooled, so buf and run are reused across searches.
type call struct {
	op   byte
	buf  []byte           // the request frame, then the reply body
	req  partialRequest   // opPartial
	tr   grid.SearchTrace // opPartial: the node's counters, if explaining
	run  []grid.ObjScore  // opPartial: the node's scores
	resp response         // hello, health
	g    *replicaGroup    // in a scatter: the group asked, and the outcome
	err  error
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

// closeIdle closes the pooled connections and marks the client closed, so
// a Search racing Close can neither dial nor pool: Close leaks nothing.
func (nc *nodeClient) closeIdle() {
	nc.mu.Lock()
	nc.closed = true
	for _, c := range nc.idle {
		_ = c.Close()
	}
	nc.idle = nil
	nc.mu.Unlock()
}

// exchange sends cl's request on c and decodes the reply into cl, bounded
// by deadline. After a well-formed reply, node-reported errors included,
// c returns to the pool; otherwise it is closed.
func (nc *nodeClient) exchange(c net.Conn, cl *call, deadline time.Time) error {
	nc.sent.Add(1)
	nc.inflight.Add(1)
	start := time.Now()
	defer func() {
		nc.inflight.Add(-1)
		nc.record(time.Since(start))
	}()
	_ = c.SetDeadline(deadline)
	if cl.op == opPartial {
		cl.req.timeoutMs = uint32(min(max(time.Until(deadline)/time.Millisecond, 1), math.MaxUint32))
		cl.buf = appendPartialRequest(cl.buf[:0], &cl.req)
	} else {
		cl.buf = append(cl.buf[:0], 0, 0, 0, 0, cl.op)
	}
	err := writeFrame(c, cl.buf)
	if err == nil {
		cl.buf, err = readFrame(c, cl.buf)
	}
	var tr *grid.SearchTrace
	if cl.req.explain {
		tr = &cl.tr
	}
	switch {
	case err != nil:
	case cl.buf[0] != cl.op:
		err = errFrame
	case cl.op == opPartial:
		cl.run, err = decodePartialReply(cl.buf, tr, cl.run)
	default:
		err = json.Unmarshal(cl.buf[1:], &cl.resp)
	}
	if _, reported := err.(*nodeError); err != nil && !reported {
		_ = c.Close()
		return err
	}
	nc.put(c)
	return err
}

// rpc performs one exchange, bounded by deadline. A transport failure on
// a pooled connection proves nothing about the node (it may have died
// idle), so rpc moves on to the next connection until a fresh dial has
// spoken. Transport failures and node-reported kindShardIO are retryable
// on a replica; other node-reported errors are not.
func (nc *nodeClient) rpc(cl *call, deadline time.Time, dialTimeout time.Duration) (error, bool) {
	for {
		c, pooled, err := nc.get(dialTimeout)
		if err != nil {
			nc.errors.Add(1)
			return err, true
		}
		err = nc.exchange(c, cl, deadline)
		if err == nil {
			return nil, false
		}
		nc.errors.Add(1)
		if ne, ok := err.(*nodeError); ok && ne.kind == kindShardIO {
			return fmt.Errorf("cluster: node %s: %s: %w", nc.addr, ne.msg, grid.ErrShardIO), true
		} else if ok {
			return fmt.Errorf("cluster: node %s: %s", nc.addr, ne.msg), false
		}
		if !pooled {
			return fmt.Errorf("cluster: rpc to %s: %w", nc.addr, err), true
		}
		// The pool is finite and get drained one entry, so this loop
		// reaches a fresh dial after at most pool-size spins.
	}
}

// NewCoordinator dials every node, validates its wire version and dataset
// identity against the local index, groups replicas by cell range, and
// verifies the ranges tile the grid: a topology that cannot answer every
// query exactly is refused at startup, not discovered per query.
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
		hello := call{op: opHello}
		if err, _ := nc.rpc(&hello, time.Now().Add(cfg.RPCTimeout), cfg.DialTimeout); err != nil {
			closeGroups(groups)
			return nil, fmt.Errorf("cluster: hello to %s: %w", addr, err)
		}
		resp := &hello.resp
		if resp.Version != wireVersion || resp.NumCells != numCells || resp.Objects != cfg.Objects {
			nc.closeIdle()
			closeGroups(groups)
			return nil, fmt.Errorf("%w: node %s has wire version %d, %d cells / %d objects; coordinator has %d, %d / %d",
				ErrMismatch, addr, resp.Version, resp.NumCells, resp.Objects, wireVersion, numCells, cfg.Objects)
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
	c := &Coordinator{cfg: cfg, groups: groups, scatters: sync.Pool{New: func() any { return new(scatter) }}}
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
// merging their partials, bit-identical to Index.SearchInto on one process
// holding all the data (see the package comment).
func (c *Coordinator) Search(ctx context.Context, q textindex.Query, r geo.Rect) ([]grid.ObjScore, error) {
	return c.SearchTrace(ctx, q, r, nil)
}

// scatter is the pooled state of one Search: a call per group it asks.
type scatter struct {
	calls []call
	wg    sync.WaitGroup
}

// SearchTrace is Search with an EXPLAIN trace: when tr is non-nil, every
// contacted node traces its partial search and the coordinator sums the
// fragments into tr, plus this request's routing decisions (groups
// contacted, skipped by rectangle or by term directory). The caller owns
// tr and resets it between queries; the scores are the same either way.
func (c *Coordinator) SearchTrace(ctx context.Context, q textindex.Query, r geo.Rect, tr *grid.SearchTrace) ([]grid.ObjScore, error) {
	if c.closed.Load() {
		return nil, ErrCoordinatorClosed
	}
	c.searches.Add(1)
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = time.Now().Add(c.cfg.RPCTimeout)
	}
	sc := c.scatters.Get().(*scatter)
	defer release(&c.scatters, sc)

	// Route: ask a group iff its cells meet the rectangle and it has a query term.
	calls := sc.calls[:0]
	for _, g := range c.groups {
		if !c.cfg.Index.RangeOverlapsRect(g.lo, g.hi, r) {
			c.skippedRect.Add(1)
			if tr != nil {
				tr.GroupsSkippedRect++
			}
			continue
		}
		if !slices.ContainsFunc(q.Terms, func(t textindex.TermID) bool { _, ok := g.terms[t]; return ok }) {
			c.skippedTerm.Add(1)
			if tr != nil {
				tr.GroupsSkippedTerm++
			}
			continue
		}
		if len(calls) == len(sc.calls) {
			sc.calls = append(sc.calls, call{op: opPartial})
		}
		calls = sc.calls[:len(calls)+1]
		calls[len(calls)-1].g = g
	}
	if tr != nil {
		tr.GroupsContacted += int64(len(calls))
	}
	if len(calls) == 0 {
		return nil, nil
	}
	// The first group runs on this goroutine; the rest fan out.
	for i := range calls {
		calls[i].req = partialRequest{q: q, r: r, explain: tr != nil}
		if i > 0 {
			cl, wg, deadline := &calls[i], &sc.wg, deadline // captured by value: no heap box
			wg.Add(1)
			go func() {
				defer wg.Done()
				cl.err = c.searchGroup(cl, deadline)
			}()
		}
	}
	calls[0].err = c.searchGroup(&calls[0], deadline)
	sc.wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	total := 0
	for i := range calls {
		if calls[i].err != nil {
			return nil, calls[i].err
		}
		if tr != nil {
			tr.Add(calls[i].tr)
		}
		total += len(calls[i].run)
	}
	return mergeRuns(calls, total), nil
}

// mergeRuns merges the calls' runs, each strictly ascending by object id
// and disjoint as node cell ranges are, into exactly total scores. It pops
// the largest tail into the back, so each run keeps its buffer for reuse.
func mergeRuns(calls []call, total int) []grid.ObjScore {
	out := make([]grid.ObjScore, total)
	for k := total - 1; k >= 0; k-- {
		best := -1
		for i := range calls {
			if r := calls[i].run; len(r) > 0 && (best < 0 || r[len(r)-1].Obj > out[k].Obj) {
				best, out[k] = i, r[len(r)-1]
			}
		}
		calls[best].run = calls[best].run[:len(calls[best].run)-1]
	}
	return out
}

// searchGroup runs cl on its replica group: first choice by
// power-of-two-choices on in-flight counts, then retry on each remaining
// replica for retryable failures. Exhausting the group is ErrNoReplica.
func (c *Coordinator) searchGroup(cl *call, deadline time.Time) error {
	g := cl.g
	order := c.replicaOrder(g)
	var lastErr error
	for attempt, nc := range order {
		if attempt > 0 {
			c.retries.Add(1)
		}
		err, retryable := nc.rpc(cl, deadline, c.cfg.DialTimeout)
		if err == nil || !retryable {
			return err
		}
		lastErr = err
	}
	c.noReplica.Add(1)
	return fmt.Errorf("%w: cells [%d, %d): %w", ErrNoReplica, g.lo, g.hi, lastErr)
}

// replicaOrder returns the group's replicas in routing order: the
// power-of-two-choices pick, then everyone else as retry fallbacks.
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

// Close releases every pooled connection and fails later Searches fast
// with ErrCoordinatorClosed; a Search racing it may finish but can no
// longer dial or pool connections. Idempotent.
func (c *Coordinator) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	closeGroups(c.groups)
	return nil
}
