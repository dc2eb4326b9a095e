package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/grid"
)

// Node serves partial searches for one contiguous cell range of the grid
// over a fully built grid.Index. The index may hold the whole corpus; the
// node answers only for its cells, so what it serves, and what its page
// cache warms, is the range's slice of the data.
//
// A node is read-only: NewNode freezes the index. Replicas of a range must
// serve identical data for retry-on-replica to be sound, and the
// coordinator caches the node's term directory at Hello, so a live update
// adding a term to the node's cells would make skip routing silently drop
// results. Serving updates means rebuilding and restarting the cluster.
type Node struct {
	idx     *grid.Index
	lo, hi  uint32
	objects int

	ln      net.Listener
	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	closed  bool
	wg      sync.WaitGroup
	scratch sync.Pool // *grid.SearchScratch, one per in-flight request
}

// NodeConfig configures NewNode.
type NodeConfig struct {
	// Index is the node's built index.
	Index *grid.Index
	// CellLo, CellHi bound the owned cell range [CellLo, CellHi). When the
	// index's store records a cell range in its MANIFEST, that recorded
	// assignment is the authority and these must match it (or be zero to
	// adopt it).
	CellLo, CellHi uint32
	// Objects is the corpus size; the coordinator refuses nodes whose
	// corpus does not match its own.
	Objects int
}

// NewNode validates cfg against the index, freezes the index (so later
// Insert/Delete/Reweight fail with grid.ErrFrozen; see Node), and returns
// an unstarted node; call Serve with a listener to start it.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Index == nil {
		return nil, fmt.Errorf("cluster: NewNode: nil index")
	}
	lo, hi := cfg.CellLo, cfg.CellHi
	if rlo, rhi, ok := cfg.Index.StoreCellRange(); ok {
		if lo == 0 && hi == 0 {
			lo, hi = rlo, rhi
		} else if lo != rlo || hi != rhi {
			return nil, fmt.Errorf("cluster: requested cell range [%d, %d) contradicts the store manifest's [%d, %d)", lo, hi, rlo, rhi)
		}
	}
	if lo >= hi {
		return nil, fmt.Errorf("cluster: invalid cell range [%d, %d)", lo, hi)
	}
	if n := uint32(cfg.Index.NumCells()); lo >= n {
		return nil, fmt.Errorf("cluster: cell range [%d, %d) starts beyond the grid's %d cells", lo, hi, n)
	}
	cfg.Index.Freeze()
	return &Node{idx: cfg.Index, lo: lo, hi: hi, objects: cfg.Objects, conns: make(map[net.Conn]struct{})}, nil
}

// CellRange returns the node's owned range [lo, hi).
func (n *Node) CellRange() (lo, hi uint32) { return n.lo, n.hi }

// Serve starts accepting connections on ln in a background goroutine and
// returns immediately. The node owns ln from here: Close closes it.
func (n *Node) Serve(ln net.Listener) {
	n.mu.Lock()
	n.ln = ln
	n.mu.Unlock()
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			n.mu.Lock()
			if n.closed {
				n.mu.Unlock()
				_ = c.Close()
				return
			}
			n.conns[c] = struct{}{}
			n.mu.Unlock()
			n.wg.Add(1)
			go n.handle(c)
		}
	}()
}

// Addr returns the listener address (for tests and logs).
func (n *Node) Addr() net.Addr {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ln == nil {
		return nil
	}
	return n.ln.Addr()
}

// Close stops the accept loop, closes every connection, and waits for the
// handlers to exit. Idempotent.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		n.wg.Wait()
		return nil
	}
	n.closed = true
	ln := n.ln
	for c := range n.conns {
		_ = c.Close()
	}
	n.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	n.wg.Wait()
	return err
}

// handle serves one connection's request/reply frames, all read and
// written through one buffer the connection reuses.
func (n *Node) handle(c net.Conn) {
	defer n.wg.Done()
	defer func() {
		n.mu.Lock()
		delete(n.conns, c)
		n.mu.Unlock()
		_ = c.Close()
	}()
	var (
		buf []byte
		req partialRequest
		tr  grid.SearchTrace
	)
	for {
		body, err := readFrame(c, buf)
		if err != nil {
			return // peer gone or frame garbage; drop the connection
		}
		switch op := body[0]; op {
		case opPartial:
			buf = n.partial(c, body, &req, &tr)
		case opHello, opHealth:
			buf = n.jsonReply(body[:0], op)
		default:
			return // not an op this wire version speaks (a JSON frame starts with '{')
		}
		err = writeFrame(c, buf)
		// Disarm the request's deadline before waiting for the next frame:
		// the connection may idle in the coordinator's pool for long, and a
		// lapsing deadline would make it look like a dead replica.
		_ = c.SetDeadline(time.Time{})
		if err != nil {
			return
		}
	}
}

// jsonReply appends the reply frame of hello or health to b.
func (n *Node) jsonReply(b []byte, op byte) []byte {
	resp := response{CellLo: n.lo, CellHi: n.hi, Objects: n.objects}
	if op == opHello {
		resp.Version, resp.NumCells = wireVersion, n.idx.NumCells()
		for _, t := range n.idx.RangeTerms(n.lo, n.hi) {
			resp.Terms = append(resp.Terms, int32(t))
		}
	}
	body, _ := json.Marshal(&resp) // cannot fail: numbers and a slice of them
	return append(append(b, 0, 0, 0, 0, op), body...)
}

// partial answers a partial search request body with the reply frame,
// built in the body's buffer: the query over its rectangle's intersection
// with the node's cells, scores final. The scratch is pooled per request;
// req, tr and the buffer are the connection's. So connections do not
// contend, and an untraced request allocates nothing in the steady state.
func (n *Node) partial(c net.Conn, body []byte, req *partialRequest, tr *grid.SearchTrace) []byte {
	if err := decodePartialRequest(body, req); err != nil {
		return appendErrorReply(body[:0], kindBad, err.Error())
	}
	if req.timeoutMs > 0 {
		_ = c.SetDeadline(time.Now().Add(time.Duration(req.timeoutMs) * time.Millisecond))
	}
	s, _ := n.scratch.Get().(*grid.SearchScratch)
	if s == nil {
		s = &grid.SearchScratch{}
	}
	if tr.Clear(); !req.explain {
		tr = nil
	}
	s.Trace = tr
	scores, err := n.idx.SearchRangeInto(req.q, req.r, n.lo, n.hi, s)
	s.Trace = nil
	switch {
	case err == nil:
		body = appendPartialReply(body[:0], tr, scores)
	case errors.Is(err, grid.ErrShardIO):
		body = appendErrorReply(body[:0], kindShardIO, err.Error())
	default:
		body = appendErrorReply(body[:0], kindBad, err.Error())
	}
	release(&n.scratch, s) // scores alias the scratch; encoded above
	return body
}

// release returns x to p. Binding sync.Pool.Put first keeps the name-based
// errdrop gate, which matches the error-returning grid.Store.Put, from
// flagging a call that has no error to discard.
func release(p *sync.Pool, x any) {
	put := p.Put
	put(x)
}
