// Package cluster serves LCMSR across processes: the grid's cell space
// [0, NumCells) is split into contiguous ranges, each owned by one or more
// node processes (replicas), and a coordinator scatters a query's
// rectangle to the owning nodes and merges their partial scores.
//
// Every object's postings live in its one grid cell (see
// grid.SearchRangeInto), so disjoint cell ranges yield disjoint
// per-object scores, each computed in a single process's floating-point
// order. Nodes send them in ascending object id as float64 bits and the
// coordinator k-way merges the runs with no arithmetic, so answers are
// bit-identical to one process's. Frames are length-prefixed, over TCP;
// docs/CLUSTER.md tables the partial-search layout, and hello and health
// replies carry JSON.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/textindex"
)

// A frame is a 4-byte big-endian body length, then a body led by its op.
const (
	// maxFrame bounds a frame body; a peer announcing more is dropped.
	maxFrame = 64 << 20
	// wireVersion is the partial frames' layout version. Hello carries it,
	// so a coordinator refuses a node that speaks another layout.
	wireVersion = 1

	reqHeader  = 3 + 4 + 5*8 + 4 // partial request bytes before the terms
	slot       = 4 + 8           // a (term, idf) or (obj, score) pair
	traceWords = 9
)

// Op bytes. 3 stays unassigned, so health keeps its value on the wire and
// a node drops a connection that sends 3.
const (
	opHello   byte = 1
	opPartial byte = 2
	opHealth  byte = 4
)

// Error kinds of partial replies: the coordinator tells a retryable fault
// from a permanent one without parsing messages.
const (
	kindOK      byte = iota
	kindShardIO      // grid.ErrShardIO: retry on a replica
	kindBad          // malformed request: do not retry
)

var (
	errFrame = errors.New("cluster: malformed frame")
	errCount = fmt.Errorf("%w: count does not match the body", errFrame)
	errOrder = fmt.Errorf("%w: object ids not strictly ascending", errFrame)
)

// partialRequest is a partial-search request in decoded form.
type partialRequest struct {
	q textindex.Query // IDF and norm come from the coordinator's vocabulary
	r geo.Rect
	// timeoutMs is the caller's remaining budget: the node bounds its I/O
	// with it, so storage stuck on a node cannot outlast the client.
	timeoutMs uint32
	explain   bool // trace the partial search and ship the counters back
}

// nodeError is an error a node reported in a partial reply.
type nodeError struct {
	kind byte
	msg  string
}

func (e *nodeError) Error() string { return e.msg }

// response is the JSON reply body of hello and health: the node's
// identity and its term directory (hello).
type response struct {
	Version  int     `json:"version,omitempty"`
	CellLo   uint32  `json:"cell_lo"`
	CellHi   uint32  `json:"cell_hi"`
	NumCells int     `json:"num_cells,omitempty"`
	Objects  int     `json:"objects"`
	Terms    []int32 `json:"terms,omitempty"` // for the coordinator's skip routing
}

// traceCounters lists the grid.SearchTrace counters a node fills, in wire
// order; the routing counters are the coordinator's and stay local.
func traceCounters(t *grid.SearchTrace) [traceWords]*int64 {
	return [traceWords]*int64{&t.CellsInRect, &t.CellsEmpty, &t.CellsNoTerm, &t.CellsCacheHit,
		&t.CellsScanned, &t.Lists, &t.Postings, &t.PostingsFiltered, &t.Objects}
}

func f64(b []byte) float64 { return math.Float64frombits(binary.BigEndian.Uint64(b)) }

// appendPartialRequest appends req's frame, length prefix included, to b.
func appendPartialRequest(b []byte, req *partialRequest) []byte {
	b = append(b, 0, 0, 0, 0, opPartial, wireVersion, 0)
	if req.explain {
		b[len(b)-1] = 1
	}
	b = binary.BigEndian.AppendUint32(b, req.timeoutMs)
	for _, f := range [...]float64{req.r.MinX, req.r.MinY, req.r.MaxX, req.r.MaxY, req.q.Norm} {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(f))
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(req.q.Terms)))
	for i, t := range req.q.Terms {
		b = binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint32(b, uint32(t)), math.Float64bits(req.q.IDF[i]))
	}
	return b
}

// decodePartialRequest decodes a partial request body into req, reusing
// its term and IDF slices.
func decodePartialRequest(body []byte, req *partialRequest) error {
	if len(body) < reqHeader || body[0] != opPartial || body[1] != wireVersion || body[2] > 1 {
		return errFrame
	}
	req.explain = body[2] == 1
	req.timeoutMs = binary.BigEndian.Uint32(body[3:])
	req.r = geo.Rect{MinX: f64(body[7:]), MinY: f64(body[15:]), MaxX: f64(body[23:]), MaxY: f64(body[31:])}
	req.q.Norm = f64(body[39:])
	n := binary.BigEndian.Uint32(body[47:])
	if body = body[reqHeader:]; uint64(n)*slot != uint64(len(body)) {
		return errCount
	}
	req.q.Terms, req.q.IDF = req.q.Terms[:0], req.q.IDF[:0]
	for ; len(body) > 0; body = body[slot:] {
		req.q.Terms = append(req.q.Terms, textindex.TermID(binary.BigEndian.Uint32(body)))
		req.q.IDF = append(req.q.IDF, f64(body[4:]))
	}
	return nil
}

// appendPartialReply appends an ok reply frame to b: tr's counters when
// the request asked to explain (tr non-nil), then scores, which must be in
// ascending object id — SearchRangeInto's order.
func appendPartialReply(b []byte, tr *grid.SearchTrace, scores []grid.ObjScore) []byte {
	b = append(b, 0, 0, 0, 0, opPartial, wireVersion, kindOK)
	if tr != nil {
		for _, c := range traceCounters(tr) {
			b = binary.BigEndian.AppendUint64(b, uint64(*c))
		}
	}
	b = binary.BigEndian.AppendUint32(slices.Grow(b, 4+slot*len(scores)), uint32(len(scores)))
	for _, s := range scores {
		b = binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint32(b, uint32(s.Obj)), math.Float64bits(s.Score))
	}
	return b
}

// appendErrorReply appends a failed partial reply frame to b.
func appendErrorReply(b []byte, kind byte, msg string) []byte {
	return append(append(b, 0, 0, 0, 0, opPartial, wireVersion, kind), msg...)
}

// decodePartialReply decodes a partial reply body: a node-reported error
// as a *nodeError, else the trace counters into tr (non-nil iff the
// request asked to explain) and the scores into run, reused. It rejects a
// count the body cannot hold before run grows, and object ids that are not
// strictly ascending, which the coordinator's merge relies on.
func decodePartialReply(body []byte, tr *grid.SearchTrace, run []grid.ObjScore) ([]grid.ObjScore, error) {
	head := 3 + 4 // op, version, kind; the count
	if tr != nil {
		head += 8 * traceWords
	}
	switch {
	case len(body) < 3 || body[0] != opPartial || body[1] != wireVersion || body[2] > kindBad:
		return run[:0], errFrame
	case body[2] != kindOK:
		return run[:0], &nodeError{kind: body[2], msg: string(body[3:])}
	case len(body) < head:
		return run[:0], errFrame
	}
	n := binary.BigEndian.Uint32(body[head-4:])
	if uint64(n)*slot != uint64(len(body)-head) {
		return run[:0], errCount
	}
	if tr != nil {
		for i, c := range traceCounters(tr) {
			*c = int64(binary.BigEndian.Uint64(body[3+8*i:]))
		}
	}
	run = slices.Grow(run[:0], int(n))[:n]
	for i, prev := 0, int64(-1); i < len(run); i++ {
		p := body[head+slot*i:]
		if run[i].Obj = grid.ObjectID(binary.BigEndian.Uint32(p)); int64(run[i].Obj) <= prev {
			return run[:0], errOrder
		}
		prev, run[i].Score = int64(run[i].Obj), f64(p[4:])
	}
	return run, nil
}

// writeFrame writes a frame an append encoder built, patching its length
// prefix first.
func writeFrame(w io.Writer, frame []byte) error {
	if len(frame)-4 > maxFrame {
		return fmt.Errorf("cluster: frame of %d bytes exceeds the %d limit", len(frame)-4, maxFrame)
	}
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	_, err := w.Write(frame)
	return err
}

// readFrame reads one frame's non-empty body into buf, reused. The buffer
// grows only as body bytes arrive, at most doubling per step, so a peer
// announcing a large frame costs what it sent, not what it announced.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	buf = slices.Grow(buf[:0], 4)[:4]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf[:0], err
	}
	n := int(binary.BigEndian.Uint32(buf))
	if n == 0 || n > maxFrame {
		return buf[:0], fmt.Errorf("cluster: peer announced a %d-byte frame (limit 1 to %d)", n, maxFrame)
	}
	for buf = buf[:0]; len(buf) < n; {
		chunk := min(n-len(buf), max(cap(buf)-len(buf), len(buf), 4096))
		buf = slices.Grow(buf, chunk)
		if _, err := io.ReadFull(r, buf[len(buf):len(buf)+chunk]); err != nil {
			return buf[:0], err
		}
		buf = buf[:len(buf)+chunk]
	}
	return buf, nil
}

// Typed failure modes of the distributed path.
var (
	// ErrNoReplica is returned when every replica of a needed cell range
	// failed (a connection, or grid.ErrShardIO): the query fails typed
	// instead of returning a silently incomplete result.
	ErrNoReplica = errors.New("cluster: no replica left for required cell range")
	// ErrQuotaExceeded is returned by coordinator admission when a
	// client's token bucket is empty; clients should back off.
	ErrQuotaExceeded = errors.New("cluster: client quota exceeded")
	// ErrMismatch is returned when a node's wire version or dataset (cell
	// and object counts) differs from the coordinator's: it is refused at
	// Hello, since serving would give wrong answers.
	ErrMismatch = errors.New("cluster: node dataset does not match coordinator")
	// ErrBadTopology is returned when the nodes' cell ranges do not tile
	// the coordinator's cell space.
	ErrBadTopology = errors.New("cluster: node cell ranges do not cover the grid")
	// ErrCoordinatorClosed is returned by Search after Close: a closed
	// coordinator fails fast instead of dialing nodes whose connections
	// it could no longer pool or release.
	ErrCoordinatorClosed = errors.New("cluster: coordinator closed")
)
