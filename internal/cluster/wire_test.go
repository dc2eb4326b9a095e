package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/textindex"
)

// FuzzPartialFrame decodes arbitrary bytes as a partial request body and
// as a partial reply body (traced and untraced), and encodes arbitrary
// (object, score-bits) pairs as a reply. It checks that decoding never
// panics; that a rejected frame allocates nothing unless the rejection is
// an id out of order, so a count the body cannot hold allocates nothing;
// that a decoded run is strictly ascending; and that
// encode∘decode is the identity on bits, −0 and subnormal scores included.
func FuzzPartialFrame(f *testing.F) {
	req := partialRequest{
		q: textindex.Query{Terms: []textindex.TermID{3, 9}, IDF: []float64{1.5, math.SmallestNonzeroFloat64}, Norm: 2.25},
		r: geo.Rect{MinX: -1, MinY: math.Copysign(0, -1), MaxX: 1e300, MaxY: math.Inf(1)}, timeoutMs: 250, explain: true,
	}
	f.Add(appendPartialRequest(nil, &req)[4:])
	tr := grid.SearchTrace{CellsInRect: 7, Lists: -1, Objects: math.MaxInt64}
	scores := []grid.ObjScore{{Obj: 0, Score: math.Copysign(0, -1)}, {Obj: 4, Score: math.SmallestNonzeroFloat64}, {Obj: 9, Score: math.NaN()}}
	f.Add(appendPartialReply(nil, &tr, scores)[4:])
	f.Add(appendPartialReply(nil, nil, scores)[4:])
	f.Add(appendErrorReply(nil, kindShardIO, "shard 2: checksum")[4:])
	f.Add([]byte{opPartial, wireVersion, kindOK, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 1})
	f.Add([]byte(`{"op":"partial","terms":[1],"idf":[1],"norm":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req partialRequest
		if err := decodePartialRequest(data, &req); err == nil {
			if got := appendPartialRequest(nil, &req)[4:]; !bytes.Equal(got, data) {
				t.Fatalf("request re-encodes to %x, want %x", got, data)
			}
		} else if n := testing.AllocsPerRun(10, func() { _ = decodePartialRequest(data, &partialRequest{}) }); n != 0 {
			t.Fatalf("rejecting a request (%v) allocated %v times", err, n)
		}
		for _, explain := range []bool{false, true} {
			var tr *grid.SearchTrace
			if explain {
				tr = new(grid.SearchTrace)
			}
			run, err := decodePartialReply(data, tr, nil)
			var ne *nodeError
			switch {
			case errors.As(err, &ne):
				if got := appendErrorReply(nil, ne.kind, ne.msg)[4:]; !bytes.Equal(got, data) {
					t.Fatalf("error reply re-encodes to %x, want %x", got, data)
				}
			case errors.Is(err, errOrder): // found as the run fills: the count fit the body
			case err != nil:
				if n := testing.AllocsPerRun(10, func() { _, _ = decodePartialReply(data, tr, nil) }); n != 0 {
					t.Fatalf("rejecting a reply (%v) allocated %v times", err, n)
				}
			default:
				for i := 1; i < len(run); i++ {
					if run[i].Obj <= run[i-1].Obj {
						t.Fatalf("decoded run not strictly ascending at %d: %v", i, run)
					}
				}
				if got := appendPartialReply(nil, tr, run)[4:]; !bytes.Equal(got, data) {
					t.Fatalf("reply re-encodes to %x, want %x", got, data)
				}
			}
		}

		// The same bytes as (object, score-bits) pairs, encoded and decoded.
		var in []grid.ObjScore
		ascending := true
		for p := data; len(p) >= slot; p = p[slot:] {
			s := grid.ObjScore{Obj: grid.ObjectID(binary.BigEndian.Uint32(p)), Score: f64(p[4:])}
			ascending = ascending && s.Obj >= 0 && (len(in) == 0 || s.Obj > in[len(in)-1].Obj)
			in = append(in, s)
		}
		out, err := decodePartialReply(appendPartialReply(nil, nil, in)[4:], nil, nil)
		if !ascending {
			if !errors.Is(err, errOrder) {
				t.Fatalf("ids %v not strictly ascending: err = %v, want errOrder", in, err)
			}
			return
		}
		if err != nil || len(out) != len(in) {
			t.Fatalf("round trip of %d scores: %d back, err %v", len(in), len(out), err)
		}
		for i := range in {
			if out[i].Obj != in[i].Obj || math.Float64bits(out[i].Score) != math.Float64bits(in[i].Score) {
				t.Fatalf("score %d: %v (bits %x) came back %v (bits %x)", i, in[i], math.Float64bits(in[i].Score), out[i], math.Float64bits(out[i].Score))
			}
		}
	})
}

// TestDecodeRejectsOversizedCount: a count the body cannot hold is refused
// before the run grows, so a 12-byte reply cannot make the coordinator
// allocate for four billion scores.
func TestDecodeRejectsOversizedCount(t *testing.T) {
	body := []byte{opPartial, wireVersion, kindOK, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 1, 0}
	var err error
	if n := testing.AllocsPerRun(10, func() { _, err = decodePartialReply(body, nil, nil) }); n != 0 {
		t.Fatalf("rejecting an oversized count allocated %v times", n)
	}
	if !errors.Is(err, errCount) {
		t.Fatalf("err = %v, want errCount", err)
	}
	req := append(appendPartialRequest(nil, &partialRequest{})[4:], 0)
	binary.BigEndian.PutUint32(req[reqHeader-4:], math.MaxUint32)
	if err := decodePartialRequest(req, &partialRequest{}); !errors.Is(err, errCount) {
		t.Fatalf("request: err = %v, want errCount", err)
	}
}

// TestHostileFrameHeader: a peer that announces a maxFrame-sized frame and
// then hangs up costs the node what it sent, not what it announced; the
// node drops that connection and keeps serving others.
func TestHostileFrameHeader(t *testing.T) {
	const objects = 100
	v, idx := buildCorpus(t, objects, 47, false)
	n := startNode(t, idx, 0, uint32(idx.NumCells()), objects)
	defer n.Close()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	conn, err := net.Dial("tcp", n.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if got, err := io.ReadAll(conn); err != nil || len(got) != 0 {
		t.Fatalf("truncated frame answered %q (err %v); want the connection closed", got, err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("a 4-byte header announcing %d bytes cost the node %d bytes of allocation", maxFrame, grew)
	}
	searchOnce(t, v, idx, n)
}

// TestLegacyJSONFrameDropped: a JSON frame from a coordinator of the
// previous wire version, or the unassigned op 3, is not an op this node
// speaks; the node drops that connection without panicking and keeps
// serving.
func TestLegacyJSONFrameDropped(t *testing.T) {
	const objects = 100
	v, idx := buildCorpus(t, objects, 53, false)
	n := startNode(t, idx, 0, uint32(idx.NumCells()), objects)
	defer n.Close()

	for _, body := range [][]byte{
		[]byte(`{"op":"partial","terms":[0],"idf":[1],"norm":1,"rect":{"x0":0,"y0":0,"x1":1000,"y1":1000}}`),
		{3},
	} {
		conn, err := net.Dial("tcp", n.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(conn, append(make([]byte, 4), body...)); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if got, err := io.ReadAll(conn); err != nil || len(got) != 0 {
			t.Fatalf("frame %q answered %q (err %v); want the connection closed", body, got, err)
		}
		conn.Close()
		searchOnce(t, v, idx, n)
	}
}

// TestHelloVersionMismatch: a node answering hello with another wire
// version is refused with ErrMismatch, not served with misread frames.
func TestHelloVersionMismatch(t *testing.T) {
	const objects = 100
	_, idx := buildCorpus(t, objects, 59, false)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	defer func() { <-done }()
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		if body, err := readFrame(c, nil); err != nil || len(body) != 1 || body[0] != opHello {
			return
		}
		js, _ := json.Marshal(response{Version: wireVersion + 1, CellHi: uint32(idx.NumCells()), NumCells: idx.NumCells(), Objects: objects})
		_ = writeFrame(c, append([]byte{0, 0, 0, 0, opHello}, js...))
	}()
	_, err = NewCoordinator(CoordinatorConfig{Addrs: []string{ln.Addr().String()}, Index: idx, Objects: objects})
	if !errors.Is(err, ErrMismatch) {
		t.Fatalf("hello with wire version %d: err = %v, want ErrMismatch", wireVersion+1, err)
	}
}

// searchOnce checks that n still answers a search exactly.
func searchOnce(t *testing.T, v *textindex.Vocabulary, idx *grid.Index, n *Node) {
	t.Helper()
	c, err := NewCoordinator(CoordinatorConfig{Addrs: []string{n.Addr().String()}, Index: idx, Objects: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q := prepareQuery(v, []string{"cafe", "bar"})
	r := geo.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	var scratch grid.SearchScratch
	want, err := idx.SearchInto(q, r, &scratch)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Search(context.Background(), q, r)
	if err != nil || len(got) != len(want) || len(got) == 0 {
		t.Fatalf("search after the bad client: %d results (want %d), err %v", len(got), len(want), err)
	}
}
