package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/grid"
)

// TestPooledConnSurvivesDeadline: the node must disarm a request's
// deadline once the response is written. Regression: the deadline kept
// ticking while the connection sat idle in the coordinator's pool, so
// the node closed every pooled connection as soon as the previous
// request's budget lapsed — and with one replica per range the next
// query found a "dead" node.
func TestPooledConnSurvivesDeadline(t *testing.T) {
	const objects = 100
	v, idx := buildCorpus(t, objects, 31, false)
	n := startNode(t, idx, 0, uint32(idx.NumCells()), objects)
	defer n.Close()
	c, err := NewCoordinator(CoordinatorConfig{
		Addrs: []string{n.Addr().String()}, Index: idx, Objects: objects,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	q := prepareQuery(v, []string{"cafe"})
	r := geo.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	search := func(tag string) {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		if _, err := c.Search(ctx, q, r); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
	}
	search("first")
	// Let the first request's 100ms budget lapse while its connection
	// idles in the pool; the node must not have closed it.
	time.Sleep(300 * time.Millisecond)
	search("after deadline lapse")
	nc := c.groups[0].replicas[0]
	if got := nc.errors.Load(); got != 0 {
		t.Fatalf("replica recorded %d errors; the pooled connection did not survive the idle deadline", got)
	}
}

// TestRPCRedialsStalePooledConn: a transport failure on a pooled
// connection says nothing about the node, so rpc must fall through to a
// fresh dial instead of reporting the replica dead.
func TestRPCRedialsStalePooledConn(t *testing.T) {
	const objects = 100
	_, idx := buildCorpus(t, objects, 37, false)
	n := startNode(t, idx, 0, uint32(idx.NumCells()), objects)
	defer n.Close()

	nc := &nodeClient{addr: n.Addr().String(), latCap: 16}
	// Seed the pool with two connections that died while idle.
	for i := 0; i < 2; i++ {
		c, err := net.Dial("tcp", nc.addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		nc.idle = append(nc.idle, c)
	}
	if err, _ := nc.rpc(&call{op: opHealth}, time.Now().Add(5*time.Second), 2*time.Second); err != nil {
		t.Fatalf("rpc over stale pool: %v", err)
	}
	if got := nc.errors.Load(); got != 2 {
		t.Errorf("errors = %d, want 2 (one per stale pooled connection)", got)
	}
}

// TestNodeFreezesIndex: becoming a cluster node makes the index
// read-only — the coordinator caches the node's term directory at
// Hello, so a later live update could make skip routing silently wrong.
func TestNodeFreezesIndex(t *testing.T) {
	const objects = 50
	v, idx := buildCorpus(t, objects, 41, false)
	doc := v.IndexDoc([]string{"cafe"})
	if _, err := idx.Insert(geo.Point{X: 1, Y: 1}, doc, []string{"cafe"}, nil); err != nil {
		t.Fatalf("insert before NewNode: %v", err)
	}
	if _, err := NewNode(NodeConfig{Index: idx, CellLo: 0, CellHi: uint32(idx.NumCells()), Objects: objects + 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Insert(geo.Point{X: 2, Y: 2}, doc, []string{"cafe"}, nil); !errors.Is(err, grid.ErrFrozen) {
		t.Fatalf("insert on a cluster node's index: err = %v, want grid.ErrFrozen", err)
	}
	if err := idx.Delete(0, nil); !errors.Is(err, grid.ErrFrozen) {
		t.Fatalf("delete on a cluster node's index: err = %v, want grid.ErrFrozen", err)
	}
}

// TestSearchAfterCloseFailsFast: Close must stop Search from dialing
// new connections and parking them in a pool nobody will release.
func TestSearchAfterCloseFailsFast(t *testing.T) {
	const objects = 100
	v, idx := buildCorpus(t, objects, 43, false)
	n := startNode(t, idx, 0, uint32(idx.NumCells()), objects)
	defer n.Close()
	c, err := NewCoordinator(CoordinatorConfig{
		Addrs: []string{n.Addr().String()}, Index: idx, Objects: objects,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	q := prepareQuery(v, []string{"cafe"})
	if _, err := c.Search(context.Background(), q, geo.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}); !errors.Is(err, ErrCoordinatorClosed) {
		t.Fatalf("search after close: err = %v, want ErrCoordinatorClosed", err)
	}

	// A connection finishing its exchange after Close must be closed,
	// not pooled (the leak the fail-fast alone does not cover).
	nc := c.groups[0].replicas[0]
	conn, err := net.Dial("tcp", nc.addr)
	if err != nil {
		t.Fatal(err)
	}
	nc.put(conn)
	nc.mu.Lock()
	pooled := len(nc.idle)
	nc.mu.Unlock()
	if pooled != 0 {
		t.Fatalf("%d connections pooled after close, want 0", pooled)
	}
	if _, err := conn.Write([]byte("x")); err == nil {
		t.Error("connection handed to a closed client's put was left open")
	}
	if _, _, err := nc.get(time.Second); !errors.Is(err, ErrCoordinatorClosed) {
		t.Fatalf("get after close: err = %v, want ErrCoordinatorClosed", err)
	}
}

// TestQuotaTableEviction: one bucket per distinct client id must not
// accumulate forever — a bucket idle long enough to have fully refilled
// is indistinguishable from a fresh one and is evicted by the amortized
// sweep.
func TestQuotaTableEviction(t *testing.T) {
	// Burst/Rate = 1ns: every bucket from a previous iteration has fully
	// refilled by the time the sweep looks at it.
	q := newQuotaTable(QuotaOptions{RatePerSec: 1e9, Burst: 1})
	const clients = 3 * quotaSweepMin
	for i := 0; i < clients; i++ {
		q.take(fmt.Sprintf("client-%d", i))
	}
	q.mu.Lock()
	size := len(q.m)
	q.mu.Unlock()
	if size >= clients {
		t.Fatalf("quota table holds %d buckets for %d one-shot clients; eviction never ran", size, clients)
	}
	if size > quotaSweepMin+16 {
		t.Errorf("quota table holds %d buckets after sweeps, want ≈%d or fewer", size, quotaSweepMin)
	}
}
