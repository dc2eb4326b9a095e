package repro

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/queryengine"
)

// TestServerCloseDuringInflightHTTP closes the server while HTTP clients
// are mid-request and more keep arriving: every request must finish with
// a real answer or a typed error status (no hangs, no panics), a second
// Close must be a no-op, and the worker goroutines must all exit.
func TestServerCloseDuringInflightHTTP(t *testing.T) {
	db, qs := serveWorkload(t)
	goroutinesBefore := runtime.NumGoroutine()
	srv, err := db.Serve(ServeOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.HTTPHandler(HTTPOptions{}))
	defer hs.Close()
	body := httpQueryBody(qs[0], "", 0, 0)

	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp, err := http.Post(hs.URL+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("post: %v", err)
					return
				}
				// Before Close: 200. After: the typed mapping of
				// ErrServerClosed (500 with its message) — never a hang.
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusInternalServerError {
					t.Errorf("status %d, want 200 or 500", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}()
	}
	time.Sleep(5 * time.Millisecond) // let requests get in flight
	var closeWG sync.WaitGroup
	for i := 0; i < 3; i++ { // concurrent Close: must be idempotent and race-free
		closeWG.Add(1)
		go func() {
			defer closeWG.Done()
			srv.Close()
		}()
	}
	closeWG.Wait()
	wg.Wait()
	srv.Close() // double Close after the fact: still a no-op

	// A request after Close fails typed, not by hanging.
	if err := srv.Do(context.Background(), Request{Query: qs[0]}).Err; !errors.Is(err, queryengine.ErrServerClosed) {
		t.Fatalf("Do after close = %v, want ErrServerClosed", err)
	}

	// The worker pool must be gone. The HTTP test server keeps its own
	// goroutines, so compare against the pre-Serve baseline with slack for
	// idle net/http keep-alive handlers that exit on their own schedule.
	hs.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= goroutinesBefore+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines after Close: %d, want <= %d (leak)", runtime.NumGoroutine(), goroutinesBefore+2)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterDoubleClose covers the same discipline one layer up: a
// Cluster's Close is idempotent, restores local serving on the database,
// and leaves no goroutines behind.
func TestClusterDoubleClose(t *testing.T) {
	coordDB, err := NYLike(4, 0.12)
	if err != nil {
		t.Fatal(err)
	}
	nodeDB, err := NYLike(4, 0.12)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := genTestQueries(coordDB)
	if err != nil {
		t.Fatal(err)
	}
	goroutinesBefore := runtime.NumGoroutine()
	addrs, _ := startClusterNodes(t, 1, nodeDB, nodeDB)
	cl, err := coordDB.OpenCluster(ClusterOptions{Nodes: addrs, Serve: ServeOptions{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if resp := cl.Do(context.Background(), Request{Query: qs[0]}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := cl.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
	}
	wg.Wait()
	// Local serving is restored: the database answers without the cluster.
	if err := coordDB.Do(context.Background(), Request{Query: qs[0]}).Err; err != nil {
		t.Fatalf("local Do after cluster close: %v", err)
	}
	// Node accept loops are still running (owned by startClusterNodes's
	// cleanup); only the coordinator-side goroutines must be gone, so
	// allow the node accept goroutines in the budget.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= goroutinesBefore+len(addrs) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines after cluster close: %d, want <= %d", runtime.NumGoroutine(), goroutinesBefore+len(addrs))
		}
		time.Sleep(10 * time.Millisecond)
	}
}
