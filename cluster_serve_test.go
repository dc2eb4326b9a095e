package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
)

// startClusterNodes splits the cell space evenly into one range per
// database and serves range i from nodeDBs[i] with `replicas`
// interchangeable loopback listeners, returning the node addresses in
// coordinator order and the handles for shutdown.
func startClusterNodes(tb testing.TB, replicas int, nodeDBs ...*Database) ([]string, []*ClusterNode) {
	tb.Helper()
	num := uint32(nodeDBs[0].ds.Index.NumCells())
	if num < uint32(len(nodeDBs)) {
		tb.Fatalf("degenerate cell split: %d cells over %d nodes", num, len(nodeDBs))
	}
	var addrs []string
	var nodes []*ClusterNode
	tb.Cleanup(func() {
		for _, cn := range nodes {
			cn.Close()
		}
	})
	for i, db := range nodeDBs {
		lo, hi := num*uint32(i)/uint32(len(nodeDBs)), num*uint32(i+1)/uint32(len(nodeDBs))
		for r := 0; r < replicas; r++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				tb.Fatal(err)
			}
			cn, err := db.ServeClusterNode(ln, lo, hi)
			if err != nil {
				tb.Fatal(err)
			}
			nodes = append(nodes, cn)
			addrs = append(addrs, cn.Addr().String())
		}
	}
	return addrs, nodes
}

// TestClusterServeGolden is the acceptance guarantee for distributed
// serving: a coordinator over a 2-node cell split (each half replicated
// twice) answers a concurrent workload bit-identically to a Server on a
// single process holding all the data — for every method, and still after
// one replica of each half is killed mid-test (the coordinator retries on
// the survivor).
func TestClusterServeGolden(t *testing.T) {
	ref, qs := serveWorkload(t) // the single-process reference answers
	coordDB, err := NYLike(4, 0.12)
	if err != nil {
		t.Fatal(err)
	}
	nodeDB, err := NYLike(4, 0.12)
	if err != nil {
		t.Fatal(err)
	}
	addrs, nodes := startClusterNodes(t, 2, nodeDB, nodeDB)
	cl, err := coordDB.OpenCluster(ClusterOptions{Nodes: addrs, Serve: ServeOptions{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	run := func(opts SearchOptions) []*Result {
		got := make([]*Result, len(qs))
		var wg sync.WaitGroup
		for i := range qs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp := cl.Do(context.Background(), Request{Query: qs[i], Search: opts})
				if resp.Err != nil {
					t.Errorf("cluster Do %d: %v", i, resp.Err)
					return
				}
				got[i] = resp.Best()
			}(i)
		}
		wg.Wait()
		return got
	}

	want := make(map[Method][]*Result)
	for _, method := range []Method{MethodTGEN, MethodAPP, MethodGreedy} {
		opts := SearchOptions{Method: method}
		want[method], _ = serveAll(t, ref, qs, opts, 2)
		if got := run(opts); !reflect.DeepEqual(got, want[method]) {
			t.Fatalf("%v: cluster answers differ from single-process serving", method)
		}
	}

	// Kill one replica of each half; the survivors still hold all the
	// data, so answers must stay bit-identical (failures surface as
	// retries, never as partial results).
	nodes[0].Close()
	nodes[2].Close()
	for _, method := range []Method{MethodTGEN, MethodGreedy} {
		if got := run(SearchOptions{Method: method}); !reflect.DeepEqual(got, want[method]) {
			t.Fatalf("%v: cluster answers changed after replica kill", method)
		}
	}

	st := cl.Stats()
	if st.Searches == 0 {
		t.Fatal("coordinator recorded no searches")
	}
	if st.NoReplica != 0 {
		t.Fatalf("NoReplica = %d, want 0 (one replica per half survived)", st.NoReplica)
	}
	if st.Groups != 2 {
		t.Fatalf("Groups = %d, want 2", st.Groups)
	}
	if len(st.Nodes) != 4 {
		t.Fatalf("node stats entries = %d, want 4", len(st.Nodes))
	}
	if ss := cl.ServeStats(); ss.Served == 0 {
		t.Fatal("serve pool recorded no requests")
	}
}

// TestClusterQuotaAndTypedErrors checks admission control end to end:
// with a two-token burst, the third request from one client is refused
// with ErrQuotaExceeded (429 over HTTP), while killing every replica of
// a range turns queries into typed ErrNoReplica (503), never a partial
// answer.
func TestClusterQuotaAndTypedErrors(t *testing.T) {
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
	addrs, nodes := startClusterNodes(t, 1, nodeDB, nodeDB)
	cl, err := coordDB.OpenCluster(ClusterOptions{
		Nodes: addrs,
		Serve: ServeOptions{Workers: 1},
		Quota: &ClusterQuota{RatePerSec: 0.001, Burst: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	hs := httptest.NewServer(cl.HTTPHandler(HTTPOptions{}))
	defer hs.Close()
	body, err := json.Marshal(map[string]any{
		"keywords": qs[0].Keywords,
		"delta":    qs[0].Delta,
		"region": map[string]float64{
			"min_x": qs[0].Region.MinX, "min_y": qs[0].Region.MinY,
			"max_x": qs[0].Region.MaxX, "max_y": qs[0].Region.MaxY,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	post := func() int {
		resp, err := http.Post(hs.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if got := post(); got != http.StatusOK {
		t.Fatalf("first request: status %d, want 200", got)
	}
	if got := post(); got != http.StatusOK {
		t.Fatalf("second request: status %d, want 200", got)
	}
	if got := post(); got != http.StatusTooManyRequests {
		t.Fatalf("over-quota request: status %d, want 429", got)
	}

	// The /stats body must carry the cluster fragment and the quota denial.
	sresp, err := http.Get(hs.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Tombstones int `json:"tombstones"`
		Cluster    *struct {
			Searches    int64 `json:"searches"`
			QuotaDenied int64 `json:"quota_denied"`
			Groups      int   `json:"groups"`
			Nodes       []struct {
				Addr string `json:"addr"`
			} `json:"nodes"`
		} `json:"cluster"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if stats.Cluster == nil {
		t.Fatal("/stats missing cluster fragment")
	}
	if stats.Cluster.QuotaDenied != 1 {
		t.Fatalf("quota_denied = %d, want 1", stats.Cluster.QuotaDenied)
	}
	if stats.Cluster.Groups != 2 || len(stats.Cluster.Nodes) != 2 {
		t.Fatalf("cluster stats shape: groups=%d nodes=%d, want 2/2", stats.Cluster.Groups, len(stats.Cluster.Nodes))
	}

	// Kill the only replica of each range: a direct query (own quota
	// bucket, so admission passes) must fail typed, not hang or answer
	// partially.
	for _, cn := range nodes {
		cn.Close()
	}
	resp := cl.Do(context.Background(), Request{Query: qs[0]})
	if resp.Err == nil {
		t.Fatal("query with every replica dead succeeded")
	}
	if !errors.Is(resp.Err, ErrNoReplica) {
		// The query may also have been routed nowhere (all cells skipped);
		// any other error must still be the typed one.
		t.Fatalf("err = %v, want ErrNoReplica", resp.Err)
	}
	if st := cl.Stats(); st.NoReplica == 0 {
		t.Fatal("NoReplica counter did not advance")
	}

	// Deleting an object surfaces in StoreStats and /stats as a tombstone.
	if err := coordDB.Delete(0); err != nil {
		t.Fatal(err)
	}
	if ss, _ := coordDB.StoreStats(); ss.Tombstones != 1 {
		t.Fatalf("StoreStats.Tombstones = %d, want 1", ss.Tombstones)
	}
}

// genTestQueries builds a small deterministic workload against db.
func genTestQueries(db *Database) ([]Query, error) {
	return db.GenQueries(rand.New(rand.NewSource(44)), 4, 3, 25e6, 5000)
}
