package cluster

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/textindex"
)

// buildCorpus returns an index over n random objects in [0,1000)², with
// tokens drawn from a small vocabulary. split controls token placement:
// when true, objects in the left half (x < 500) use only left-vocab
// tokens and the right half only right-vocab ones, so term-directory
// skip routing has something to skip.
func buildCorpus(t testing.TB, n int, seed int64, split bool) (*textindex.Vocabulary, *grid.Index) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	v := textindex.NewVocabulary()
	left := []string{"cafe", "restaurant", "pizza"}
	right := []string{"bar", "museum", "park"}
	all := append(append([]string{}, left...), right...)
	objs := make([]grid.Object, 0, n)
	for i := 0; i < n; i++ {
		p := geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		pool := all
		if split {
			if p.X < 500 {
				pool = left
			} else {
				pool = right
			}
		}
		toks := make([]string, 1+rng.Intn(3))
		for j := range toks {
			toks[j] = pool[rng.Intn(len(pool))]
		}
		objs = append(objs, grid.Object{Point: p, Doc: v.IndexDoc(toks)})
	}
	idx, err := grid.NewIndex(objs, geo.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	return v, idx
}

// startNode serves idx's [lo, hi) range on a loopback listener.
func startNode(t testing.TB, idx *grid.Index, lo, hi uint32, objects int) *Node {
	t.Helper()
	n, err := NewNode(NodeConfig{Index: idx, CellLo: lo, CellHi: hi, Objects: objects})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n.Serve(ln)
	return n
}

// TestClusterGoldenSearch is the distribution golden test at the search
// level: across random queries and rectangles, the coordinator's merged
// answer over a 2-node split must be bit-identical to SearchInto on the
// undivided index.
func TestClusterGoldenSearch(t *testing.T) {
	const objects = 500
	v, idx := buildCorpus(t, objects, 7, false)
	numCells := uint32(idx.NumCells())
	mid := numCells / 2

	n1 := startNode(t, idx, 0, mid, objects)
	defer n1.Close()
	n2 := startNode(t, idx, mid, numCells, objects)
	defer n2.Close()

	c, err := NewCoordinator(CoordinatorConfig{
		Addrs:   []string{n1.Addr().String(), n2.Addr().String()},
		Index:   idx,
		Objects: objects,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	vocab := []string{"cafe", "restaurant", "pizza", "bar", "museum", "park"}
	rng := rand.New(rand.NewSource(11))
	var scratch grid.SearchScratch
	for trial := 0; trial < 40; trial++ {
		q := prepareQuery(v, []string{vocab[rng.Intn(len(vocab))], vocab[rng.Intn(len(vocab))]})
		x0, y0 := rng.Float64()*800, rng.Float64()*800
		r := geo.Rect{MinX: x0, MinY: y0, MaxX: x0 + 50 + rng.Float64()*300, MaxY: y0 + 50 + rng.Float64()*300}
		want, err := idx.SearchInto(q, r, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Search(context.Background(), q, r)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: cluster %d results, local %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d result %d: cluster %+v != local %+v", trial, i, got[i], want[i])
			}
		}
	}
	st := c.Stats()
	if st.Searches != 40 {
		t.Errorf("Searches = %d, want 40", st.Searches)
	}
	if len(st.Nodes) != 2 {
		t.Errorf("stats cover %d nodes, want 2", len(st.Nodes))
	}
	for _, ns := range st.Nodes {
		if ns.Sent == 0 {
			t.Errorf("node %s never reached (stats %+v)", ns.Addr, ns)
		}
	}

	// Node percentiles are nearest-rank, like the server's: the p95 of 13
	// samples is the 13th.
	nc := c.groups[0].replicas[0]
	nc.latMu.Lock()
	nc.lat = nc.lat[:0]
	for i := 1; i <= 13; i++ {
		nc.lat = append(nc.lat, time.Duration(i))
	}
	nc.latMu.Unlock()
	if ns := c.Stats().Nodes[0]; ns.P50 != 7 || ns.P95 != 13 || ns.P99 != 13 {
		t.Errorf("13-sample p50/p95/p99 = %d/%d/%d, want 7/13/13", ns.P50, ns.P95, ns.P99)
	}
}

// TestClusterSkipRouting: groups whose cells cannot intersect the
// rectangle, or whose term directory shares nothing with the query, are
// skipped without an RPC.
func TestClusterSkipRouting(t *testing.T) {
	const objects = 400
	v, idx := buildCorpus(t, objects, 13, true)
	numCells := uint32(idx.NumCells())
	mid := numCells / 2

	n1 := startNode(t, idx, 0, mid, objects)
	defer n1.Close()
	n2 := startNode(t, idx, mid, numCells, objects)
	defer n2.Close()
	c, err := NewCoordinator(CoordinatorConfig{
		Addrs:   []string{n1.Addr().String(), n2.Addr().String()},
		Index:   idx,
		Objects: objects,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Rect skip: a thin rectangle in the far top-left rows misses the
	// second group's cells entirely (row-major ids: low rows = low ids).
	q := prepareQuery(v, []string{"cafe"})
	if _, err := c.Search(context.Background(), q, geo.Rect{MinX: 0, MinY: 0, MaxX: 900, MaxY: 20}); err != nil {
		t.Fatal(err)
	}
	if c.Stats().SkippedRect == 0 {
		t.Error("thin low-row rectangle skipped no group by rect")
	}

	// Term skip: the corpus was built split, so a right-vocab-only query
	// shares no term with the left half's directory... but cells are
	// row-major, so the left half of space is spread across both id
	// ranges. Verify instead against per-group terms directly: a query of
	// nonsense terms skips every group.
	nonsense := textindex.Query{Terms: []textindex.TermID{9999}, IDF: []float64{1}, Norm: 1}
	before := c.Stats().SkippedTerm
	if res, err := c.Search(context.Background(), nonsense, geo.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}); err != nil || len(res) != 0 {
		t.Fatalf("nonsense query: %d results, err %v", len(res), err)
	}
	if c.Stats().SkippedTerm != before+2 {
		t.Errorf("nonsense query skipped %d groups by term, want 2", c.Stats().SkippedTerm-before)
	}
}

// TestClusterReplicaFailover: with two replicas of one range, killing
// one mid-workload degrades to retries, never wrong or missing answers;
// killing both fails typed with ErrNoReplica.
func TestClusterReplicaFailover(t *testing.T) {
	const objects = 300
	v, idx := buildCorpus(t, objects, 17, false)
	numCells := uint32(idx.NumCells())

	r1 := startNode(t, idx, 0, numCells, objects)
	r2 := startNode(t, idx, 0, numCells, objects)
	defer r1.Close()
	defer r2.Close()

	c, err := NewCoordinator(CoordinatorConfig{
		Addrs:   []string{r1.Addr().String(), r2.Addr().String()},
		Index:   idx,
		Objects: objects,
		// Tight timeouts keep the dead-replica dial cheap in this test.
		DialTimeout: 2 * time.Second,
		RPCTimeout:  5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	q := prepareQuery(v, []string{"cafe", "museum"})
	rect := geo.Rect{MinX: 100, MinY: 100, MaxX: 600, MaxY: 600}
	var scratch grid.SearchScratch
	want, err := idx.SearchInto(q, rect, &scratch)
	if err != nil {
		t.Fatal(err)
	}
	check := func(tag string) {
		got, err := c.Search(context.Background(), q, rect)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d results, want %d", tag, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: result %d = %+v, want %+v", tag, i, got[i], want[i])
			}
		}
	}

	// Warm phase: both replicas up, concurrent clients.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				check("warm")
			}
		}()
	}
	wg.Wait()

	// Kill replica 1 mid-workload; every query must still answer exactly.
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		check("one replica down")
	}

	// Kill the survivor: typed fail-fast, no silent partial answers.
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Search(context.Background(), q, rect); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("both replicas down: err = %v, want ErrNoReplica", err)
	}
	if st := c.Stats(); st.NoReplica == 0 {
		t.Error("NoReplica counter never incremented")
	}
}

// TestClusterQuota: a client that exhausts its token bucket is refused
// typed; an unknown client starts with a full bucket.
func TestClusterQuota(t *testing.T) {
	const objects = 100
	_, idx := buildCorpus(t, objects, 19, false)
	numCells := uint32(idx.NumCells())
	n := startNode(t, idx, 0, numCells, objects)
	defer n.Close()
	c, err := NewCoordinator(CoordinatorConfig{
		Addrs:   []string{n.Addr().String()},
		Index:   idx,
		Objects: objects,
		Quota:   &QuotaOptions{RatePerSec: 0.001, Burst: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 2; i++ {
		if err := c.Admit("alice"); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	if err := c.Admit("alice"); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("third request: err = %v, want ErrQuotaExceeded", err)
	}
	if err := c.Admit("bob"); err != nil {
		t.Fatalf("fresh client refused: %v", err)
	}
	if st := c.Stats(); st.QuotaDenied != 1 {
		t.Errorf("QuotaDenied = %d, want 1", st.QuotaDenied)
	}
}

// TestClusterTopologyValidation: startup refuses gaps in cell coverage
// and nodes built from a different corpus.
func TestClusterTopologyValidation(t *testing.T) {
	const objects = 100
	_, idx := buildCorpus(t, objects, 23, false)
	numCells := uint32(idx.NumCells())
	mid := numCells / 2

	// Gap: only the first half is served.
	n1 := startNode(t, idx, 0, mid, objects)
	defer n1.Close()
	if _, err := NewCoordinator(CoordinatorConfig{
		Addrs: []string{n1.Addr().String()}, Index: idx, Objects: objects,
	}); !errors.Is(err, ErrBadTopology) {
		t.Fatalf("half-covered topology: err = %v, want ErrBadTopology", err)
	}

	// Corpus mismatch: the node reports a different object count.
	n2 := startNode(t, idx, mid, numCells, objects+5)
	defer n2.Close()
	if _, err := NewCoordinator(CoordinatorConfig{
		Addrs: []string{n1.Addr().String(), n2.Addr().String()}, Index: idx, Objects: objects,
	}); !errors.Is(err, ErrMismatch) {
		t.Fatalf("corpus mismatch: err = %v, want ErrMismatch", err)
	}
}

// TestClusterDeadline: an already-expired context fails the search with
// the context's error, not a hang.
func TestClusterDeadline(t *testing.T) {
	const objects = 100
	v, idx := buildCorpus(t, objects, 29, false)
	numCells := uint32(idx.NumCells())
	n := startNode(t, idx, 0, numCells, objects)
	defer n.Close()
	c, err := NewCoordinator(CoordinatorConfig{
		Addrs: []string{n.Addr().String()}, Index: idx, Objects: objects,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	q := prepareQuery(v, []string{"cafe"})
	if _, err := c.Search(ctx, q, geo.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}); err == nil {
		t.Fatal("expired context searched successfully")
	}
}

// prepareQuery prepares keywords on a scratch of its own, so the query
// stays valid for the caller's lifetime.
func prepareQuery(v *textindex.Vocabulary, keywords []string) textindex.Query {
	var s textindex.QueryScratch
	return v.PrepareQueryInto(keywords, &s)
}
