package repro

// One benchmark per table/figure of the paper's evaluation (§7), plus the
// engine, serving and store benchmarks (the per-algorithm micro benchmarks
// are internal/core's BenchmarkSolve*). Each figure benchmark drives the same
// runner cmd/benchfig uses, on a reduced environment so `go test -bench=.`
// finishes in minutes; run cmd/benchfig for full-size tables.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/queryengine"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
)

func sharedEnv(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		benchEnv = experiments.NewEnv(experiments.Config{Scale: 0.15, Queries: 2, Seed: 11})
	})
	return benchEnv
}

func benchTable(b *testing.B, run func() (experiments.Table, error)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

func BenchmarkTable1BinarySearchTrace(b *testing.B) {
	e := sharedEnv(b)
	benchTable(b, e.Table1)
}

func BenchmarkFig07Fig08APPAlphaSweep(b *testing.B) {
	e := sharedEnv(b)
	benchTable(b, e.Fig7And8)
}

func BenchmarkFig09Fig10TGENAlphaSweep(b *testing.B) {
	e := sharedEnv(b)
	benchTable(b, e.Fig9And10)
}

func BenchmarkFig11Fig12APPBetaSweep(b *testing.B) {
	e := sharedEnv(b)
	benchTable(b, e.Fig11And12)
}

func BenchmarkFig13Fig14GreedyMuSweep(b *testing.B) {
	e := sharedEnv(b)
	benchTable(b, e.Fig13And14)
}

func BenchmarkFig15aKeywordsNY(b *testing.B) {
	e := sharedEnv(b)
	benchTable(b, func() (experiments.Table, error) { return e.Fig15(experiments.SweepKeywords) })
}

func BenchmarkFig15cDeltaNY(b *testing.B) {
	e := sharedEnv(b)
	benchTable(b, func() (experiments.Table, error) { return e.Fig15(experiments.SweepDelta) })
}

func BenchmarkFig15eLambdaNY(b *testing.B) {
	e := sharedEnv(b)
	benchTable(b, func() (experiments.Table, error) { return e.Fig15(experiments.SweepLambda) })
}

func BenchmarkFig16aKeywordsUSANW(b *testing.B) {
	e := sharedEnv(b)
	benchTable(b, func() (experiments.Table, error) { return e.Fig16(experiments.SweepKeywords) })
}

func BenchmarkFig16cDeltaUSANW(b *testing.B) {
	e := sharedEnv(b)
	benchTable(b, func() (experiments.Table, error) { return e.Fig16(experiments.SweepDelta) })
}

func BenchmarkFig16eLambdaUSANW(b *testing.B) {
	e := sharedEnv(b)
	benchTable(b, func() (experiments.Table, error) { return e.Fig16(experiments.SweepLambda) })
}

func BenchmarkFig17to19ExampleRegions(b *testing.B) {
	e := sharedEnv(b)
	benchTable(b, e.Examples)
}

func BenchmarkFig20MaxRSComparison(b *testing.B) {
	e := sharedEnv(b)
	benchTable(b, e.MaxRSComparison)
}

func BenchmarkFig21TopKNY(b *testing.B) {
	e := sharedEnv(b)
	benchTable(b, func() (experiments.Table, error) { return e.TopK("NY") })
}

func BenchmarkFig22TopKUSANW(b *testing.B) {
	e := sharedEnv(b)
	benchTable(b, func() (experiments.Table, error) { return e.TopK("USANW") })
}

func BenchmarkAblationKMSTSolvers(b *testing.B) {
	e := sharedEnv(b)
	benchTable(b, e.AblationKMST)
}

func BenchmarkAblationTGENEdgeOrder(b *testing.B) {
	e := sharedEnv(b)
	benchTable(b, e.AblationOrder)
}

// --- workload throughput through the parallel query engine --------------

var (
	tputOnce sync.Once
	tputDS   *dataset.Dataset
	tputQS   []dataset.Query
)

func throughputWorkload(b *testing.B) (*dataset.Dataset, []dataset.Query) {
	b.Helper()
	tputOnce.Do(func() {
		d, err := dataset.NYLike(dataset.Config{Seed: 3, Scale: 0.2})
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(5))
		qs, err := d.GenQueries(rng, 64, 3, 25e6, 5000)
		if err != nil {
			panic(err)
		}
		tputDS, tputQS = d, qs
	})
	return tputDS, tputQS
}

// BenchmarkQueryThroughput answers a fixed 64-query TGEN workload end to
// end (server round trip → grid lookup → CSR extraction → solver →
// materialize) through a fresh Server per iteration, with as many
// concurrent Server.Do clients as workers, and reports queries/s per
// worker count. scripts/bench-gates.sh requires workers=4 at -cpu=4 to be
// at least 2x faster than workers=1 at -cpu=1.
func BenchmarkQueryThroughput(b *testing.B) {
	d, dqs := throughputWorkload(b)
	db := &Database{ds: d}
	qs := make([]Query, len(dqs))
	for i, q := range dqs {
		qs[i] = Query{Keywords: q.Keywords, Delta: q.Delta, Region: fromGeo(q.Lambda)}
	}
	workerCounts := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		workerCounts = append(workerCounts, p)
	}
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				serveAll(b, db, qs, SearchOptions{}, w)
			}
			b.ReportMetric(float64(len(qs))*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

// BenchmarkClusterColdRead answers a 96-query Greedy set through a
// coordinator over in-process node listeners on loopback TCP (the
// topology of bench/'s cluster_scatter workload): one node owning every
// grid cell (nodes=1), or two nodes splitting the cell space in half
// (nodes=2). Each node is its own Database over its own fresh 4-shard
// disk store with a page cache of 16 pages per shard, as search_cold_disk
// uses. At scale 2 that is far smaller than the working set (about one
// page fetch in eight misses), so reads stay cold across iterations; at
// smaller scales the whole store fits in the 8-page-per-shard cache
// floor. Greedy keeps the coordinator's solve from hiding the reads. One
// iteration is the whole set, sent by 8 concurrent Cluster.Do clients to
// a 4-worker coordinator. scripts/bench-gates.sh requires nodes=2 to be
// at least 1.05x faster than nodes=1 at 4 CPUs.
func BenchmarkClusterColdRead(b *testing.B) {
	const (
		seed       = 1
		scale      = 2
		clients    = 8
		cachePages = 16
	)
	coordDB, err := NYLike(seed, scale)
	if err != nil {
		b.Fatal(err)
	}
	qs, err := coordDB.GenQueries(rand.New(rand.NewSource(seed+100)), 96, 3, 100e6, 10000)
	if err != nil {
		b.Fatal(err)
	}
	newNode := func() *Database {
		db, err := NYLikeWithStore(seed, scale, StoreConfig{
			Path: b.TempDir() + "/store", Shards: 4, CachePages: cachePages, NoSync: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { db.Close() })
		return db
	}
	for _, nodeDBs := range [][]*Database{{newNode()}, {newNode(), newNode()}} {
		b.Run(fmt.Sprintf("nodes=%d", len(nodeDBs)), func(b *testing.B) {
			addrs, _ := startClusterNodes(b, 1, nodeDBs...)
			cl, err := coordDB.OpenCluster(ClusterOptions{
				Nodes: addrs, Serve: ServeOptions{Workers: 4, Search: SearchOptions{Method: MethodGreedy}},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var next atomic.Int64
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for j := int(next.Add(1)) - 1; j < len(qs); j = int(next.Add(1)) - 1 {
							if resp := cl.Do(context.Background(), Request{Query: qs[j]}); resp.Err != nil {
								b.Error(resp.Err)
								return
							}
						}
					}()
				}
				wg.Wait()
			}
			b.ReportMetric(float64(len(qs))*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

// BenchmarkServeQuery replays a served workload through the streaming
// server with one reusable Task per benchmark.
//
//   - searchpath measures the planner-driven served query up to (not
//     including) the solver — request round trip, PrepareQueryInto,
//     SearchInto, CSR extraction, instance build, latency record.
//   - tgen-e2e / app-e2e / greedy-e2e measure the full served path per
//     solver method — search, pooled solve, and result mapping, i.e. what
//     a real client sees.
//   - hot-cached replays 8 distinct queries round-robin on a fresh
//     dataset with the hot-query score cache enabled: after warm-up,
//     every repeat's fully-inside cells come from the cache.
//
// Every sub-benchmark must report 0 B/op, 0 allocs/op steady-state
// (asserted by TestServedSearchPathZeroAlloc and
// TestServedQueryZeroAlloc, hot-cached included).
func BenchmarkServeQuery(b *testing.B) {
	d, qs := throughputWorkload(b)
	b.Run("searchpath", func(b *testing.B) {
		srv := queryengine.NewServer(d, queryengine.ServerOptions{Workers: 1})
		defer srv.Close()
		task := queryengine.Task{Visit: func(*dataset.QueryInstance) error { return nil }}
		for _, q := range qs { // warm the pooled buffers across the workload
			task.Query = q
			if err := srv.Do(&task); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			task.Query = qs[i%len(qs)]
			if err := srv.Do(&task); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, m := range []queryengine.Method{
		queryengine.MethodTGEN, queryengine.MethodAPP, queryengine.MethodGreedy,
	} {
		b.Run(strings.ToLower(m.String())+"-e2e", func(b *testing.B) {
			srv := queryengine.NewServer(d, queryengine.ServerOptions{
				Workers: 1,
				Options: queryengine.Options{Method: m},
			})
			defer srv.Close()
			task := queryengine.Task{}
			for _, q := range qs { // warm the pooled buffers across the workload
				task.Query = q
				if err := srv.Do(&task); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				task.Query = qs[i%len(qs)]
				if err := srv.Do(&task); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
		})
	}
	b.Run("hot-cached", func(b *testing.B) {
		// A fresh dataset: enabling the score cache on the shared one
		// would perturb the other sub-benchmarks.
		d, err := dataset.NYLike(dataset.Config{Seed: 3, Scale: 0.2})
		if err != nil {
			b.Fatal(err)
		}
		qs := qs[:8]
		d.Index.SetScoreCache(4096)
		srv := queryengine.NewServer(d, queryengine.ServerOptions{Workers: 1})
		defer srv.Close()
		task := queryengine.Task{Visit: func(*dataset.QueryInstance) error { return nil }}
		for _, q := range qs { // warm the pooled buffers and fill the cache
			task.Query = q
			if err := srv.Do(&task); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			task.Query = qs[i%len(qs)]
			if err := srv.Do(&task); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if st, ok := d.Index.ScoreCacheStats(); !ok || st.Hits == 0 {
			b.Fatalf("score cache saw no hits: %+v", st)
		}
	})
}

// BenchmarkInstantiate isolates working-graph construction (extraction +
// scoring + CSR instance) with a pooled planner, the per-query fixed cost
// every method pays.
func BenchmarkInstantiate(b *testing.B) {
	d, qs := throughputWorkload(b)
	p := d.NewPlanner()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Instantiate(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// liveUpdateLegs are BenchmarkLiveUpdate's mutation legs. start returns
// the function applying update i; the leg compacts after every period-th
// update, and maxAllocs bounds its allocations per update averaged over
// one such period (TestLiveUpdateAllocBound).
var liveUpdateLegs = []struct {
	name      string
	period    int
	maxAllocs float64
	start     func(db *Database) func(i int) error
}{
	{"insert", 512, 80, func(db *Database) func(int) error {
		r := db.Bounds()
		rng := rand.New(rand.NewSource(1))
		return func(int) error {
			_, err := db.Insert(ObjectSpec{
				X:    r.MinX + rng.Float64()*(r.MaxX-r.MinX),
				Y:    r.MinY + rng.Float64()*(r.MaxY-r.MinY),
				Text: "cafe museum park",
			})
			return err
		}
	}},
	{"reweight", 512, 64, func(db *Database) func(int) error {
		n := db.NumObjects()
		return func(i int) error {
			// Alternate ×1.25, ×0.8 so weights stay bounded over any count.
			f := 1.25
			if i%2 == 1 {
				f = 0.8
			}
			return db.Reweight(i%n, f)
		}
	}},
	{"delete", 256, 48, func(db *Database) func(int) error {
		r := db.Bounds()
		return func(int) error {
			// Insert+delete pairs keep a stable live set; the delete half
			// is what's being measured alongside its WAL append.
			id, err := db.Insert(ObjectSpec{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2, Text: "bar"})
			if err != nil {
				return err
			}
			return db.Delete(id)
		}
	}},
}

// liveUpdater opens the store every live-update leg runs on — the NY-like
// dataset at scale 0.05 over a fresh 4-shard disk store, fsync on — and
// returns it with the function applying leg's update i, compacting after
// every period-th update.
func liveUpdater(tb testing.TB, leg int) (*Database, func(i int) error) {
	tb.Helper()
	db, err := NYLikeWithStore(3, 0.05, StoreConfig{Path: tb.TempDir() + "/store", Shards: 4})
	if err != nil {
		tb.Fatal(err)
	}
	l := liveUpdateLegs[leg]
	apply := l.start(db)
	return db, func(i int) error {
		if err := apply(i); err != nil {
			return err
		}
		if (i+1)%l.period == 0 {
			return db.Compact()
		}
		return nil
	}
}

// BenchmarkLiveUpdate measures the live mutation path over the sharded
// on-disk store and re-measures the served query path on a mutated
// dataset.
//
//   - insert / reweight / delete (liveUpdateLegs) report updates/s
//     against a 4-shard store with the fsync discipline enabled — each
//     iteration is one durable WAL append plus memtable apply, with
//     compaction folding the memtable into the B+-trees every period.
//   - serve-after-updates replays the ServeQuery workload on an
//     in-memory dataset that absorbed a mixed update batch and a
//     compaction; it must stay 0 B/op, 0 allocs/op (asserted by
//     TestServedQueryZeroAllocAfterUpdates — the memtable-empty fast path
//     costs nothing).
func BenchmarkLiveUpdate(b *testing.B) {
	for leg := range liveUpdateLegs {
		b.Run(liveUpdateLegs[leg].name, func(b *testing.B) {
			db, update := liveUpdater(b, leg)
			defer db.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := update(i); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "updates/s")
		})
	}
	b.Run("serve-after-updates", func(b *testing.B) {
		d, err := dataset.NYLike(dataset.Config{Seed: 3, Scale: 0.2})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		qs, err := d.GenQueries(rng, 64, 3, 25e6, 5000)
		if err != nil {
			b.Fatal(err)
		}
		bounds := d.Graph.BBox()
		for i := 0; i < 64; i++ {
			switch i % 3 {
			case 0:
				p := geo.Point{
					X: bounds.MinX + rng.Float64()*(bounds.MaxX-bounds.MinX),
					Y: bounds.MinY + rng.Float64()*(bounds.MaxY-bounds.MinY),
				}
				if _, err := d.Insert(p, "cafe museum park"); err != nil {
					b.Fatal(err)
				}
			case 1:
				if err := d.Delete(grid.ObjectID(i)); err != nil {
					b.Fatal(err)
				}
			default:
				if err := d.Reweight(grid.ObjectID(i+100), 1.1); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := d.Compact(); err != nil {
			b.Fatal(err)
		}
		srv := queryengine.NewServer(d, queryengine.ServerOptions{Workers: 1})
		defer srv.Close()
		task := queryengine.Task{Visit: func(*dataset.QueryInstance) error { return nil }}
		for _, q := range qs { // warm pooled buffers
			task.Query = q
			if err := srv.Do(&task); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			task.Query = qs[i%len(qs)]
			if err := srv.Do(&task); err != nil {
				b.Fatal(err)
			}
		}
	})
}
