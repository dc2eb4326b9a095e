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

// BenchmarkQueryThroughput answers a fixed 64-query TGEN workload through
// RunBatch end-to-end (server round trip → grid lookup → CSR extraction →
// solver → materialize) and reports queries/s per worker count.
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
				res, _, err := db.RunBatch(context.Background(), qs, SearchOptions{}, w)
				if err != nil {
					b.Fatal(err)
				}
				if len(res) != len(qs) {
					b.Fatal("missing results")
				}
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
//   - hot-cached replays a Zipfian hot-spot workload (8 distinct queries)
//     on a fresh dataset with the hot-query score cache enabled: after
//     warm-up, every repeat's fully-inside cells come from the cache.
//
// Every sub-benchmark must report 0 B/op, 0 allocs/op steady-state
// (asserted by TestServedSearchPathZeroAlloc, TestServedQueryZeroAlloc
// and TestScoreCacheHitZeroAlloc, and gated numerically by
// scripts/bench-json.sh).
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
		rng := rand.New(rand.NewSource(5))
		qs, err := d.GenHotspotQueries(rng, 64, 8, 3, 25e6, 5000, 1.2)
		if err != nil {
			b.Fatal(err)
		}
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

// BenchmarkLiveUpdate measures the live mutation path over the sharded
// on-disk store and re-measures the served query path on a mutated
// dataset.
//
//   - insert / reweight / delete report updates/s against a 4-shard
//     store with the fsync discipline enabled — each iteration is one
//     durable WAL append plus memtable apply, with automatic compaction
//     folding the memtable into the B+-trees every 512 updates.
//   - serve-after-updates replays the ServeQuery workload on an
//     in-memory dataset that absorbed a mixed update batch and a
//     compaction; it must stay 0 B/op, 0 allocs/op (gated numerically by
//     scripts/bench-json.sh against scripts/bench-baseline.json — the
//     memtable-empty fast path costs nothing).
func BenchmarkLiveUpdate(b *testing.B) {
	mkDisk := func(b *testing.B) *Database {
		db, err := NYLikeWithStore(3, 0.05, StoreConfig{
			Path: b.TempDir() + "/store", Shards: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		return db
	}
	perSecond := func(b *testing.B) {
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "updates/s")
	}
	b.Run("insert", func(b *testing.B) {
		db := mkDisk(b)
		defer db.Close()
		r := db.Bounds()
		rng := rand.New(rand.NewSource(1))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, err := db.Insert(ObjectSpec{
				X:    r.MinX + rng.Float64()*(r.MaxX-r.MinX),
				Y:    r.MinY + rng.Float64()*(r.MaxY-r.MinY),
				Text: "cafe museum park",
			})
			if err != nil {
				b.Fatal(err)
			}
			if (i+1)%512 == 0 {
				if err := db.Compact(); err != nil {
					b.Fatal(err)
				}
			}
		}
		perSecond(b)
	})
	b.Run("reweight", func(b *testing.B) {
		db := mkDisk(b)
		defer db.Close()
		n := db.NumObjects()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Alternate ×1.25, ×0.8 so weights stay bounded over any b.N.
			f := 1.25
			if i%2 == 1 {
				f = 0.8
			}
			if err := db.Reweight(i%n, f); err != nil {
				b.Fatal(err)
			}
			if (i+1)%512 == 0 {
				if err := db.Compact(); err != nil {
					b.Fatal(err)
				}
			}
		}
		perSecond(b)
	})
	b.Run("delete", func(b *testing.B) {
		db := mkDisk(b)
		defer db.Close()
		r := db.Bounds()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Insert+delete pairs keep a stable live set; the delete half
			// is what's being measured alongside its WAL append.
			id, err := db.Insert(ObjectSpec{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2, Text: "bar"})
			if err != nil {
				b.Fatal(err)
			}
			if err := db.Delete(id); err != nil {
				b.Fatal(err)
			}
			if (i+1)%256 == 0 {
				if err := db.Compact(); err != nil {
					b.Fatal(err)
				}
			}
		}
		perSecond(b)
	})
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
