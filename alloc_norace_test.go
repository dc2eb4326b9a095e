//go:build !race

package repro

// Allocation-regression tests for the served hot path. The race detector
// instruments allocations, so these run only in non-race builds (the CI
// race step covers the same code for correctness, not allocs).

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/queryengine"
)

// allocWorkload builds the shared NY-scale dataset and query workload the
// allocation gates replay.
func allocWorkload(t *testing.T, querySeed int64) (*dataset.Dataset, []dataset.Query) {
	t.Helper()
	d, err := dataset.NYLike(dataset.Config{Seed: 3, Scale: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(querySeed))
	qs, err := d.GenQueries(rng, 16, 3, 25e6, 5000)
	if err != nil {
		t.Fatal(err)
	}
	return d, qs
}

// TestServedSearchPathZeroAlloc pins PR 2's claim: a planner-driven served
// query — request channel round trip, query preparation, grid search,
// subgraph extraction, instance build, latency record — performs zero
// steady-state allocations. The hot-cached case replays 8 queries over
// the hot-query score cache, so after warm-up every repeat's fully-inside
// cells come from cache hits. TestServedQueryZeroAlloc below extends the
// claim through the solve phase.
func TestServedSearchPathZeroAlloc(t *testing.T) {
	for _, name := range []string{"uncached", "hot-cached"} {
		t.Run(name, func(t *testing.T) {
			d, qs := allocWorkload(t, 5)
			if name == "hot-cached" {
				qs = qs[:8]
				d.Index.SetScoreCache(4096)
			}
			srv := queryengine.NewServer(d, queryengine.ServerOptions{Workers: 1})
			defer srv.Close()
			task := queryengine.Task{Visit: func(*dataset.QueryInstance) error { return nil }}
			replay := func() {
				for _, q := range qs {
					task.Query = q
					if err := srv.Do(&task); err != nil {
						t.Fatal(err)
					}
				}
			}
			replay() // warm every pooled buffer (and the cache) across the whole workload
			replay()
			if allocs := testing.AllocsPerRun(3, replay); allocs != 0 {
				t.Fatalf("served search path allocated %.1f times per %d-query replay, want 0", allocs, len(qs))
			}
			if st, ok := d.Index.ScoreCacheStats(); name == "hot-cached" && (!ok || st.Hits == 0) {
				t.Fatalf("score cache saw no hits: %+v", st)
			}
		})
	}
}

// TestServedQueryZeroAlloc is the tentpole gate: the FULL served query —
// Do through the request channel, search path, solver (pooled scratch:
// region arena, tuple arrays, kmst/pcst state), and answer mapping back to
// parent node IDs — performs zero steady-state allocations for every
// solver method.
func TestServedQueryZeroAlloc(t *testing.T) {
	d, qs := allocWorkload(t, 5)
	for _, method := range []queryengine.Method{
		queryengine.MethodTGEN, queryengine.MethodAPP, queryengine.MethodGreedy,
	} {
		t.Run(method.String(), func(t *testing.T) {
			srv := queryengine.NewServer(d, queryengine.ServerOptions{
				Workers: 1,
				Options: queryengine.Options{Method: method},
			})
			defer srv.Close()
			task := queryengine.Task{}
			matched := 0
			replay := func() {
				for _, q := range qs {
					task.Query = q
					if err := srv.Do(&task); err != nil {
						t.Fatal(err)
					}
					if task.Result.Matched {
						matched++
					}
				}
			}
			replay() // warm every pooled buffer across the whole workload
			replay()
			if matched == 0 {
				t.Fatal("workload matched nothing; the gate would be vacuous")
			}
			if allocs := testing.AllocsPerRun(3, replay); allocs != 0 {
				t.Fatalf("%v served query allocated %.1f times per %d-query replay, want 0",
					method, allocs, len(qs))
			}
		})
	}
}

// TestServedQueryZeroAllocAfterUpdates re-pins the zero-alloc claim on a
// dataset that has absorbed live updates: inserts, deletes and reweights
// followed by a compaction must leave the served path — request round
// trip, search over the mutated posting lists, pooled solve, answer
// mapping — allocation-free, i.e. the mutability layer costs nothing on
// the memtable-empty fast path.
func TestServedQueryZeroAllocAfterUpdates(t *testing.T) {
	d, qs := allocWorkload(t, 5)
	rng := rand.New(rand.NewSource(11))
	bounds := d.Graph.BBox()
	for i := 0; i < 40; i++ {
		switch rng.Intn(3) {
		case 0:
			p := geo.Point{
				X: bounds.MinX + rng.Float64()*(bounds.MaxX-bounds.MinX),
				Y: bounds.MinY + rng.Float64()*(bounds.MaxY-bounds.MinY),
			}
			if _, err := d.Insert(p, "cafe museum park"); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := d.Delete(grid.ObjectID(rng.Intn(len(d.Objects) / 2))); err != nil &&
				!errors.Is(err, grid.ErrNoSuchObject) {
				t.Fatal(err)
			}
		default:
			id := grid.ObjectID(rng.Intn(len(d.Objects)))
			if err := d.Reweight(id, 0.5+rng.Float64()); err != nil &&
				!errors.Is(err, grid.ErrNoSuchObject) {
				t.Fatal(err)
			}
		}
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	srv := queryengine.NewServer(d, queryengine.ServerOptions{Workers: 1})
	defer srv.Close()
	task := queryengine.Task{Visit: func(*dataset.QueryInstance) error { return nil }}
	replay := func() {
		for _, q := range qs {
			task.Query = q
			if err := srv.Do(&task); err != nil {
				t.Fatal(err)
			}
		}
	}
	replay() // warm pooled buffers against the post-update object count
	replay()
	if allocs := testing.AllocsPerRun(3, replay); allocs != 0 {
		t.Fatalf("served path allocated %.1f times per %d-query replay after live updates, want 0",
			allocs, len(qs))
	}
}

// TestLiveUpdateAllocBound bounds each live-update leg's allocations per
// update on BenchmarkLiveUpdate's store, averaged over one compaction
// period as the benchmark leg does: WAL record encode, memtable entries
// and vocabulary growth, plus one compaction, must not silently regress.
func TestLiveUpdateAllocBound(t *testing.T) {
	for leg, l := range liveUpdateLegs {
		t.Run(l.name, func(t *testing.T) {
			db, update := liveUpdater(t, leg)
			defer db.Close()
			i := 0
			allocs := testing.AllocsPerRun(l.period, func() {
				if err := update(i); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if allocs > l.maxAllocs {
				t.Fatalf("%s allocated %.1f times per update over a %d-update compaction period, budget %.0f",
					l.name, allocs, l.period, l.maxAllocs)
			}
		})
	}
}

// TestPlannerInstantiateZeroAlloc is the same claim one layer down, without
// the server: a pooled planner's Instantiate is allocation-free once warm.
func TestPlannerInstantiateZeroAlloc(t *testing.T) {
	d, err := dataset.NYLike(dataset.Config{Seed: 3, Scale: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	qs, err := d.GenQueries(rng, 16, 3, 25e6, 5000)
	if err != nil {
		t.Fatal(err)
	}
	p := d.NewPlanner()
	replay := func() {
		for _, q := range qs {
			if _, err := p.Instantiate(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	replay()
	replay()
	if allocs := testing.AllocsPerRun(3, replay); allocs != 0 {
		t.Fatalf("planner replay allocated %.1f times per %d queries, want 0", allocs, len(qs))
	}
}

// TestDatabaseDoPooledPlanner pins that Database.Do borrows a pooled
// planner, solver scratch included, instead of building one per call:
// warm, it allocates per query no more than Server.Do on the same queries,
// plus a little slack, for every solver method.
func TestDatabaseDoPooledPlanner(t *testing.T) {
	db, err := NYLike(3, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := db.GenQueries(rand.New(rand.NewSource(5)), 16, 3, 25e6, 5000)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := db.Serve(ServeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, method := range []Method{MethodTGEN, MethodAPP, MethodGreedy} {
		t.Run(method.String(), func(t *testing.T) {
			perQuery := func(do func(context.Context, Request) Response) float64 {
				replay := func() {
					for _, q := range qs {
						if resp := do(context.Background(), Request{Query: q, Search: SearchOptions{Method: method}}); resp.Err != nil {
							t.Fatal(resp.Err)
						}
					}
				}
				replay() // warm every pooled buffer across the whole workload
				return testing.AllocsPerRun(3, replay) / float64(len(qs))
			}
			served := perQuery(srv.Do)
			if direct := perQuery(db.Do); direct > served+16 {
				t.Fatalf("Database.Do allocated %.1f times per query, Server.Do %.1f: want at most %.1f", direct, served, served+16)
			}
		})
	}
}
