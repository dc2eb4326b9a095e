package queryengine

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/roadnet"
)

func testWorkload(t *testing.T, scale float64, count int) (*dataset.Dataset, []dataset.Query) {
	t.Helper()
	d, err := dataset.NYLike(dataset.Config{Seed: 7, Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(70))
	qs, err := d.GenQueries(rng, count, 3, 25e6, 5000)
	if err != nil {
		t.Fatal(err)
	}
	return d, qs
}

// serial answers qs one at a time on a fresh planner through Solve: the
// reference every served answer must match bit for bit.
func serial(t *testing.T, d *dataset.Dataset, qs []dataset.Query, opts Options) []Result {
	t.Helper()
	p := d.NewPlanner()
	out := make([]Result, len(qs))
	for i, q := range qs {
		qi, err := p.Instantiate(q)
		if err != nil {
			t.Fatal(err)
		}
		region, err := Solve(context.Background(), qi, q.Delta, opts)
		if err != nil {
			t.Fatal(err)
		}
		if region != nil {
			nodes := make([]roadnet.NodeID, len(region.Nodes))
			for j, v := range region.Nodes {
				nodes[j] = qi.Sub.ToParent[v]
			}
			out[i] = Result{Matched: true, Score: region.Score, Length: region.Length, Nodes: nodes}
		}
	}
	return out
}

// submit answers q through srv's default solve path on a fresh Task.
func submit(ctx context.Context, srv *Server, q dataset.Query) (Result, error) {
	t := Task{Ctx: ctx, Query: q}
	err := srv.Do(&t)
	return t.Result, err
}

// TestParallelMatchesSerial is the golden guarantee: for every method, a
// server answering concurrent clients on any worker count must produce
// bit-identical results to the serial loop on the same seeded workload.
func TestParallelMatchesSerial(t *testing.T) {
	d, qs := testWorkload(t, 0.12, 12)
	for _, method := range []Method{MethodTGEN, MethodGreedy, MethodAPP} {
		opts := Options{Method: method}
		want := serial(t, d, qs, opts)
		matched := 0
		for _, r := range want {
			if r.Matched {
				matched++
			}
		}
		if matched == 0 {
			t.Fatalf("%v: workload produced no matches; test is vacuous", method)
		}
		for _, workers := range []int{2, 4, 0} {
			srv := NewServer(d, ServerOptions{Workers: workers, Options: opts})
			got := make([]Result, len(qs))
			var wg sync.WaitGroup
			for i := range qs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					r, err := submit(context.Background(), srv, qs[i])
					if err != nil {
						t.Errorf("%v workers=%d query %d: %v", method, workers, i, err)
					}
					got[i] = r
				}(i)
			}
			wg.Wait()
			srv.Close()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: workers=%d results differ from serial", method, workers)
			}
		}
	}
}

func TestRunUnknownMethod(t *testing.T) {
	d, qs := testWorkload(t, 0.1, 2)
	qi, err := d.NewPlanner().Instantiate(qs[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(context.Background(), qi, qs[0].Delta, Options{Method: Method(99)}); err == nil {
		t.Fatal("Solve accepted an unknown method")
	}
	if _, err := SolveTopK(context.Background(), qi, qs[0].Delta, 2, Options{Method: Method(99)}); err == nil {
		t.Fatal("SolveTopK accepted an unknown method")
	}
}
