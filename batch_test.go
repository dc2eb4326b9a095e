package repro

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

// TestRunBatchMatchesRun: the parallel batch path must return exactly what
// serial Database.Do calls return, query by query, for every method —
// MethodAuto with an explicit Budget included, since RunBatch accepts what
// Do accepts.
func TestRunBatchMatchesRun(t *testing.T) {
	db, qs := serveWorkload(t)
	for _, opts := range []SearchOptions{
		{Method: MethodTGEN}, {Method: MethodAPP}, {Method: MethodGreedy},
		{Method: MethodAuto, Budget: 20 * time.Millisecond},
	} {
		want := make([]*Result, len(qs))
		wantMatched := 0
		for i, q := range qs {
			if want[i] = best(t, db, q, opts); want[i] != nil {
				wantMatched++
			}
		}
		for _, workers := range []int{1, 4} {
			got, stats, err := db.RunBatch(context.Background(), qs, opts, workers)
			if err != nil {
				t.Fatalf("%v batch workers=%d: %v", opts.Method, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: batch workers=%d differs from the serial Do loop", opts.Method, workers)
			}
			if stats.Matched != wantMatched {
				t.Fatalf("%v: stats.Matched = %d, want %d", opts.Method, stats.Matched, wantMatched)
			}
		}
	}
}

// TestRunBatchHonorsContext checks batch-level cancellation: a cancelled
// context stops the batch with ctx.Err() and leaves no goroutine behind.
func TestRunBatchHonorsContext(t *testing.T) {
	db, qs := serveWorkload(t)
	baseline := countGoroutines()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := db.RunBatch(ctx, qs, SearchOptions{}, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunBatch = %v, want context.Canceled", err)
	}
	if after := countGoroutines(); after > baseline {
		t.Fatalf("goroutines leaked: %d before, %d after", baseline, after)
	}
}

func TestRunBatchValidation(t *testing.T) {
	db, err := NYLike(4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.RunBatch(context.Background(), []Query{{Delta: 100}}, SearchOptions{}, 1); err == nil {
		t.Error("query without keywords accepted")
	}
	if _, _, err := db.RunBatch(context.Background(), []Query{{Keywords: []string{"a"}, Delta: -1}}, SearchOptions{}, 1); err == nil {
		t.Error("non-positive delta accepted")
	}
	if _, _, err := db.RunBatch(context.Background(), nil, SearchOptions{Method: Method(99)}, 1); err == nil {
		t.Error("unknown method accepted")
	}
	res, stats, err := db.RunBatch(context.Background(), nil, SearchOptions{}, 0)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty batch: res=%v err=%v", res, err)
	}
	if stats.Workers < 1 {
		t.Errorf("resolved workers = %d, want >= 1", stats.Workers)
	}
}
