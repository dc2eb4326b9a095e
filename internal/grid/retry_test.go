package grid

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/btree"
	"repro/internal/iofault"
)

// retryProbeStore wraps a Store and fails the next failN Postings calls with a
// fixed error, counting every attempt — the probe for fetchPostings'
// retry policy.
type retryProbeStore struct {
	inner Store
	calls int
	failN int
	err   error
}

func (s *retryProbeStore) Append(key CellKey, ps []Posting) error { return s.inner.Append(key, ps) }

func (s *retryProbeStore) Postings(key CellKey) ([]Posting, error) {
	s.calls++
	if s.failN > 0 {
		s.failN--
		return nil, s.err
	}
	return s.inner.Postings(key)
}

// TestFetchPostingsRetryPolicy pins the two halves of the retry contract:
// a transient store failure is retried once and the query succeeds, while
// a checksum failure (btree.ErrCorrupt) fails typed on the FIRST attempt —
// re-reading a page that is bad on disk only doubles the I/O — even though
// a retry would have succeeded here.
func TestFetchPostingsRetryPolicy(t *testing.T) {
	v, _, objs := randomCorpus(t, 120, 31)
	fs := &retryProbeStore{inner: NewMemStore()}
	idx, err := NewIndex(objs, crashBounds, 100, fs)
	if err != nil {
		t.Fatal(err)
	}
	q := prepareQuery(v, []string{"cafe", "bar"})

	// Fault-free baseline (copied out: the scratch is reused below).
	var scratch SearchScratch
	res, err := idx.SearchInto(q, crashBounds, &scratch)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("baseline returned no results; test is vacuous")
	}
	want := append([]ObjScore(nil), res...)

	// Transient failure: one retry recovers, results are bit-identical.
	fs.failN, fs.err = 1, errors.New("injected transient read failure")
	before := fs.calls
	res, err = idx.SearchInto(q, crashBounds, &scratch)
	if err != nil {
		t.Fatalf("transient fault not recovered: %v", err)
	}
	if len(res) != len(want) {
		t.Fatalf("recovered query: %d results, want %d", len(res), len(want))
	}
	for i := range want {
		if res[i] != want[i] {
			t.Fatalf("recovered result %d: %+v, want %+v", i, res[i], want[i])
		}
	}
	if fs.failN != 0 {
		t.Fatal("injected failure was never consumed")
	}
	transientCalls := fs.calls - before

	// Corruption: typed failure with NO second attempt, even though the
	// fault clears after one call (the old code would have masked it).
	fs.failN, fs.err = 1, fmt.Errorf("shard 0 page 7: %w", btree.ErrCorrupt)
	before = fs.calls
	if _, err = idx.SearchInto(q, crashBounds, &scratch); err == nil {
		t.Fatal("corrupt store error was swallowed by a retry")
	} else {
		if !errors.Is(err, ErrShardIO) {
			t.Fatalf("corrupt failure not typed as ErrShardIO: %v", err)
		}
		if !errors.Is(err, btree.ErrCorrupt) {
			t.Fatalf("corrupt failure does not preserve the cause: %v", err)
		}
	}
	if got := fs.calls - before; got != 1 {
		t.Fatalf("corrupt read attempted %d times, want exactly 1 (no retry)", got)
	}
	if transientCalls < 2 {
		t.Fatalf("transient read attempted %d times, want the failed call plus its retry", transientCalls)
	}

	// The failed query must not leave the index unusable.
	res, err = idx.SearchInto(q, crashBounds, &scratch)
	if err != nil || len(res) != len(want) {
		t.Fatalf("query after typed failure: %d results, err %v", len(res), err)
	}
}

// TestSearchRecoversTransientShardRead drives the retry end-to-end over
// the real sharded disk store: a cold reopen whose Nth physical ReadAt
// fails (iofault fail-Nth) must still answer the query, bit-identical to
// the fault-free run, for every injection point in the query's read
// sequence.
func TestSearchRecoversTransientShardRead(t *testing.T) {
	v, _, objs := randomCorpus(t, 150, 41)
	sb, idx := buildLiveBoard(t, objs)
	q := prepareQuery(v, []string{"cafe", "museum"})
	res, err := idx.Search(q, crashBounds)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("baseline returned no results; test is vacuous")
	}
	want := append([]ObjScore(nil), res...)

	for failN := 1; failN <= 6; failN++ {
		img := sb.Fork(true)
		cold, err := reopenLive(img, objs)
		if err != nil {
			t.Fatalf("failN %d: reopen: %v", failN, err)
		}
		img.SetPlan(iofault.Plan{FailRead: failN})
		got, err := cold.Search(q, crashBounds)
		if err != nil {
			t.Fatalf("failN %d: query not recovered: %v", failN, err)
		}
		reads, _, _ := img.Counts()
		if reads < failN {
			// The query finished under failN physical reads, so this and
			// every later injection point never fires: the page cache
			// absorbed the plan. The earlier iterations already exercised
			// the retry.
			break
		}
		if len(got) != len(want) {
			t.Fatalf("failN %d: %d results, want %d", failN, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("failN %d result %d: %+v, want %+v", failN, i, got[i], want[i])
			}
		}
	}
}
