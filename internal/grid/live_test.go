package grid

import (
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/iofault"
	"repro/internal/textindex"
)

// TestLiveSnapshotReopenGolden is the snapshot-reopen golden test: a
// sharded store that absorbed live updates must, after CloseStore and
// NewIndexOver, serve bit-identical state — and a store closed WITHOUT a
// final compaction (raw tree close, WAL still holding updates) must
// recover the same state through WAL replay on the next open.
func TestLiveSnapshotReopenGolden(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	v, vocab, objs := randomCorpus(t, crashBaseObjs, 99)
	nTerms := v.NumTerms()
	ops := liveScript(vocab, objs)

	store, err := CreateShardedStore(dir, ShardedOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := NewIndex(copyObjs(objs), crashBounds, crashCell, store)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := applyLiveOps(idx, ops, nil); err != nil {
		t.Fatal(err)
	}
	want, err := fingerprintLive(idx, nTerms)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.CloseStore(); err != nil {
		t.Fatal(err)
	}

	// Clean reopen: everything comes from the committed meta snapshot.
	store2, err := OpenShardedStore(dir, ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	idx2, err := NewIndexOver(copyObjs(objs), crashBounds, crashCell, store2)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(idx2.Replayed()); n != 0 {
		t.Errorf("clean reopen replayed %d WAL records, want 0", n)
	}
	// The committed body is in the V1 layout: term and count per entry.
	if body, _, _ := store2.MetaSnapshot(); string(body[:8]) != "LCMSRIX1" {
		t.Errorf("meta body magic %q, want LCMSRIX1", body[:8])
	}
	assertExactState(t, idx2, want, nTerms, "clean reopen")

	// Mutate after reopen, then close the store WITHOUT compacting: the
	// new updates live only in the WAL.
	id, err := idx2.Insert(geo.Point{X: 500, Y: 500},
		textindex.Doc{Terms: []textindex.TermID{0}, Weights: []float64{0.7}, TF: []int32{2}},
		[]string{vocab[0]}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx2.Delete(id-1, nil); err != nil {
		t.Fatal(err)
	}
	if err := idx2.Reweight(id, []float64{0.9}, nil); err != nil {
		t.Fatal(err)
	}
	want2, err := fingerprintLive(idx2, nTerms)
	if err != nil {
		t.Fatal(err)
	}
	if err := store2.Close(); err != nil { // raw close: no compaction
		t.Fatal(err)
	}

	// Dirty reopen: the state must come back through WAL replay.
	store3, err := OpenShardedStore(dir, ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	idx3, err := NewIndexOver(copyObjs(objs), crashBounds, crashCell, store3)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(idx3.Replayed()); n != 3 {
		t.Errorf("dirty reopen replayed %d WAL records, want 3", n)
	}
	assertExactState(t, idx3, want2, nTerms, "dirty reopen")
	if idx3.pending != 0 {
		// Replayed records are not "pending": they are either already
		// flushed or will be re-covered by the next compaction.
		t.Errorf("dirty reopen starts with %d pending updates", idx3.pending)
	}
	if err := idx3.CloseStore(); err != nil {
		t.Fatal(err)
	}

	// Third open is clean again (close compacted the replayed records).
	store4, err := OpenShardedStore(dir, ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	idx4, err := NewIndexOver(copyObjs(objs), crashBounds, crashCell, store4)
	if err != nil {
		t.Fatal(err)
	}
	defer idx4.CloseStore()
	if n := len(idx4.Replayed()); n != 0 {
		t.Errorf("post-compaction reopen replayed %d WAL records, want 0", n)
	}
	assertExactState(t, idx4, want2, nTerms, "post-compaction reopen")
}

// TestLiveMemVsShardedParity replays the same update script against a
// MemStore-backed index (in-place posting edits) and a sharded
// disk-backed index (WAL + memtable): both must serve bit-identical
// state at every step.
func TestLiveMemVsShardedParity(t *testing.T) {
	v, vocab, objs := randomCorpus(t, crashBaseObjs, 99)
	nTerms := v.NumTerms()
	ops := liveScript(vocab, objs)

	memIdx, err := NewIndex(copyObjs(objs), crashBounds, crashCell, nil)
	if err != nil {
		t.Fatal(err)
	}
	store, err := CreateShardedStore(filepath.Join(t.TempDir(), "store"), ShardedOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	shIdx, err := NewIndex(copyObjs(objs), crashBounds, crashCell, store)
	if err != nil {
		t.Fatal(err)
	}
	defer shIdx.CloseStore()

	for i := range ops {
		if _, err := applyLiveOps(memIdx, ops[i:i+1], nil); err != nil {
			t.Fatalf("op %d on MemStore: %v", i, err)
		}
		if _, err := applyLiveOps(shIdx, ops[i:i+1], nil); err != nil {
			t.Fatalf("op %d on sharded store: %v", i, err)
		}
		if i%9 != 0 {
			continue
		}
		want, err := fingerprintLive(memIdx, nTerms)
		if err != nil {
			t.Fatal(err)
		}
		assertExactState(t, shIdx, want, nTerms, "after op "+string(rune('0'+i%10)))
	}
	want, err := fingerprintLive(memIdx, nTerms)
	if err != nil {
		t.Fatal(err)
	}
	assertExactState(t, shIdx, want, nTerms, "final")
}

// TestLiveValidation covers the typed rejections of the mutation API.
func TestLiveValidation(t *testing.T) {
	_, _, objs := randomCorpus(t, 20, 3)
	idx, err := NewIndex(copyObjs(objs), crashBounds, crashCell, nil)
	if err != nil {
		t.Fatal(err)
	}
	okDoc := textindex.Doc{Terms: []textindex.TermID{1}, Weights: []float64{0.5}, TF: []int32{1}}
	if _, err := idx.Insert(geo.Point{X: -5000, Y: 0}, okDoc, []string{"a"}, nil); err == nil {
		t.Error("insert outside bounds accepted")
	}
	bad := textindex.Doc{Terms: []textindex.TermID{3, 2}, Weights: []float64{1, 1}, TF: []int32{1, 1}}
	if _, err := idx.Insert(geo.Point{X: 1, Y: 1}, bad, []string{"a", "b"}, nil); err == nil {
		t.Error("descending terms accepted")
	}
	if _, err := idx.Insert(geo.Point{X: 1, Y: 1}, okDoc, nil, nil); err == nil {
		t.Error("missing term strings accepted")
	}
	if err := idx.Delete(999, nil); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("delete unknown id: %v, want ErrNoSuchObject", err)
	}
	if err := idx.Delete(3, nil); err != nil {
		t.Fatal(err)
	}
	if err := idx.Delete(3, nil); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("double delete: %v, want ErrNoSuchObject", err)
	}
	if err := idx.Reweight(3, []float64{1}, nil); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("reweight deleted id: %v, want ErrNoSuchObject", err)
	}
	alive := ObjectID(5)
	if err := idx.Reweight(alive, make([]float64, len(objs[alive].Doc.Terms)+1), nil); err == nil {
		t.Error("reweight with wrong arity accepted")
	}
}

// TestLiveConcurrentSearchUpdate hammers SearchInto from reader
// goroutines while the main goroutine mutates and another compacts —
// under -race this proves the writer/Index/shard/WAL lock discipline;
// functionally every search must see a consistent index (no errors,
// scores finite).
func TestLiveConcurrentSearchUpdate(t *testing.T) {
	v, vocab, objs := randomCorpus(t, crashBaseObjs, 99)
	store, err := CreateShardedStore(filepath.Join(t.TempDir(), "store"), ShardedOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := NewIndex(copyObjs(objs), crashBounds, crashCell, store)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.CloseStore()
	idx.autoCompact = 16

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch SearchScratch
			q := prepareQuery(v, []string{vocab[0], vocab[2]})
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := idx.SearchInto(q, crashBounds, &scratch)
				if err != nil {
					t.Errorf("concurrent search: %v", err)
					return
				}
				for _, r := range res {
					if math.IsNaN(r.Score) || math.IsInf(r.Score, 0) {
						t.Errorf("concurrent search: object %d scored %v", r.Obj, r.Score)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := idx.Compact(); err != nil {
				t.Errorf("concurrent compact: %v", err)
				return
			}
		}
	}()
	ops := liveScript(vocab, objs)
	if _, err := applyLiveOps(idx, ops, nil); err != nil {
		t.Errorf("updates under concurrent search: %v", err)
	}
	close(stop)
	wg.Wait()
}

// parkTimeout bounds how long the parked-fsync tests wait for a search
// that must not block; a search stuck behind the parked writer fails the
// test instead of hanging it.
const parkTimeout = 10 * time.Second

// parkedBoard builds a board-backed index with fsyncs on, applies the
// script's first n non-compaction ops so the memtables and WALs hold
// records, and returns the board, index and a query touching them.
func parkedBoard(t *testing.T, n int) (*iofault.Switchboard, *Index, textindex.Query) {
	t.Helper()
	v, vocab, objs := randomCorpus(t, crashBaseObjs, 99)
	sb, idx := buildLiveBoard(t, objs)
	var ops []liveOp
	for _, op := range liveScript(vocab, objs) {
		if op.kind != 3 && len(ops) < n {
			ops = append(ops, op)
		}
	}
	if _, err := applyLiveOps(idx, ops, nil); err != nil {
		t.Fatal(err)
	}
	return sb, idx, prepareQuery(v, vocab)
}

// searchWithin runs one search on its own goroutine and returns its
// result, failing the test if it does not return within parkTimeout.
func searchWithin(t *testing.T, idx *Index, q textindex.Query) []ObjScore {
	t.Helper()
	type result struct {
		res []ObjScore
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := idx.Search(q, crashBounds)
		done <- result{res, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("search: %v", r.err)
		}
		return r.res
	case <-time.After(parkTimeout):
		t.Fatalf("search blocked for %v behind a writer parked in fsync", parkTimeout)
		return nil
	}
}

// parkWriter runs write on its own goroutine with every fsync of a file
// named prefix* parked, and returns once write is parked there. finish
// releases the fsync and returns write's error; a test that fails first
// still releases the writer at cleanup.
func parkWriter(t *testing.T, sb *iofault.Switchboard, prefix string, write func() error) (finish func() error) {
	t.Helper()
	release := make(chan struct{})
	parked := sb.ParkSync(prefix, release)
	done := make(chan struct{})
	var err error
	go func() {
		defer close(done)
		err = write()
	}()
	var once sync.Once
	finish = func() error {
		once.Do(func() { close(release) })
		<-done
		return err
	}
	t.Cleanup(func() { _ = finish() })
	select {
	case <-parked:
	case <-done:
		t.Fatalf("writer returned (%v) without reaching the parked fsync", err)
	case <-time.After(parkTimeout):
		t.Fatal("writer never reached the parked fsync")
	}
	return finish
}

// TestLiveCompactParkedDoesNotBlockSearch parks Compact inside its META
// fsync, then inside a WAL-reset fsync: a concurrent search must return
// meanwhile, with exactly the scores it had before the compaction.
func TestLiveCompactParkedDoesNotBlockSearch(t *testing.T) {
	for _, prefix := range []string{"META.", "wal-"} {
		t.Run(prefix, func(t *testing.T) {
			sb, idx, q := parkedBoard(t, 20)
			want, err := idx.Search(q, crashBounds)
			if err != nil {
				t.Fatal(err)
			}
			finish := parkWriter(t, sb, prefix, idx.Compact)
			if got := searchWithin(t, idx, q); !reflect.DeepEqual(got, want) {
				t.Fatalf("search during compaction = %v, want %v", got, want)
			}
			if err := finish(); err != nil {
				t.Fatalf("compact: %v", err)
			}
			if got := searchWithin(t, idx, q); !reflect.DeepEqual(got, want) {
				t.Fatalf("search after compaction = %v, want %v", got, want)
			}
		})
	}
}

// TestLiveUpdateParkedDoesNotBlockSearch parks an Insert inside its WAL
// fsync: a concurrent search must return meanwhile and must not yet see
// the insert, which becomes visible only once its record is durable.
func TestLiveUpdateParkedDoesNotBlockSearch(t *testing.T) {
	sb, idx, q := parkedBoard(t, 20)
	want, err := idx.Search(q, crashBounds)
	if err != nil {
		t.Fatal(err)
	}
	doc := textindex.Doc{Terms: q.Terms[:1], Weights: []float64{1}, TF: []int32{1}}
	var id ObjectID
	finish := parkWriter(t, sb, "wal-", func() (err error) {
		id, err = idx.Insert(geo.Point{X: 500, Y: 500}, doc, []string{"t"}, nil)
		return err
	})
	if got := searchWithin(t, idx, q); !reflect.DeepEqual(got, want) {
		t.Fatalf("search during the insert's fsync = %v, want the pre-insert %v", got, want)
	}
	if err := finish(); err != nil {
		t.Fatalf("insert: %v", err)
	}
	got := searchWithin(t, idx, q)
	if len(got) != len(want)+1 || got[len(got)-1].Obj != id {
		t.Fatalf("search after the insert = %v, want %v plus object %d", got, want, id)
	}
}
