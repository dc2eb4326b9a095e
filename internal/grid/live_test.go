package grid

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/geo"
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
		[]string{vocab[0]})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx2.Delete(id - 1); err != nil {
		t.Fatal(err)
	}
	if err := idx2.Reweight(id, []float64{0.9}); err != nil {
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
	if _, err := idx.Insert(geo.Point{X: -5000, Y: 0}, okDoc, []string{"a"}); err == nil {
		t.Error("insert outside bounds accepted")
	}
	bad := textindex.Doc{Terms: []textindex.TermID{3, 2}, Weights: []float64{1, 1}, TF: []int32{1, 1}}
	if _, err := idx.Insert(geo.Point{X: 1, Y: 1}, bad, []string{"a", "b"}); err == nil {
		t.Error("descending terms accepted")
	}
	if _, err := idx.Insert(geo.Point{X: 1, Y: 1}, okDoc, nil); err == nil {
		t.Error("missing term strings accepted")
	}
	if err := idx.Delete(999); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("delete unknown id: %v, want ErrNoSuchObject", err)
	}
	if err := idx.Delete(3); err != nil {
		t.Fatal(err)
	}
	if err := idx.Delete(3); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("double delete: %v, want ErrNoSuchObject", err)
	}
	if err := idx.Reweight(3, []float64{1}); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("reweight deleted id: %v, want ErrNoSuchObject", err)
	}
	alive := ObjectID(5)
	if err := idx.Reweight(alive, make([]float64, len(objs[alive].Doc.Terms)+1)); err == nil {
		t.Error("reweight with wrong arity accepted")
	}
}

// TestLiveConcurrentSearchUpdate hammers SearchInto from reader
// goroutines while the main goroutine mutates — under -race this proves
// the Index/shard lock discipline; functionally every search must see a
// consistent index (no errors, scores finite).
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
				if _, err := idx.SearchInto(q, crashBounds, &scratch); err != nil {
					t.Errorf("concurrent search: %v", err)
					return
				}
			}
		}()
	}
	ops := liveScript(vocab, objs)
	if _, err := applyLiveOps(idx, ops, nil); err != nil {
		t.Errorf("updates under concurrent search: %v", err)
	}
	close(stop)
	wg.Wait()
}
