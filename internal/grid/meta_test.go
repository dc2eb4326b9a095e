package grid

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/geo"
	"repro/internal/textindex"
)

// TestMetaV2StoreReopens keeps stores written in the LCMSRIX2 meta format
// (each directory entry followed by an 8-byte weight bound) opening.
// testdata/meta-v2.bin is the meta body such a build committed for
// randomCorpus(crashBaseObjs, 99) after liveScript and a final Compact.
// The body must decode to the directory a fresh build of the same logical
// object set has, and a store carrying it as its newest meta must reopen
// through NewIndexOver and answer SearchInto bit-identically.
func TestMetaV2StoreReopens(t *testing.T) {
	body, err := os.ReadFile(filepath.Join("testdata", "meta-v2.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if magic := string(body[:len(indexMetaMagicV2)]); magic != indexMetaMagicV2 {
		t.Fatalf("fixture magic %q, want %q", magic, indexMetaMagicV2)
	}
	v, vocab, objs := randomCorpus(t, crashBaseObjs, 99)
	ops := liveScript(vocab, objs)

	// The fresh build: the script's final object set indexed from scratch,
	// deleted objects as empty documents.
	live, err := NewIndex(copyObjs(objs), crashBounds, crashCell, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := applyLiveOps(live, ops, nil); err != nil {
		t.Fatal(err)
	}
	final := copyObjs(live.ObjectsRef())
	for id := range live.tombstones {
		final[id].Doc = textindex.Doc{}
	}
	fresh, err := NewIndex(final, crashBounds, crashCell, nil)
	if err != nil {
		t.Fatal(err)
	}

	m, err := decodeIndexMeta(body)
	if err != nil {
		t.Fatalf("decode V2 meta: %v", err)
	}
	if !reflect.DeepEqual(m.cellDir, fresh.cellDir) {
		t.Fatal("decoded V2 directory differs from a fresh build's")
	}

	// The same logical store on disk, with the V2 body committed over the
	// meta this build wrote, so reopening reads the V2 body.
	dir := filepath.Join(t.TempDir(), "store")
	store, err := CreateShardedStore(dir, ShardedOptions{Shards: 2})
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
	if err := idx.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := store.CommitMeta(body); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store2, err := OpenShardedStore(dir, ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if snap, _, _ := store2.MetaSnapshot(); !reflect.DeepEqual(snap, body) {
		t.Fatal("reopened store does not carry the V2 body as its newest meta")
	}
	reopened, err := NewIndexOver(copyObjs(objs), crashBounds, crashCell, store2)
	if err != nil {
		t.Fatalf("reopen over V2 meta: %v", err)
	}
	if !reflect.DeepEqual(reopened.cellDir, fresh.cellDir) {
		t.Fatal("reopened directory differs from a fresh build's")
	}

	rng := rand.New(rand.NewSource(5))
	var sa, sb SearchScratch
	nonEmpty := 0
	for trial := 0; trial < 60; trial++ {
		q := prepareQuery(v, []string{vocab[rng.Intn(len(vocab))], vocab[rng.Intn(len(vocab))]})
		x, y := rng.Float64()*900, rng.Float64()*900
		r := geo.Rect{MinX: x, MinY: y, MaxX: x + 50 + rng.Float64()*500, MaxY: y + 50 + rng.Float64()*500}
		want, err := fresh.SearchInto(q, r, &sa)
		if err != nil {
			t.Fatal(err)
		}
		got, err := reopened.SearchInto(q, r, &sb)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: reopened V2 store answers %v, fresh build %v", trial, got, want)
		}
		if len(want) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Fatal("every trial returned no results; test is vacuous")
	}
}
