package grid

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/btree"
	"repro/internal/geo"
	"repro/internal/textindex"
)

// randomCorpus builds a reproducible object set for store tests.
func shardCorpus(seed int64, n int) (*textindex.Vocabulary, []Object, geo.Rect) {
	rng := rand.New(rand.NewSource(seed))
	v := textindex.NewVocabulary()
	vocab := []string{"cafe", "restaurant", "bar", "pizza", "museum", "park", "shop", "hotel"}
	bounds := geo.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	objs := make([]Object, 0, n)
	for i := 0; i < n; i++ {
		toks := make([]string, 1+rng.Intn(3))
		for j := range toks {
			toks[j] = vocab[rng.Intn(len(vocab))]
		}
		objs = append(objs, Object{
			Point: geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
			Doc:   v.IndexDoc(toks),
		})
	}
	return v, objs, bounds
}

func TestShardedStoreRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s, err := CreateShardedStore(dir, ShardedOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", s.NumShards())
	}
	// Keys spanning every shard, two appends each.
	for cell := uint32(0); cell < 9; cell++ {
		key := CellKey{Cell: cell, Term: 7}
		if err := s.Append(key, []Posting{{Obj: ObjectID(cell), Weight: 0.5}}); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(key, []Posting{{Obj: ObjectID(cell + 100), Weight: 0.25}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: the manifest must reconstruct the same layout.
	s2, err := OpenShardedStore(dir, ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.NumShards() != 4 {
		t.Fatalf("reopened NumShards = %d, want 4", s2.NumShards())
	}
	for cell := uint32(0); cell < 9; cell++ {
		ps, err := s2.Postings(CellKey{Cell: cell, Term: 7})
		if err != nil {
			t.Fatal(err)
		}
		if len(ps) != 2 || ps[0].Obj != ObjectID(cell) || ps[1].Obj != ObjectID(cell+100) {
			t.Errorf("cell %d postings after reopen = %+v", cell, ps)
		}
	}
	if ps, err := s2.Postings(CellKey{Cell: 77, Term: 77}); err != nil || ps != nil {
		t.Errorf("absent key: %v, %v", ps, err)
	}
}

// TestCreateRefusesExistingStore: a populated store is a build product;
// creating over it must fail, not silently truncate it.
func TestCreateRefusesExistingStore(t *testing.T) {
	base := t.TempDir()
	dir := filepath.Join(base, "store")
	s, err := CreateShardedStore(dir, ShardedOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s2, err := CreateShardedStore(dir, ShardedOptions{Shards: 2}); err == nil {
		s2.Close()
		t.Fatal("CreateShardedStore over an existing store succeeded")
	}
	if _, err := CreateShardedStore(dir, ShardedOptions{Shards: maxShards + 1}); err == nil {
		t.Fatal("implausible shard count accepted at create time")
	}
}

func TestShardedStoreDefaultShardCount(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s, err := CreateShardedStore(dir, ShardedOptions{}) // Shards <= 0 → GOMAXPROCS
	if err != nil {
		t.Fatal(err)
	}
	n := s.NumShards()
	if n < 1 {
		t.Fatalf("NumShards = %d", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenShardedStore(dir, ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.NumShards() != n {
		t.Errorf("manifest round-trip: created %d shards, reopened %d", n, s2.NumShards())
	}
}

// TestBTreeStoreAppendConcurrent catches the lost-update race on one
// B+-tree (a one-shard store): Append must hold the shard lock across its
// read-merge-write, or two concurrent Appends to the same key both read
// the old value and one overwrites the other's postings. Run with -race
// (CI does) to also catch any locking regression.
func TestBTreeStoreAppendConcurrent(t *testing.T) {
	store, err := CreateShardedStore(filepath.Join(t.TempDir(), "store"), ShardedOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	const (
		goroutines = 8
		perG       = 200
	)
	key := CellKey{Cell: 1, Term: 2}
	start := make(chan struct{}) // release all writers at once to maximize overlap
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < perG; i++ {
				ps := []Posting{{Obj: ObjectID(g*perG + i), Weight: 1}}
				if err := store.Append(key, ps); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	ps, err := store.Postings(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != goroutines*perG {
		t.Fatalf("lost updates: %d postings stored, want %d", len(ps), goroutines*perG)
	}
	seen := make(map[ObjectID]bool, len(ps))
	for _, p := range ps {
		if seen[p.Obj] {
			t.Fatalf("object %d appended twice", p.Obj)
		}
		seen[p.Obj] = true
	}
}

// TestShardedStoreAppendConcurrent is the same lost-update check against
// the sharded store, with keys hitting every shard.
func TestShardedStoreAppendConcurrent(t *testing.T) {
	store, err := CreateShardedStore(filepath.Join(t.TempDir(), "store"), ShardedOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	const (
		goroutines = 8
		perG       = 40
		keys       = 5 // spans all 4 shards
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				key := CellKey{Cell: uint32(i % keys), Term: 3}
				ps := []Posting{{Obj: ObjectID(g*perG + i), Weight: 1}}
				if err := store.Append(key, ps); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for cell := uint32(0); cell < keys; cell++ {
		ps, err := store.Postings(CellKey{Cell: cell, Term: 3})
		if err != nil {
			t.Fatal(err)
		}
		total += len(ps)
	}
	if total != goroutines*perG {
		t.Fatalf("lost updates: %d postings stored, want %d", total, goroutines*perG)
	}
}

// TestShardedSearchEquivalence proves the sharded store and its fan-out
// search path return bit-identical results to the in-memory index, for
// both Search and SearchInto, and that the one cell walk records the same
// SearchTrace counters over either store.
func TestShardedSearchEquivalence(t *testing.T) {
	v, objs, bounds := shardCorpus(42, 400)
	memIdx, err := NewIndex(objs, bounds, 50, NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	store, err := CreateShardedStore(filepath.Join(t.TempDir(), "store"), ShardedOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	shardIdx, err := NewIndex(objs, bounds, 50, store)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	vocab := []string{"cafe", "restaurant", "bar", "pizza", "museum", "park", "shop", "hotel"}
	var memTrace, shardTrace SearchTrace
	memScratch, scratch := SearchScratch{Trace: &memTrace}, SearchScratch{Trace: &shardTrace}
	for trial := 0; trial < 30; trial++ {
		q := prepareQuery(v, []string{vocab[rng.Intn(len(vocab))], vocab[rng.Intn(len(vocab))], vocab[rng.Intn(len(vocab))]})
		x, y := rng.Float64()*800, rng.Float64()*800
		r := geo.Rect{MinX: x, MinY: y, MaxX: x + 250, MaxY: y + 250}
		want, err := memIdx.Search(q, r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := shardIdx.Search(q, r)
		if err != nil {
			t.Fatal(err)
		}
		assertSameScores(t, fmt.Sprintf("trial %d Search", trial), got, want)
		gotInto, err := shardIdx.SearchInto(q, r, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		assertSameScores(t, fmt.Sprintf("trial %d SearchInto", trial), gotInto, want)
		if _, err := memIdx.SearchInto(q, r, &memScratch); err != nil {
			t.Fatal(err)
		}
		if memTrace != shardTrace { // both accumulate across trials
			t.Fatalf("trial %d: memory trace %+v != sharded trace %+v", trial, memTrace, shardTrace)
		}
	}
	if memTrace.Lists == 0 {
		t.Fatal("no search fetched a posting list; the trace check is vacuous")
	}
}

// assertSameScores requires bit-identical object/score sequences.
func assertSameScores(t *testing.T, label string, got, want []ObjScore) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Obj != want[i].Obj || got[i].Score != want[i].Score {
			t.Fatalf("%s result %d: got %+v, want %+v (scores must be bit-identical)", label, i, got[i], want[i])
		}
	}
}

// TestConcurrentColdReadGolden is the acceptance test for the sharded
// cold-read path: K goroutines issue overlapping queries against a
// freshly reopened (cache-cold) sharded store, and every result must be
// bit-identical to the serial answer computed on an in-memory index.
func TestConcurrentColdReadGolden(t *testing.T) {
	v, objs, bounds := shardCorpus(99, 600)
	refIdx, err := NewIndex(objs, bounds, 40, NewMemStore())
	if err != nil {
		t.Fatal(err)
	}

	// Sharded store: build, close, reopen with a tiny page cache so the
	// concurrent reads really hit the trees cold.
	dir := filepath.Join(t.TempDir(), "sharded")
	store, err := CreateShardedStore(dir, ShardedOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewIndex(objs, bounds, 40, store); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	cold, err := OpenShardedStore(dir, ShardedOptions{CachePages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	coldIdx, err := NewIndexOver(objs, bounds, 40, cold)
	if err != nil {
		t.Fatal(err)
	}

	// Overlapping query workload: every goroutine runs the full set, so
	// the same postings are fetched concurrently from all workers.
	rng := rand.New(rand.NewSource(5))
	vocab := []string{"cafe", "restaurant", "bar", "pizza", "museum", "park", "shop", "hotel"}
	type testQuery struct {
		q textindex.Query
		r geo.Rect
	}
	queries := make([]testQuery, 16)
	want := make([][]ObjScore, len(queries))
	for i := range queries {
		q := prepareQuery(v, []string{vocab[rng.Intn(len(vocab))], vocab[rng.Intn(len(vocab))], vocab[rng.Intn(len(vocab))]})
		x, y := rng.Float64()*600, rng.Float64()*600
		r := geo.Rect{MinX: x, MinY: y, MaxX: x + 400, MaxY: y + 400}
		queries[i] = testQuery{q, r}
		ref, err := refIdx.Search(q, r)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ref
	}

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var scratch SearchScratch
			for i, tq := range queries {
				got, err := coldIdx.SearchInto(tq.q, tq.r, &scratch)
				if err != nil {
					t.Errorf("worker %d query %d: %v", w, i, err)
					return
				}
				if len(got) != len(want[i]) {
					t.Errorf("worker %d query %d: %d results, want %d", w, i, len(got), len(want[i]))
					return
				}
				for j := range got {
					if got[j].Obj != want[i][j].Obj || got[j].Score != want[i][j].Score {
						t.Errorf("worker %d query %d result %d: got %+v, want %+v", w, i, j, got[j], want[i][j])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestLegacySingleFileMove pins the documented upgrade of a pre-sharding
// single-file store: move the tree to DIR/shard-0000.bt and write the
// legacy three-line MANIFEST. The directory then opens as a one-shard
// store that serves the same postings, scrubs clean and takes updates.
func TestLegacySingleFileMove(t *testing.T) {
	base := t.TempDir()
	legacy := filepath.Join(base, "p.bt")
	tree, err := btree.Create(legacy, btree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[CellKey][]Posting{}
	for cell := uint32(0); cell < 10; cell++ {
		for term := textindex.TermID(0); term < 2; term++ {
			key := CellKey{Cell: cell, Term: term}
			want[key] = []Posting{{Obj: ObjectID(cell*10 + uint32(term)), Weight: float64(cell) + 0.5}}
			if err := tree.Put(key.Uint64(), EncodePostings(want[key])); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(base, "store")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(legacy, filepath.Join(dir, "shard-0000.bt")); err != nil {
		t.Fatal(err)
	}
	manifest := "lcmsr-sharded-store v1\nshards 1\npartition cell-mod\n"
	if err := writeFile(t, filepath.Join(dir, manifestName), manifest); err != nil {
		t.Fatal(err)
	}

	s, err := OpenShardedStore(dir, ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for key, ps := range want {
		got, err := s.Postings(key)
		if err != nil || !reflect.DeepEqual(got, ps) {
			t.Fatalf("key %+v: postings %+v, %v; want %+v", key, got, err, ps)
		}
	}
	if err := s.Scrub().Err(); err != nil {
		t.Fatalf("moved store does not scrub clean: %v", err)
	}
	key := CellKey{Cell: 3, Term: 1}
	u := Update{Kind: UpdateInsert, Obj: 500, Cell: key.Cell, Terms: []textindex.TermID{key.Term},
		Weights: []float64{0.25}, TF: []int32{1}, Strs: []string{"t"}}
	if err := s.logUpdate(&u); err != nil {
		t.Fatalf("moved store rejects an update: %v", err)
	}
	s.applyLogged(&u)
	got, err := s.Postings(key)
	if err != nil || !reflect.DeepEqual(got, append(want[key], Posting{Obj: 500, Weight: 0.25})) {
		t.Fatalf("postings after update = %+v, %v", got, err)
	}
}

func TestShardedStoreCacheStats(t *testing.T) {
	store, err := CreateShardedStore(filepath.Join(t.TempDir(), "store"), ShardedOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for cell := uint32(0); cell < 8; cell++ {
		if err := store.Append(CellKey{Cell: cell, Term: 1}, []Posting{{Obj: 1, Weight: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	for cell := uint32(0); cell < 8; cell++ {
		if _, err := store.Postings(CellKey{Cell: cell, Term: 1}); err != nil {
			t.Fatal(err)
		}
	}
	st := store.CacheStats()
	if st.Hits == 0 {
		t.Errorf("aggregated cache stats = %+v; want hits after repeated root reads", st)
	}
}

// TestRemoveStore: removal must only ever touch store files — it backs
// the failed-build cleanup in package repro, where deleting anything
// else would destroy user data.
func TestRemoveStore(t *testing.T) {
	base := t.TempDir()
	// Refuses paths that are not stores.
	plain := filepath.Join(base, "notes.txt")
	if err := writeFile(t, plain, "hello"); err != nil {
		t.Fatal(err)
	}
	if err := RemoveStore(plain); err == nil {
		t.Fatal("RemoveStore deleted a non-store file")
	}
	if err := RemoveStore(base); err == nil {
		t.Fatal("RemoveStore accepted a non-store directory")
	}
	if err := RemoveStore(filepath.Join(base, "missing")); err == nil {
		t.Fatal("RemoveStore accepted a missing path")
	}
	// Removes a sharded store's files but leaves foreign files alone.
	dir := filepath.Join(base, "sharded")
	sh, err := CreateShardedStore(dir, ShardedOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	foreign := filepath.Join(dir, "README")
	if err := writeFile(t, foreign, "keep me"); err != nil {
		t.Fatal(err)
	}
	if err := RemoveStore(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); !os.IsNotExist(err) {
		t.Fatal("manifest not removed")
	}
	if _, err := os.Stat(filepath.Join(dir, "shard-0000.bt")); !os.IsNotExist(err) {
		t.Fatal("shard file not removed")
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatal("foreign file removed with the store")
	}
	// The path is now clear for a fresh create.
	sh2, err := CreateShardedStore(dir, ShardedOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	sh2.Close()
}

func writeFile(t *testing.T, path, content string) error {
	t.Helper()
	return os.WriteFile(path, []byte(content), 0o644)
}
