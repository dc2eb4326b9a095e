package grid

import (
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geo"
	"repro/internal/textindex"
)

// buildCorpus makes a small object set over a 100x100 space.
func buildCorpus(t *testing.T) (*textindex.Vocabulary, []Object) {
	t.Helper()
	v := textindex.NewVocabulary()
	mk := func(x, y float64, toks ...string) Object {
		return Object{Point: geo.Point{X: x, Y: y}, Doc: v.IndexDoc(toks)}
	}
	objs := []Object{
		mk(5, 5, "cafe", "espresso"),
		mk(15, 5, "restaurant", "italian"),
		mk(55, 55, "cafe"),
		mk(95, 95, "museum"),
		mk(50, 50, "cafe", "restaurant"),
		mk(51, 52, "bar"),
	}
	return v, objs
}

func TestSearchMatchesLinearScan(t *testing.T) {
	v, objs := buildCorpus(t)
	idx, err := NewIndex(objs, geo.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := prepareQuery(v, []string{"cafe", "restaurant"})
	r := geo.Rect{MinX: 0, MinY: 0, MaxX: 60, MaxY: 60}
	got, err := idx.Search(q, r)
	if err != nil {
		t.Fatal(err)
	}
	want := map[ObjectID]float64{}
	for id := range objs {
		if r.Contains(objs[id].Point) {
			if s := q.Score(&objs[id].Doc); s > 0 {
				want[ObjectID(id)] = s
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("Search returned %d objects, linear scan %d", len(got), len(want))
	}
	for _, os := range got {
		if w, ok := want[os.Obj]; !ok || math.Abs(w-os.Score) > 1e-12 {
			t.Errorf("object %d: score %v, want %v", os.Obj, os.Score, w)
		}
	}
}

func TestSearchRespectsRect(t *testing.T) {
	v, objs := buildCorpus(t)
	idx, err := NewIndex(objs, geo.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := prepareQuery(v, []string{"cafe"})
	// Tiny rect around object 0 only.
	got, err := idx.Search(q, geo.Rect{MinX: 4, MinY: 4, MaxX: 6, MaxY: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Obj != 0 {
		t.Errorf("Search = %+v, want only object 0", got)
	}
	// Rect outside the grid.
	got, err = idx.Search(q, geo.Rect{MinX: 500, MinY: 500, MaxX: 600, MaxY: 600})
	if err != nil || len(got) != 0 {
		t.Errorf("out-of-bounds rect: got %v, %v", got, err)
	}
}

func TestEmptyQuery(t *testing.T) {
	v, objs := buildCorpus(t)
	idx, err := NewIndex(objs, geo.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := prepareQuery(v, []string{"nosuchterm"})
	got, err := idx.Search(q, geo.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100})
	if err != nil || got != nil {
		t.Errorf("empty query: got %v, %v", got, err)
	}
}

func TestNewIndexValidation(t *testing.T) {
	v := textindex.NewVocabulary()
	objs := []Object{{Point: geo.Point{X: 500, Y: 500}, Doc: v.IndexDoc([]string{"x"})}}
	if _, err := NewIndex(objs, geo.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, 1, nil); err == nil {
		t.Error("object outside bounds accepted")
	}
	if _, err := NewIndex(nil, geo.Rect{}, 0, nil); err == nil {
		t.Error("zero cell size accepted")
	}
	if _, err := NewIndex(nil, geo.Rect{}, -3, nil); err == nil {
		t.Error("negative cell size accepted")
	}
}

func TestBoundaryObjectsIndexed(t *testing.T) {
	v := textindex.NewVocabulary()
	bounds := geo.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	objs := []Object{
		{Point: geo.Point{X: 10, Y: 10}, Doc: v.IndexDoc([]string{"edge"})}, // max corner
		{Point: geo.Point{X: 0, Y: 0}, Doc: v.IndexDoc([]string{"edge"})},   // min corner
	}
	idx, err := NewIndex(objs, bounds, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := idx.Search(prepareQuery(v, []string{"edge"}), bounds)
	if err != nil || len(got) != 2 {
		t.Errorf("boundary search: %v, %v; want both corner objects", got, err)
	}
}

func TestEncodeDecodePostings(t *testing.T) {
	in := []Posting{{Obj: 1, Weight: 0.5}, {Obj: 99, Weight: 0.001}, {Obj: 0, Weight: 1}}
	out, err := DecodePostings(EncodePostings(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len = %d, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("posting %d: %+v != %+v", i, in[i], out[i])
		}
	}
	if _, err := DecodePostings([]byte{1, 2, 3}); err == nil {
		t.Error("misaligned posting bytes accepted")
	}
	if got, err := DecodePostings(nil); err != nil || len(got) != 0 {
		t.Error("empty posting list should decode to empty")
	}
}

func TestCellKeyPacking(t *testing.T) {
	f := func(cell uint32, term int32) bool {
		if term < 0 {
			term = -term
		}
		k := CellKey{Cell: cell, Term: textindex.TermID(term)}
		packed := k.Uint64()
		return uint32(packed>>32) == cell && int32(uint32(packed)) == term
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBTreeStoreSearchEquivalence(t *testing.T) {
	// A one-shard disk store — the paper's single B+-tree, read without
	// the cross-shard fan-out — must return exactly the same results as
	// the in-memory store on a randomized corpus.
	rng := rand.New(rand.NewSource(21))
	v := textindex.NewVocabulary()
	vocab := []string{"cafe", "restaurant", "bar", "pizza", "museum", "park", "shop"}
	bounds := geo.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	var objs []Object
	for i := 0; i < 300; i++ {
		n := 1 + rng.Intn(3)
		toks := make([]string, n)
		for j := range toks {
			toks[j] = vocab[rng.Intn(len(vocab))]
		}
		objs = append(objs, Object{
			Point: geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
			Doc:   v.IndexDoc(toks),
		})
	}

	memIdx, err := NewIndex(objs, bounds, 50, NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	store, err := CreateShardedStore(filepath.Join(t.TempDir(), "store"), ShardedOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	diskIdx, err := NewIndex(objs, bounds, 50, store)
	if err != nil {
		t.Fatal(err)
	}

	for trial := 0; trial < 20; trial++ {
		kws := []string{vocab[rng.Intn(len(vocab))], vocab[rng.Intn(len(vocab))]}
		q := prepareQuery(v, kws)
		x, y := rng.Float64()*800, rng.Float64()*800
		r := geo.Rect{MinX: x, MinY: y, MaxX: x + 200, MaxY: y + 200}
		a, err := memIdx.Search(q, r)
		if err != nil {
			t.Fatal(err)
		}
		b, err := diskIdx.Search(q, r)
		if err != nil {
			t.Fatal(err)
		}
		norm := func(s []ObjScore) {
			sort.Slice(s, func(i, j int) bool { return s[i].Obj < s[j].Obj })
		}
		norm(a)
		norm(b)
		if len(a) != len(b) {
			t.Fatalf("trial %d: mem %d results, disk %d", trial, len(a), len(b))
		}
		for i := range a {
			if a[i].Obj != b[i].Obj || math.Abs(a[i].Score-b[i].Score) > 1e-12 {
				t.Fatalf("trial %d result %d: mem %+v disk %+v", trial, i, a[i], b[i])
			}
		}
	}
}

func TestBTreeStorePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store")
	store, err := CreateShardedStore(path, ShardedOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	key := CellKey{Cell: 3, Term: 7}
	if err := store.Append(key, []Posting{{Obj: 1, Weight: 0.25}}); err != nil {
		t.Fatal(err)
	}
	if err := store.Append(key, []Posting{{Obj: 2, Weight: 0.5}}); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store2, err := OpenShardedStore(path, ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	ps, err := store2.Postings(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 || ps[0].Obj != 1 || ps[1].Obj != 2 {
		t.Errorf("postings after reopen = %+v", ps)
	}
	if ps, err := store2.Postings(CellKey{Cell: 9, Term: 9}); err != nil || ps != nil {
		t.Errorf("absent key: %v, %v", ps, err)
	}
}

func TestSearchPropertyAgainstScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := textindex.NewVocabulary()
		vocab := []string{"a", "b", "c", "d"}
		bounds := geo.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
		var objs []Object
		for i := 0; i < 60; i++ {
			objs = append(objs, Object{
				Point: geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
				Doc:   v.IndexDoc([]string{vocab[rng.Intn(4)]}),
			})
		}
		idx, err := NewIndex(objs, bounds, 7, nil)
		if err != nil {
			return false
		}
		q := prepareQuery(v, []string{vocab[rng.Intn(4)], vocab[rng.Intn(4)]})
		r := geo.Rect{MinX: rng.Float64() * 50, MinY: rng.Float64() * 50}
		r.MaxX = r.MinX + rng.Float64()*50
		r.MaxY = r.MinY + rng.Float64()*50
		got, err := idx.Search(q, r)
		if err != nil {
			return false
		}
		want := 0
		for i := range objs {
			if r.Contains(objs[i].Point) && q.Score(&objs[i].Doc) > 0 {
				want++
			}
		}
		return len(got) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
