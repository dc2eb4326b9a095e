package grid

import (
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/geo"
	"repro/internal/textindex"
)

// Search is the reference SearchInto is compared against: a map
// accumulator over an explicit cell list with a per-term directory probe
// and no scratch, score cache or shard fan-out. It reads the posting
// lists of the query keywords in the cells overlapping r and accumulates
// (1/W_Q) Σ w_{Q,t}·wto(t) per object as in Equation (2), filtering
// objects of boundary cells by their exact location, and returns the
// objects sorted by ID.
func (idx *Index) Search(q textindex.Query, r geo.Rect) ([]ObjScore, error) {
	if len(q.Terms) == 0 || q.Norm == 0 {
		return nil, nil
	}
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	acc := make(map[ObjectID]float64)
	for _, cell := range idx.cellsOverlapping(r) {
		dir := idx.cellDir[cell]
		if len(dir) == 0 {
			continue
		}
		fullInside := false
		cr := idx.cellRect(cell)
		if cr.MinX >= r.MinX && cr.MaxX <= r.MaxX && cr.MinY >= r.MinY && cr.MaxY <= r.MaxY {
			fullInside = true
		}
		for qi, t := range q.Terms {
			if !termInCell(dir, t) {
				continue
			}
			ps, err := idx.fetchPostings(CellKey{Cell: cell, Term: t})
			if err != nil {
				return nil, err
			}
			for _, p := range ps {
				if !fullInside && !r.Contains(idx.objects[p.Obj].Point) {
					continue
				}
				acc[p.Obj] += q.IDF[qi] * p.Weight
			}
		}
	}
	out := make([]ObjScore, 0, len(acc))
	for id, s := range acc {
		out = append(out, ObjScore{Obj: id, Score: s / q.Norm})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Obj < out[j].Obj })
	return out, nil
}

// cellsOverlapping returns ids of all cells intersecting r.
func (idx *Index) cellsOverlapping(r geo.Rect) []uint32 {
	x0, x1, y0, y1, ok := idx.cellRange(r)
	if !ok {
		return nil
	}
	out := make([]uint32, 0, (x1-x0+1)*(y1-y0+1))
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			out = append(out, uint32(cy*idx.nx+cx))
		}
	}
	return out
}

// termInCell reports whether the (sorted) cell directory contains t.
func termInCell(dir []termEntry, t textindex.TermID) bool {
	i := sort.Search(len(dir), func(i int) bool { return dir[i].term >= t })
	return i < len(dir) && dir[i].term == t
}

// prepareQuery prepares keywords on a scratch of its own, so the query
// stays valid for the caller's lifetime.
func prepareQuery(v *textindex.Vocabulary, keywords []string) textindex.Query {
	var s textindex.QueryScratch
	return v.PrepareQueryInto(keywords, &s)
}

// randomCorpus builds a randomized object set for equivalence trials.
func randomCorpus(t testing.TB, n int, seed int64) (*textindex.Vocabulary, []string, []Object) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	v := textindex.NewVocabulary()
	vocab := []string{"cafe", "restaurant", "bar", "pizza", "museum", "park", "shop"}
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
	return v, vocab, objs
}

// TestSearchIntoMatchesSearch is the golden comparison: across random
// queries and rectangles (boundary cells included), SearchInto must
// return exactly what the reference Search does — same objects in the
// same order with bit-identical scores — while reusing one scratch.
func TestSearchIntoMatchesSearch(t *testing.T) {
	v, vocab, objs := randomCorpus(t, 300, 17)
	bounds := geo.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	idx, err := NewIndex(objs, bounds, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(18))
	var scratch SearchScratch
	nonEmpty := 0
	for trial := 0; trial < 100; trial++ {
		kws := []string{vocab[rng.Intn(len(vocab))], vocab[rng.Intn(len(vocab))]}
		q := prepareQuery(v, kws)
		x, y := rng.Float64()*900, rng.Float64()*900
		r := geo.Rect{MinX: x, MinY: y, MaxX: x + 25 + rng.Float64()*300, MaxY: y + 25 + rng.Float64()*300}
		want, err := idx.Search(q, r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := idx.SearchInto(q, r, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: SearchInto %d results, Search %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d result %d: SearchInto %+v, Search %+v", trial, i, got[i], want[i])
			}
		}
		if len(want) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Fatal("every trial returned no results; test is vacuous")
	}
}

// TestSearchIntoEdgeCases covers the empty-query and disjoint-rectangle
// paths and the epoch reset across many reuses.
func TestSearchIntoEdgeCases(t *testing.T) {
	v, _, objs := randomCorpus(t, 50, 5)
	bounds := geo.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	idx, err := NewIndex(objs, bounds, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	var scratch SearchScratch
	if got, err := idx.SearchInto(prepareQuery(v, []string{"nosuchterm"}), bounds, &scratch); err != nil || got != nil {
		t.Errorf("unknown keyword: got %v, %v", got, err)
	}
	q := prepareQuery(v, []string{"cafe"})
	if got, err := idx.SearchInto(q, geo.Rect{MinX: 5000, MinY: 5000, MaxX: 6000, MaxY: 6000}, &scratch); err != nil || len(got) != 0 {
		t.Errorf("disjoint rect: got %v, %v", got, err)
	}
	// Reuse the scratch many times; stale stamps must never leak scores.
	for i := 0; i < 50; i++ {
		want, _ := idx.Search(q, bounds)
		got, err := idx.SearchInto(q, bounds, &scratch)
		if err != nil || len(got) != len(want) {
			t.Fatalf("reuse %d: %d results (want %d), err %v", i, len(got), len(want), err)
		}
	}
}

// TestSearchIntoBTreeStore checks the pooled path against a one-shard
// disk store too (it allocates there, but results must be identical).
func TestSearchIntoBTreeStore(t *testing.T) {
	v, vocab, objs := randomCorpus(t, 200, 23)
	bounds := geo.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	store, err := CreateShardedStore(filepath.Join(t.TempDir(), "store"), ShardedOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	diskIdx, err := NewIndex(objs, bounds, 50, store)
	if err != nil {
		t.Fatal(err)
	}
	memIdx, err := NewIndex(objs, bounds, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(24))
	var scratch SearchScratch
	for trial := 0; trial < 20; trial++ {
		q := prepareQuery(v, []string{vocab[rng.Intn(len(vocab))]})
		x, y := rng.Float64()*800, rng.Float64()*800
		r := geo.Rect{MinX: x, MinY: y, MaxX: x + 200, MaxY: y + 200}
		want, err := memIdx.Search(q, r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := diskIdx.SearchInto(q, r, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: disk SearchInto %d results, mem Search %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d result %d: disk %+v, mem %+v", trial, i, got[i], want[i])
			}
		}
	}
}
