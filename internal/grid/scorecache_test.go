package grid

import (
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/geo"
	"repro/internal/textindex"
)

// assertSameResults fails unless got and want hold identical ObjScore
// sequences (same objects, bit-identical scores).
func assertSameResults(t *testing.T, label string, got, want []ObjScore) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s result %d: %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestScoreCacheDifferentialLiveUpdates is the cache-invalidation golden
// test: while a live-update script (inserts, deletes, reweights, compacts)
// runs, hot repeated queries through the cached path must stay
// bit-identical to the uncached map-based Search at every step — on both
// the MemStore loop fetch and the sharded fan-out fetch. Repeats within a
// quiet period must actually hit the cache; every mutation must invalidate
// it (served results reflect the new state immediately).
func TestScoreCacheDifferentialLiveUpdates(t *testing.T) {
	v, vocab, objs := randomCorpus(t, crashBaseObjs, 77)
	ops := liveScript(vocab, objs)

	memIdx, err := NewIndex(copyObjs(objs), crashBounds, crashCell, nil)
	if err != nil {
		t.Fatal(err)
	}
	memIdx.SetScoreCache(256)
	store, err := CreateShardedStore(filepath.Join(t.TempDir(), "store"), ShardedOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	shIdx, err := NewIndex(copyObjs(objs), crashBounds, crashCell, store)
	if err != nil {
		t.Fatal(err)
	}
	defer shIdx.CloseStore()
	shIdx.SetScoreCache(256)

	rng := rand.New(rand.NewSource(78))
	// A small pool of hot queries and rectangles: repeats are what make
	// the cache fill and then serve, including across invalidations.
	type hotQ struct {
		q textindex.Query
		r geo.Rect
	}
	hot := make([]hotQ, 4)
	for i := range hot {
		x, y := rng.Float64()*500, rng.Float64()*500
		hot[i] = hotQ{
			q: prepareQuery(v, []string{vocab[rng.Intn(len(vocab))], vocab[rng.Intn(len(vocab))]}),
			r: geo.Rect{MinX: x, MinY: y, MaxX: x + 300 + rng.Float64()*200, MaxY: y + 300 + rng.Float64()*200},
		}
	}
	var memScratch, shScratch SearchScratch
	check := func(step string) {
		t.Helper()
		for qi, h := range hot {
			// Twice per quiet period: the first fills, the second replays.
			for rep := 0; rep < 2; rep++ {
				want, err := memIdx.Search(h.q, h.r)
				if err != nil {
					t.Fatal(err)
				}
				got, err := memIdx.SearchInto(h.q, h.r, &memScratch)
				if err != nil {
					t.Fatal(err)
				}
				assertSameResults(t, step+": mem cached q"+string(rune('0'+qi)), got, want)
				got, err = shIdx.SearchInto(h.q, h.r, &shScratch)
				if err != nil {
					t.Fatal(err)
				}
				assertSameResults(t, step+": sharded cached q"+string(rune('0'+qi)), got, want)
			}
		}
	}

	check("pre-update")
	for i := range ops {
		if _, err := applyLiveOps(memIdx, ops[i:i+1], nil); err != nil {
			t.Fatalf("op %d on MemStore: %v", i, err)
		}
		if _, err := applyLiveOps(shIdx, ops[i:i+1], nil); err != nil {
			t.Fatalf("op %d on sharded store: %v", i, err)
		}
		if i%7 == 0 {
			check("after op")
		}
	}
	check("final")

	for _, idx := range []*Index{memIdx, shIdx} {
		st, ok := idx.ScoreCacheStats()
		if !ok {
			t.Fatal("cache stats unavailable on a cache-enabled index")
		}
		if st.Hits == 0 {
			t.Fatal("hot repeats never hit the cache; the differential is vacuous")
		}
		if st.Misses == 0 {
			t.Fatal("mutations never forced a miss; invalidation is untested")
		}
	}
}

// TestScoreCacheCollisionGuard is the white-box collision test: an entry
// reachable under the right signature but filled by a different query
// (same sig forged, different terms or different IDFs) must MISS, never
// serve the other query's scores.
func TestScoreCacheCollisionGuard(t *testing.T) {
	v, _, objs := randomCorpus(t, 80, 13)
	idx, err := NewIndex(copyObjs(objs), crashBounds, crashCell, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx.SetScoreCache(64)
	q1 := prepareQuery(v, []string{"cafe", "bar"})
	q2 := prepareQuery(v, []string{"museum"})
	var scratch SearchScratch
	if _, err := idx.SearchInto(q1, crashBounds, &scratch); err != nil {
		t.Fatal(err)
	}
	sc := idx.scoreCache
	sig1 := q1.Signature()
	// Forge q2 under q1's signature against every cell: the term-list
	// check must reject each entry.
	scratch.reset(len(idx.objects))
	for cell := range idx.cellDir {
		if sc.replay(cell, q2, sig1, idx.epoch, &scratch) {
			t.Fatalf("cell %d: colliding signature served another query's scores", cell)
		}
	}
	// Same terms but drifted IDFs (the vocabulary re-weighted as documents
	// were indexed) must miss too.
	q1drift := textindex.Query{Terms: q1.Terms, IDF: append([]float64(nil), q1.IDF...), Norm: q1.Norm}
	q1drift.IDF[0] *= 1.5
	scratch.reset(len(idx.objects))
	for cell := range idx.cellDir {
		if sc.replay(cell, q1drift, sig1, idx.epoch, &scratch) {
			t.Fatalf("cell %d: entry served despite drifted IDF weights", cell)
		}
	}
	// Sanity: the genuine query does hit at least one interior cell.
	hitsBefore := sc.stats().Hits
	if _, err := idx.SearchInto(q1, crashBounds, &scratch); err != nil {
		t.Fatal(err)
	}
	if sc.stats().Hits == hitsBefore {
		t.Fatal("genuine repeat never hit; guard test is vacuous")
	}
}

// TestScoreCacheEviction bounds the cache: far more distinct queries than
// slots must evict (counter moves) while every answer stays correct, and
// the live entry count must never exceed the configured bound (rounded up
// to the stripe count).
func TestScoreCacheEviction(t *testing.T) {
	v, vocab, objs := randomCorpus(t, 150, 53)
	idx, err := NewIndex(copyObjs(objs), crashBounds, crashCell, nil)
	if err != nil {
		t.Fatal(err)
	}
	const bound = 32
	idx.SetScoreCache(bound)
	rng := rand.New(rand.NewSource(54))
	var scratch SearchScratch
	for trial := 0; trial < 300; trial++ {
		kws := []string{vocab[rng.Intn(len(vocab))]}
		if rng.Intn(2) == 0 {
			kws = append(kws, vocab[rng.Intn(len(vocab))], vocab[rng.Intn(len(vocab))])
		}
		q := prepareQuery(v, kws)
		want, err := idx.Search(q, crashBounds)
		if err != nil {
			t.Fatal(err)
		}
		got, err := idx.SearchInto(q, crashBounds, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, "trial", got, want)
	}
	st, _ := idx.ScoreCacheStats()
	if st.Evictions == 0 {
		t.Fatal("300 distinct-ish queries over 32 slots never evicted")
	}
	per := (bound + scoreCacheStripes - 1) / scoreCacheStripes
	if st.Entries > per*scoreCacheStripes {
		t.Fatalf("cache holds %d entries, bound is %d", st.Entries, per*scoreCacheStripes)
	}
}

// FuzzQuerySignature feeds arbitrary term-id lists through the cached
// search path: whatever the two queries hash to — equal signatures
// included — the cached answers must match the uncached oracle for both.
func FuzzQuerySignature(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{3, 2, 1})
	f.Add([]byte{0}, []byte{0, 0})
	f.Add([]byte{5, 5, 5, 5}, []byte{})
	_, vocab, objs := randomCorpus(f, 100, 91)
	idx, err := NewIndex(copyObjs(objs), crashBounds, crashCell, nil)
	if err != nil {
		f.Fatal(err)
	}
	idx.SetScoreCache(64)
	nTerms := len(vocab)
	mkQuery := func(b []byte) textindex.Query {
		var q textindex.Query
		seen := make(map[textindex.TermID]bool)
		for _, c := range b {
			t := textindex.TermID(int(c) % nTerms)
			if !seen[t] {
				seen[t] = true
				q.Terms = append(q.Terms, t)
			}
		}
		// Terms ascending with IDF 1 and norm 1: valid query shape, scores
		// are raw posting-weight sums.
		if len(q.Terms) == 0 {
			return q
		}
		sortTerms(q.Terms)
		q.IDF = make([]float64, len(q.Terms))
		for i := range q.IDF {
			q.IDF[i] = 1
		}
		q.Norm = 1
		return q
	}
	var scratch SearchScratch
	f.Fuzz(func(t *testing.T, a, b []byte) {
		for _, q := range []textindex.Query{mkQuery(a), mkQuery(b), mkQuery(a)} {
			want, err := idx.Search(q, crashBounds)
			if err != nil {
				t.Fatal(err)
			}
			got, err := idx.SearchInto(q, crashBounds, &scratch)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%d results, want %d (terms %v)", len(got), len(want), q.Terms)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("result %d: %+v, want %+v (terms %v)", i, got[i], want[i], q.Terms)
				}
			}
		}
	})
}

// sortTerms sorts a term list ascending (insertion sort; fuzz inputs are
// tiny).
func sortTerms(ts []textindex.TermID) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}
