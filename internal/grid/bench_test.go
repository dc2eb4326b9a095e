package grid

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/geo"
	"repro/internal/textindex"
)

func benchCorpus(b *testing.B) (*textindex.Vocabulary, []string, []Object, geo.Rect) {
	b.Helper()
	rng := rand.New(rand.NewSource(8))
	v := textindex.NewVocabulary()
	bounds := geo.Rect{MinX: 0, MinY: 0, MaxX: 20000, MaxY: 20000}
	var objs []Object
	vocab := make([]string, 200)
	for i := range vocab {
		vocab[i] = string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
	}
	for i := 0; i < 10000; i++ {
		toks := []string{vocab[rng.Intn(200)], vocab[rng.Intn(200)]}
		objs = append(objs, Object{
			Point: geo.Point{X: rng.Float64() * 20000, Y: rng.Float64() * 20000},
			Doc:   v.IndexDoc(toks),
		})
	}
	return v, vocab, objs, bounds
}

func benchIndex(b *testing.B) (*Index, *textindex.Vocabulary) {
	b.Helper()
	v, _, objs, bounds := benchCorpus(b)
	idx, err := NewIndex(objs, bounds, 500, nil)
	if err != nil {
		b.Fatal(err)
	}
	return idx, v
}

// BenchmarkSearchInto searches the in-memory store; it must report 0
// allocs/op steady-state.
func BenchmarkSearchInto(b *testing.B) {
	idx, v := benchIndex(b)
	q := prepareQuery(v, []string{"aa", "ba", "ca"})
	r := geo.Rect{MinX: 5000, MinY: 5000, MaxX: 15000, MaxY: 15000}
	var scratch SearchScratch
	if _, err := idx.SearchInto(q, r, &scratch); err != nil { // warm the buffers
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.SearchInto(q, r, &scratch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdRead measures concurrent query throughput against a
// disk-backed posting store whose page cache is far smaller than the
// working set, so nearly every posting fetch decodes pages cold. A
// one-shard store ("single") serializes all of that work behind one mutex
// and one cache; eight shards give every shard its own, so throughput
// scales with -cpu. CI runs this with -cpu=1,4 and gates on the sharded
// ratio (scripts/bench-gates.sh).
func BenchmarkColdRead(b *testing.B) {
	v, vocab, objs, bounds := benchCorpus(b)
	rng := rand.New(rand.NewSource(17))
	type benchQuery struct {
		q textindex.Query
		r geo.Rect
	}
	queries := make([]benchQuery, 64)
	for i := range queries {
		q := prepareQuery(v, []string{vocab[rng.Intn(200)], vocab[rng.Intn(200)], vocab[rng.Intn(200)]})
		x, y := rng.Float64()*12000, rng.Float64()*12000
		queries[i] = benchQuery{q: q, r: geo.Rect{MinX: x, MinY: y, MaxX: x + 8000, MaxY: y + 8000}}
	}
	run := func(b *testing.B, idx *Index) {
		var cursor atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			var scratch SearchScratch
			for pb.Next() {
				bq := queries[int(cursor.Add(1)-1)%len(queries)]
				if _, err := idx.SearchInto(bq.q, bq.r, &scratch); err != nil {
					b.Error(err)
					return
				}
			}
		})
	}
	// 16 cache pages per tree versus a multi-thousand-page working set:
	// effectively every fetch is cold.
	const cachePages = 16
	for _, layout := range []struct {
		name   string
		shards int
	}{{"single", 1}, {"sharded", 8}} {
		b.Run(layout.name, func(b *testing.B) {
			store, err := CreateShardedStore(b.TempDir(), ShardedOptions{Shards: layout.shards, CachePages: cachePages})
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			idx, err := NewIndex(objs, bounds, 500, store)
			if err != nil {
				b.Fatal(err)
			}
			run(b, idx)
		})
	}
}

// BenchmarkHotQueryCache replays a small hot query set — the workload
// shape of Zipfian map traffic — against a disk-backed sharded
// store whose page cache is far smaller than the working set.
//
//   - cold answers every repeat by fetching and decoding postings from
//     disk again.
//   - cached serves every repeat wholly from the (cell, query) score
//     cache: the steady state plans zero posting fetches.
//
// scripts/bench-gates.sh runs both and gates cached at >= 3x faster than
// cold, with 0 allocs/op on the cached leg (the hits replay into pooled
// scratch; TestScoreCacheHitZeroAlloc pins the same property).
func BenchmarkHotQueryCache(b *testing.B) {
	v, vocab, objs, bounds := benchCorpus(b)
	rng := rand.New(rand.NewSource(23))
	type benchQuery struct {
		q textindex.Query
		r geo.Rect
	}
	// City-wide hot queries: the rectangle spans the whole index, so every
	// cell is fully inside and the cached leg is a pure hit path — zero
	// store reads, zero allocations. A partially covered rectangle would
	// re-fetch its boundary cells from disk on every repeat and measure
	// the page cache as much as the score cache.
	hot := make([]benchQuery, 8)
	for i := range hot {
		kws := make([]string, 6)
		for j := range kws {
			kws[j] = vocab[rng.Intn(200)]
		}
		hot[i] = benchQuery{q: prepareQuery(v, kws), r: bounds}
	}
	const cachePages = 16
	mk := func(b *testing.B) *Index {
		store, err := CreateShardedStore(b.TempDir(), ShardedOptions{Shards: 8, CachePages: cachePages})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { store.Close() })
		idx, err := NewIndex(objs, bounds, 500, store)
		if err != nil {
			b.Fatal(err)
		}
		return idx
	}
	run := func(b *testing.B, idx *Index) {
		var scratch SearchScratch
		for _, bq := range hot { // warm pooled buffers (and the cache, when enabled)
			if _, err := idx.SearchInto(bq.q, bq.r, &scratch); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bq := hot[i%len(hot)]
			if _, err := idx.SearchInto(bq.q, bq.r, &scratch); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cold", func(b *testing.B) {
		run(b, mk(b))
	})
	b.Run("cached", func(b *testing.B) {
		idx := mk(b)
		// Room for every (cell, query) pair of the hot set: 8 queries over a
		// 40x40 grid, so the steady state never evicts.
		idx.SetScoreCache(16384)
		run(b, idx)
		if st, ok := idx.ScoreCacheStats(); !ok || st.Hits == 0 {
			b.Fatalf("score cache saw no hits: %+v", st)
		}
	})
}
