//go:build !race

package grid

import (
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/textindex"
)

// TestScoreCacheHitZeroAlloc pins the score cache's hit-path cost: once
// the cache holds every (cell, query) pair of a query, replaying that
// query through SearchInto performs zero allocations — the cached
// contributions copy into the pooled scratch, nothing else moves. The
// rectangle spans the whole index so every cell is fully inside and
// cacheable; scripts/bench-gates.sh enforces the same property
// numerically on the disk-backed BenchmarkHotQueryCache/cached leg.
// (The race detector instruments allocations, hence !race.)
func TestScoreCacheHitZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	v := textindex.NewVocabulary()
	bounds := geo.Rect{MinX: 0, MinY: 0, MaxX: 10000, MaxY: 10000}
	vocab := make([]string, 50)
	for i := range vocab {
		vocab[i] = string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
	}
	var objs []Object
	for i := 0; i < 2000; i++ {
		toks := []string{vocab[rng.Intn(50)], vocab[rng.Intn(50)]}
		objs = append(objs, Object{
			Point: geo.Point{X: rng.Float64() * 10000, Y: rng.Float64() * 10000},
			Doc:   v.IndexDoc(toks),
		})
	}
	idx, err := NewIndex(objs, bounds, 500, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx.SetScoreCache(1024)
	q := prepareQuery(v, []string{vocab[0], vocab[7], vocab[23]})
	var scratch SearchScratch
	if _, err := idx.SearchInto(q, bounds, &scratch); err != nil { // fill the cache
		t.Fatal(err)
	}
	before, _ := idx.ScoreCacheStats()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := idx.SearchInto(q, bounds, &scratch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("cached SearchInto allocated %.1f times per run, want 0", allocs)
	}
	after, _ := idx.ScoreCacheStats()
	if after.Hits <= before.Hits {
		t.Fatalf("replay was not served from cache: hits %d -> %d", before.Hits, after.Hits)
	}
	if after.Misses != before.Misses {
		t.Errorf("cached replays missed: misses %d -> %d", before.Misses, after.Misses)
	}
}
