package grid

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geo"
)

// TestSearchRangeIntoPartition is the distribution invariant at the grid
// level: for any split of [0, NumCells) into ranges, the union of
// SearchRangeInto over the ranges, re-sorted by ObjectID, must be
// bit-identical to one SearchInto over the whole grid — across random
// queries, rectangles, and both the memory and sharded backends.
func TestSearchRangeIntoPartition(t *testing.T) {
	v, vocab, objs := randomCorpus(t, 400, 23)
	bounds := geo.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	for _, backend := range []string{"mem", "sharded"} {
		t.Run(backend, func(t *testing.T) {
			var store Store
			if backend == "sharded" {
				s, err := CreateShardedStore(t.TempDir()+"/store", ShardedOptions{Shards: 4})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				store = s
			}
			idx, err := NewIndex(objs, bounds, 50, store)
			if err != nil {
				t.Fatal(err)
			}
			numCells := uint32(idx.NumCells())
			rng := rand.New(rand.NewSource(29))
			var full, part SearchScratch
			for trial := 0; trial < 30; trial++ {
				q := prepareQuery(v, []string{vocab[rng.Intn(len(vocab))], vocab[rng.Intn(len(vocab))]})
				x0, y0 := rng.Float64()*800, rng.Float64()*800
				r := geo.Rect{MinX: x0, MinY: y0, MaxX: x0 + 50 + rng.Float64()*150, MaxY: y0 + 50 + rng.Float64()*150}
				want, err := idx.SearchInto(q, r, &full)
				if err != nil {
					t.Fatal(err)
				}

				// Split the cell space at 1–4 random cut points.
				cuts := []uint32{0, numCells}
				for c := 0; c < 1+rng.Intn(4); c++ {
					cuts = append(cuts, uint32(rng.Intn(int(numCells))))
				}
				sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
				var got []ObjScore
				for i := 0; i+1 < len(cuts); i++ {
					lo, hi := cuts[i], cuts[i+1]
					if lo == hi {
						continue
					}
					ps, err := idx.SearchRangeInto(q, r, lo, hi, &part)
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, ps...)
				}
				sort.Slice(got, func(i, j int) bool { return got[i].Obj < got[j].Obj })

				if len(got) != len(want) {
					t.Fatalf("trial %d: partition union has %d results, full search %d", trial, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("trial %d result %d: partition %+v != full %+v", trial, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestRangeMetadata covers the routing-tier accessors: RangeOverlapsRect
// must agree with a brute-force cell walk, and RangeTerms must report
// exactly the terms with postings in the range.
func TestRangeMetadata(t *testing.T) {
	v, vocab, objs := randomCorpus(t, 300, 31)
	bounds := geo.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	idx, err := NewIndex(objs, bounds, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	numCells := uint32(idx.NumCells())
	nx := idx.nx
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 50; trial++ {
		lo := uint32(rng.Intn(int(numCells)))
		hi := lo + 1 + uint32(rng.Intn(int(numCells-lo)))
		x0, y0 := rng.Float64()*900, rng.Float64()*900
		r := geo.Rect{MinX: x0, MinY: y0, MaxX: x0 + rng.Float64()*200, MaxY: y0 + rng.Float64()*200}

		brute := false
		if rx0, rx1, ry0, ry1, ok := idx.cellRange(r); ok {
			for cy := ry0; cy <= ry1 && !brute; cy++ {
				for cx := rx0; cx <= rx1; cx++ {
					cell := uint32(cy*nx + cx)
					if cell >= lo && cell < hi {
						brute = true
						break
					}
				}
			}
		}
		if got := idx.RangeOverlapsRect(lo, hi, r); got != brute {
			t.Fatalf("trial %d: RangeOverlapsRect([%d,%d), %+v) = %v, brute force %v", trial, lo, hi, r, got, brute)
		}
	}
	if idx.RangeOverlapsRect(5, 5, bounds) {
		t.Error("empty range overlaps")
	}

	// RangeTerms over the full cell space must equal the union of all
	// indexed terms; a sub-range must be a subset of it.
	all := idx.RangeTerms(0, numCells)
	if len(all) == 0 {
		t.Fatal("no terms in full range")
	}
	if !sort.SliceIsSorted(all, func(i, j int) bool { return all[i] < all[j] }) {
		t.Error("RangeTerms not sorted")
	}
	q := prepareQuery(v, vocab)
	for _, term := range q.Terms {
		found := false
		for _, got := range all {
			if got == term {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("term %d indexed but missing from full RangeTerms", term)
		}
	}
	sub := idx.RangeTerms(0, numCells/2)
	for _, term := range sub {
		found := false
		for _, got := range all {
			if got == term {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("sub-range term %d not in full range", term)
		}
	}
}
