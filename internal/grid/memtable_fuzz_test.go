package grid

// FuzzMemtableMerge drives the memtable overlay and mergePostings
// against a shadow map model. The fuzzer's byte stream encodes an
// arbitrary interleaving of base-list postings and insert/reweight/
// delete updates over one (cell, term) key; the merged list must equal
// the shadow's sorted view exactly, stay strictly ascending, and never
// duplicate or fabricate an object.

import (
	"math"
	"sort"
	"testing"

	"repro/internal/textindex"
)

func FuzzMemtableMerge(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0x81, 3, 0x82, 3, 0x41, 3, 0x01, 9, 0xC1, 0})
	f.Add([]byte{0x01, 1, 0x41, 1, 0x81, 1, 0xC1, 1, 0x01, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		const term = textindex.TermID(5)
		key := CellKey{Cell: 7, Term: term}
		// First half of the stream builds the base list (ascending,
		// distinct ids), second half is the update stream.
		shadow := make(map[ObjectID]float64)
		var base []Posting
		nextBase := ObjectID(0)
		mem := newMemtable()
		for i := 0; i+1 < len(data); i += 2 {
			ctl, wb := data[i], data[i+1]
			op := ctl >> 6       // 0 = base posting, 1 = insert/reweight, 2 = reweight, 3 = delete
			objSel := ctl & 0x3F // object selector
			w := 0.01 + float64(wb)/16
			switch op {
			case 0:
				if len(mem.entries) > 0 {
					// Base postings only before the first update — the
					// tree list is fixed once updates start.
					continue
				}
				nextBase += ObjectID(objSel%5) + 1
				base = append(base, Posting{Obj: nextBase, Weight: w})
				shadow[nextBase] = w
			case 1, 2:
				obj := ObjectID(objSel)
				mem.apply(&Update{Kind: UpdateReweight, Obj: obj, Cell: key.Cell,
					Terms: []textindex.TermID{term}, Weights: []float64{w}})
				shadow[obj] = w
			case 3:
				obj := ObjectID(objSel)
				mem.apply(&Update{Kind: UpdateDelete, Obj: obj, Cell: key.Cell,
					Terms: []textindex.TermID{term}})
				delete(shadow, obj)
			}
		}
		got := mergePostings(base, mem.overrides(key))
		want := make([]Posting, 0, len(shadow))
		for id, w := range shadow {
			want = append(want, Posting{Obj: id, Weight: w})
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Obj < want[j].Obj })
		if len(got) != len(want) {
			t.Fatalf("merged %d postings, shadow has %d\n got %v\nwant %v", len(got), len(want), got, want)
		}
		for i := range want {
			if got[i].Obj != want[i].Obj || got[i].Weight != want[i].Weight ||
				math.Signbit(got[i].Weight) != math.Signbit(want[i].Weight) {
				t.Fatalf("posting %d: got {%d %v}, want {%d %v}", i,
					got[i].Obj, got[i].Weight, want[i].Obj, want[i].Weight)
			}
			if i > 0 && got[i].Obj <= got[i-1].Obj {
				t.Fatalf("merged list not strictly ascending at %d: %v", i, got)
			}
		}
	})
}
