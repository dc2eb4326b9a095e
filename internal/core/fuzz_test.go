package core

import (
	"context"
	"slices"
	"testing"
)

// FuzzRegionMerge drives the free-list Region arena through random
// sequences of singleton/combine/release/reset operations while mirroring
// every live region in a shadow copy with ordinary heap slices. Any
// recycling bug — a slice handed to two regions, a combine writing into
// freed-but-still-referenced storage, a reset leaking state into the next
// generation — shows up as a live region diverging from its shadow or as a
// malformed merge (a node list that is not the two inputs concatenated).
func FuzzRegionMerge(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0, 0, 1, 16, 32, 2, 3, 255, 128, 64, 9, 9, 9})
	f.Add([]byte{3, 0, 1, 3, 0, 1, 2, 2, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		// A fixed instance: an 8-node cycle with chords, deterministic
		// lengths, all nodes relevant.
		var edges []Edge
		for i := 0; i < 8; i++ {
			edges = append(edges, Edge{U: int32(i), V: int32((i + 1) % 8), Length: 1 + float64(i)/4})
		}
		edges = append(edges, Edge{U: 0, V: 4, Length: 2.5}, Edge{U: 1, V: 5, Length: 3.25})
		weights := []float64{1, 2, 0.5, 3, 1.5, 2.5, 0.25, 4}
		in, err := NewInstance(8, edges, weights)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSolveScratch()
		begin := func() {
			s.begin(context.Background())
			if err := ScaleInto(in, 1, &s.scaling); err != nil {
				t.Fatal(err)
			}
		}
		begin()

		type tracked struct {
			pr     *poolRegion
			shadow Region // deep copy on ordinary heap slices
		}
		var live []tracked
		snap := func(r *Region) Region {
			return Region{
				Length: r.Length,
				Score:  r.Score,
				Scaled: r.Scaled,
				Nodes:  append([]int32(nil), r.Nodes...),
				Edges:  append([]int32(nil), r.Edges...),
			}
		}
		verify := func(stage string) {
			t.Helper()
			for i := range live {
				got, want := &live[i].pr.Region, &live[i].shadow
				if !regionEq(got, want) {
					t.Fatalf("%s: live region %d corrupted:\n got %+v\nwant %+v", stage, i, got, want)
				}
			}
		}
		hold := func(pr *poolRegion) {
			s.pool.ref(pr)
			live = append(live, tracked{pr: pr, shadow: snap(&pr.Region)})
		}

		for k := 0; k+1 < len(ops); k += 2 {
			op, arg := ops[k]%4, int(ops[k+1])
			switch op {
			case 0: // singleton
				hold(s.singleton(in, NodeID(arg%in.NumNodes)))
			case 1: // combine two disjoint live regions through some edge
				if len(live) < 2 {
					continue
				}
				a := live[arg%len(live)].pr
				b := live[(arg/16+1)%len(live)].pr
				s.marks.begin(in.NumNodes)
				for _, v := range a.Nodes {
					s.marks.add(v)
				}
				if a == b || s.marks.hasAny(b.Nodes) {
					continue
				}
				nr := s.combine(in, a, b, int32(arg%len(in.Edges)))
				// Merge invariant: a's nodes, then b's.
				if !slices.Equal(nr.Nodes, append(append([]int32(nil), a.Nodes...), b.Nodes...)) {
					t.Fatalf("combine produced nodes %v from %v + %v", nr.Nodes, a.Nodes, b.Nodes)
				}
				if len(nr.Edges) != len(a.Edges)+len(b.Edges)+1 {
					t.Fatalf("combine edge count %d, want %d", len(nr.Edges), len(a.Edges)+len(b.Edges)+1)
				}
				hold(nr)
			case 2: // release one live region back to the free lists
				if len(live) == 0 {
					continue
				}
				i := arg % len(live)
				s.pool.deref(live[i].pr)
				live = append(live[:i], live[i+1:]...)
			default: // reset: everything dies, storage is recycled
				live = live[:0]
				begin()
			}
			verify("after op")
		}
	})
}
