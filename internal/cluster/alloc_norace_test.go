//go:build !race

package cluster

import (
	"context"
	"testing"

	"repro/internal/geo"
)

// TestCoordinatorSearchAllocs pins the coordinator's allocations per
// Search over a 2-node in-process cluster, both groups contacted: the
// merged result slice and the goroutine that asks the second group. The
// binary frames, the pooled call buffers and runs, and the k-way merge
// allocate nothing in the steady state; the JSON frames and sort they
// replaced cost 97 allocations per Search in this test, nodes included.
func TestCoordinatorSearchAllocs(t *testing.T) {
	const objects = 500
	v, idx := buildCorpus(t, objects, 61, false)
	mid := uint32(idx.NumCells()) / 2
	n1 := startNode(t, idx, 0, mid, objects)
	defer n1.Close()
	n2 := startNode(t, idx, mid, uint32(idx.NumCells()), objects)
	defer n2.Close()
	c, err := NewCoordinator(CoordinatorConfig{Addrs: []string{n1.Addr().String(), n2.Addr().String()}, Index: idx, Objects: objects})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q := prepareQuery(v, []string{"cafe", "park"})
	r := geo.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	allocs := testing.AllocsPerRun(50, func() {
		if res, err := c.Search(context.Background(), q, r); err != nil || len(res) == 0 {
			t.Fatalf("search: %d results, err %v", len(res), err)
		}
	})
	t.Logf("%.1f allocs per Search", allocs)
	if allocs > 2 {
		t.Fatalf("Search allocated %.1f times per call, want <= 2", allocs)
	}
}
