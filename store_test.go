package repro

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestShardedStoreGolden proves that a Database over a sharded disk store
// answers a parallel workload bit-identically to the in-memory store: the
// storage layout and the concurrent shard fan-out must never change a
// result.
func TestShardedStoreGolden(t *testing.T) {
	mem, err := NYLike(3, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NYLikeWithStore(3, 0.15, StoreConfig{
		Path:   filepath.Join(t.TempDir(), "store"),
		Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	if st, ok := sharded.StoreStats(); !ok || st.Shards != 4 {
		t.Fatalf("StoreStats = %+v, %v; want 4 shards", st, ok)
	}
	if _, ok := mem.StoreStats(); ok {
		t.Fatal("in-memory database reported disk-store stats")
	}

	qs, err := mem.GenQueries(rand.New(rand.NewSource(7)), 24, 3, 25e6, 5000)
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []Method{MethodTGEN, MethodGreedy} {
		opts := SearchOptions{Method: method}
		want, _ := serveAll(t, mem, qs, opts, 1)
		got, _ := serveAll(t, sharded, qs, opts, 4)
		for i := range want {
			switch {
			case want[i] == nil && got[i] == nil:
			case want[i] == nil || got[i] == nil:
				t.Fatalf("%v query %d: matched=%v on memory, %v on sharded",
					method, i, want[i] != nil, got[i] != nil)
			case want[i].Score != got[i].Score || want[i].Length != got[i].Length ||
				len(want[i].Nodes) != len(got[i].Nodes):
				t.Fatalf("%v query %d: memory (%v, %v, %d nodes) != sharded (%v, %v, %d nodes)",
					method, i, want[i].Score, want[i].Length, len(want[i].Nodes),
					got[i].Score, got[i].Length, len(got[i].Nodes))
			default:
				for j := range want[i].Nodes {
					if want[i].Nodes[j] != got[i].Nodes[j] {
						t.Fatalf("%v query %d node %d: %d != %d", method, i, j, want[i].Nodes[j], got[i].Nodes[j])
					}
				}
			}
		}
	}
}

// TestStoreConfigSingleTree covers Shards: 1, a store of one B+-tree.
func TestStoreConfigSingleTree(t *testing.T) {
	db, err := NYLikeWithStore(5, 0.1, StoreConfig{Path: filepath.Join(t.TempDir(), "store"), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	st, ok := db.StoreStats()
	if !ok || st.Shards != 1 {
		t.Fatalf("StoreStats = %+v, %v; want single shard", st, ok)
	}
	qs, err := db.GenQueries(rand.New(rand.NewSource(2)), 1, 3, 25e6, 5000)
	if err != nil {
		t.Fatal(err)
	}
	best(t, db, qs[0], SearchOptions{})
}

func TestStoreConfigValidation(t *testing.T) {
	if _, err := NYLikeWithStore(1, 0.1, StoreConfig{Shards: 4}); err == nil {
		t.Fatal("sharded store without a path accepted")
	}

	// A regular file is a single-file store from before stores were
	// directories: opening or scrubbing it names the move that upgrades
	// it and leaves its bytes alone.
	file := filepath.Join(t.TempDir(), "p.bt")
	content := []byte("legacy single-file store")
	if err := os.WriteFile(file, content, 0o644); err != nil {
		t.Fatal(err)
	}
	_, openErr := NYLikeWithStore(1, 0.1, StoreConfig{Path: file, OpenExisting: true})
	_, scrubErr := ScrubStore(file)
	for _, err := range []error{openErr, scrubErr} {
		if err == nil || !strings.Contains(err.Error(), "shard-0000.bt") || !strings.Contains(err.Error(), "partition cell-mod") {
			t.Errorf("single-file store: error %v does not name the move to a one-shard directory", err)
		}
	}
	if got, err := os.ReadFile(file); err != nil || !bytes.Equal(got, content) {
		t.Errorf("single-file store changed: %q, %v", got, err)
	}
}
