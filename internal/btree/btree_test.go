package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"
)

func newTempTree(t *testing.T, opts Options) (*Tree, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "idx.bt")
	tr, err := Create(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tr, path
}

func TestPutGetSmall(t *testing.T) {
	tr, _ := newTempTree(t, Options{})
	defer tr.Close()
	if err := tr.Put(42, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Get(42)
	if err != nil || string(got) != "hello" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if _, err := tr.Get(43); err != ErrNotFound {
		t.Errorf("missing key: err = %v, want ErrNotFound", err)
	}
	if int(tr.count) != 1 {
		t.Errorf("Count = %d, want 1", int(tr.count))
	}
}

func TestPutReplace(t *testing.T) {
	tr, _ := newTempTree(t, Options{})
	defer tr.Close()
	for i := 0; i < 3; i++ {
		if err := tr.Put(7, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got, err := tr.Get(7)
	if err != nil || string(got) != "v2" {
		t.Fatalf("Get = %q, %v, want v2", got, err)
	}
	if int(tr.count) != 1 {
		t.Errorf("Count = %d after replaces, want 1", int(tr.count))
	}
}

func TestManyKeysSplitsAndPersistence(t *testing.T) {
	tr, path := newTempTree(t, Options{CachePages: 16})
	const n = 5000
	rng := rand.New(rand.NewSource(5))
	keys := rng.Perm(n)
	for _, k := range keys {
		var v [8]byte
		binary.LittleEndian.PutUint64(v[:], uint64(k*3))
		if err := tr.Put(uint64(k), v[:]); err != nil {
			t.Fatal(err)
		}
	}
	if int(tr.count) != n {
		t.Fatalf("Count = %d, want %d", int(tr.count), n)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and verify everything survived.
	tr2, err := Open(path, Options{CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	if int(tr2.count) != n {
		t.Fatalf("reopened Count = %d, want %d", int(tr2.count), n)
	}
	for k := 0; k < n; k++ {
		v, err := tr2.Get(uint64(k))
		if err != nil {
			t.Fatalf("Get(%d): %v", k, err)
		}
		if binary.LittleEndian.Uint64(v) != uint64(k*3) {
			t.Fatalf("Get(%d) value mismatch", k)
		}
	}
}

func TestOverflowValues(t *testing.T) {
	tr, path := newTempTree(t, Options{})
	big := make([]byte, 3*PageSize+123) // forces a 4-page overflow chain
	rand.New(rand.NewSource(9)).Read(big)
	if err := tr.Put(1, big); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Get(1)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("overflow round trip failed: err=%v equal=%v", err, bytes.Equal(got, big))
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	tr2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	got, err = tr2.Get(1)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatal("overflow value lost after reopen")
	}
}

func TestOverflowReplaceRecyclesPages(t *testing.T) {
	tr, _ := newTempTree(t, Options{})
	defer tr.Close()
	big := make([]byte, 2*PageSize)
	// Put writes the fresh chain before releasing the old one, and freed
	// pages become allocatable only at the next commit (crash safety), so
	// the file stabilizes at ~2x the chain size after a put+sync cycle;
	// after that it must not grow at all.
	for i := 0; i < 2; i++ {
		if err := tr.Put(1, big); err != nil {
			t.Fatal(err)
		}
		if err := tr.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	steady := tr.numPages
	for i := 0; i < 20; i++ {
		if err := tr.Put(1, big); err != nil {
			t.Fatal(err)
		}
		if err := tr.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if tr.numPages != steady {
		t.Errorf("file grew from %d to %d pages across replaces; free list not working",
			steady, tr.numPages)
	}
}

func TestDelete(t *testing.T) {
	tr, _ := newTempTree(t, Options{})
	defer tr.Close()
	for k := uint64(0); k < 100; k++ {
		if err := tr.Put(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Delete(50); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Get(50); err != ErrNotFound {
		t.Error("deleted key still present")
	}
	if err := tr.Delete(50); err != ErrNotFound {
		t.Error("double delete should report ErrNotFound")
	}
	if int(tr.count) != 99 {
		t.Errorf("Count = %d, want 99", int(tr.count))
	}
	// Neighbours unaffected.
	if _, err := tr.Get(49); err != nil {
		t.Error("neighbour key lost")
	}
}

func TestScanRange(t *testing.T) {
	tr, _ := newTempTree(t, Options{CachePages: 8})
	defer tr.Close()
	for k := uint64(0); k < 1000; k += 2 { // even keys only
		if err := tr.Put(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	err := tr.Scan(101, 199, func(k uint64, v []byte) bool {
		got = append(got, k)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []uint64
	for k := uint64(102); k <= 198; k += 2 {
		want = append(want, k)
	}
	if len(got) != len(want) {
		t.Fatalf("scan returned %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	tr, _ := newTempTree(t, Options{CachePages: 8})
	defer tr.Close()
	for k := uint64(0); k < 2000; k++ {
		if err := tr.Put(k, nil); err != nil {
			t.Fatal(err)
		}
	}
	calls := 0
	err := tr.Scan(0, 1999, func(k uint64, v []byte) bool {
		calls++
		return calls < 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 5 {
		t.Errorf("early stop: %d calls, want 5", calls)
	}
}

func TestMatchesMapModel(t *testing.T) {
	// Property test: a random interleaving of Put/Delete/Get behaves like
	// a map[uint64][]byte.
	f := func(seed int64) bool {
		tr, _ := newTempTree(t, Options{CachePages: 8})
		defer tr.Close()
		rng := rand.New(rand.NewSource(seed))
		model := map[uint64][]byte{}
		for op := 0; op < 400; op++ {
			k := uint64(rng.Intn(60))
			switch rng.Intn(3) {
			case 0: // put
				v := make([]byte, rng.Intn(50))
				rng.Read(v)
				if tr.Put(k, v) != nil {
					return false
				}
				model[k] = v
			case 1: // delete
				err := tr.Delete(k)
				_, exists := model[k]
				if exists != (err == nil) {
					return false
				}
				delete(model, k)
			case 2: // get
				v, err := tr.Get(k)
				want, exists := model[k]
				if exists != (err == nil) {
					return false
				}
				if exists && !bytes.Equal(v, want) {
					return false
				}
			}
		}
		// Final full-scan comparison.
		var scanned []uint64
		if err := tr.Scan(0, ^uint64(0), func(k uint64, v []byte) bool {
			scanned = append(scanned, k)
			if !bytes.Equal(v, model[k]) {
				scanned = nil
				return false
			}
			return true
		}); err != nil {
			return false
		}
		if len(scanned) != len(model) {
			return false
		}
		var wantKeys []uint64
		for k := range model {
			wantKeys = append(wantKeys, k)
		}
		sort.Slice(wantKeys, func(i, j int) bool { return wantKeys[i] < wantKeys[j] })
		for i := range wantKeys {
			if scanned[i] != wantKeys[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.bt")
	if err := os.WriteFile(path, bytes.Repeat([]byte{0xAB}, 2*PageSize), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); err == nil {
		t.Error("opening garbage succeeded")
	}
}

func TestOpenRejectsTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "short.bt")
	if err := os.WriteFile(path, []byte("tiny"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); err == nil {
		t.Error("opening truncated file succeeded")
	}
}

func TestCorruptPageDetected(t *testing.T) {
	tr, path := newTempTree(t, Options{CachePages: 8})
	for k := uint64(0); k < 3000; k++ {
		if err := tr.Put(k, []byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	// Smash a non-header page with an invalid type byte.
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, int64(2)*PageSize); err != nil {
		t.Fatal(err)
	}
	f.Close()
	tr2, err := Open(path, Options{CachePages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	sawError := false
	for k := uint64(0); k < 3000; k++ {
		if _, err := tr2.Get(k); err != nil && err != ErrNotFound {
			sawError = true
			break
		}
	}
	if !sawError {
		t.Error("no corruption error surfaced after smashing a page")
	}
}

func TestTinyCacheStillCorrect(t *testing.T) {
	// A pathologically small cache forces constant eviction/reload.
	tr, _ := newTempTree(t, Options{CachePages: 1}) // clamped to 8
	defer tr.Close()
	const n = 2000
	for k := 0; k < n; k++ {
		if err := tr.Put(uint64(k), []byte{byte(k), byte(k >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < n; k++ {
		v, err := tr.Get(uint64(k))
		if err != nil || v[0] != byte(k) || v[1] != byte(k>>8) {
			t.Fatalf("Get(%d) = %v, %v", k, v, err)
		}
	}
}

func TestCacheStats(t *testing.T) {
	tr, path := newTempTree(t, Options{CachePages: 8})
	const n = 2000
	val := bytes.Repeat([]byte{0xAB}, 200) // ~15 entries per leaf → many pages
	for k := 0; k < n; k++ {
		if err := tr.Put(uint64(k), val); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < n; k++ { // cold reads through the tiny cache
		if _, err := tr.Get(uint64(k)); err != nil {
			t.Fatal(err)
		}
	}
	st := tr.CacheStats()
	if st.Hits == 0 || st.Misses == 0 || st.Evictions == 0 {
		t.Errorf("after %d inserts through an 8-page cache, stats = %+v; want all counters nonzero", n, st)
	}
	if st.Resident > 8 {
		t.Errorf("resident pages %d exceed the cache cap", st.Resident)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	tr2, err := Open(path, Options{CachePages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	if st := tr2.CacheStats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("fresh open should start with zero counters, got %+v", st)
	}
	if _, err := tr2.Get(0); err != nil {
		t.Fatal(err)
	}
	if st := tr2.CacheStats(); st.Misses == 0 {
		t.Errorf("cold Get should count at least one miss, got %+v", st)
	}
}
