package grid

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/btree"
	"repro/internal/geo"
)

// buildShardedStore creates a populated sharded store on disk and closes
// it, returning the directory.
func buildShardedStore(t *testing.T, shards int) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "store")
	s, err := CreateShardedStore(dir, ShardedOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	for cell := uint32(0); cell < 40; cell++ {
		ps := make([]Posting, 0, 8)
		for o := 0; o < 8; o++ {
			ps = append(ps, Posting{Obj: ObjectID(cell*8 + uint32(o)), Weight: float64(o) * 0.25})
		}
		if err := s.Append(CellKey{Cell: cell, Term: 3}, ps); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestScrubCleanStores(t *testing.T) {
	dir := buildShardedStore(t, 4)
	s, err := OpenShardedStore(dir, ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rep := s.Scrub()
	if len(rep.Shards) != 4 {
		t.Fatalf("scrub reported %d shards, want 4", len(rep.Shards))
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("clean store scrub failed: %v\n%s", err, rep)
	}
	var keys uint64
	for _, sh := range rep.Shards {
		keys += sh.Stats.Keys
	}
	if keys != 40 {
		t.Errorf("scrub counted %d keys across shards, want 40", keys)
	}
}

// TestScrubDetectsShardCorruption flips one byte in one shard's data page;
// the scrub must flag exactly that shard, typed btree.ErrCorrupt, while
// the other shards verify clean.
func TestScrubDetectsShardCorruption(t *testing.T) {
	dir := buildShardedStore(t, 4)
	victim := filepath.Join(dir, shardFileName(1))
	raw, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	raw[2*btree.PageSize+100] ^= 0x40
	if err := os.WriteFile(victim, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenShardedStore(dir, ShardedOptions{})
	if err != nil {
		// Lazy page reads mean Open may or may not trip over the damage;
		// if it does, it must at least be typed.
		if !errors.Is(err, btree.ErrCorrupt) {
			t.Fatalf("open of corrupted store failed untyped: %v", err)
		}
		return
	}
	defer s.Close()
	rep := s.Scrub()
	if err := rep.Err(); !errors.Is(err, btree.ErrCorrupt) {
		t.Fatalf("scrub of corrupted shard returned %v, want ErrCorrupt\n%s", err, rep)
	}
	for _, sh := range rep.Shards {
		if sh.Shard == 1 {
			if sh.Err == nil {
				t.Error("corrupted shard 1 scrubbed clean")
			}
		} else if sh.Err != nil {
			t.Errorf("healthy shard %d reported %v", sh.Shard, sh.Err)
		}
	}
	if !strings.Contains(rep.String(), "CORRUPT") {
		t.Errorf("report rendering lacks CORRUPT marker:\n%s", rep)
	}
}

// TestManifestChecksum: a tampered MANIFEST is refused, and the legacy
// three-line manifest (pre-checksum) still opens.
func TestManifestChecksum(t *testing.T) {
	dir := buildShardedStore(t, 2)
	mpath := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "crc ") {
		t.Fatalf("manifest missing crc line:\n%s", raw)
	}

	// Tamper with the shard count but keep the old checksum.
	bad := strings.Replace(string(raw), "shards 2", "shards 3", 1)
	if err := os.WriteFile(mpath, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShardedStore(dir, ShardedOptions{}); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("tampered manifest opened (err = %v)", err)
	}

	// Legacy layout: drop the crc line entirely; must still open.
	lines := strings.SplitN(string(raw), "\n", 4)
	legacy := lines[0] + "\n" + lines[1] + "\n" + lines[2] + "\n"
	if err := os.WriteFile(mpath, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenShardedStore(dir, ShardedOptions{})
	if err != nil {
		t.Fatalf("legacy manifest refused: %v", err)
	}
	if s.NumShards() != 2 {
		t.Errorf("legacy open: %d shards, want 2", s.NumShards())
	}
	s.Close()

	// The open must have upgraded the manifest in place: the checksummed
	// four-line form is back on disk, byte-identical to the original, so
	// every later open (and Scrub) verifies a crc again.
	upgraded, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if string(upgraded) != string(raw) {
		t.Errorf("legacy manifest not upgraded on open:\n got %q\nwant %q", upgraded, raw)
	}

	// Typed rejects: every malformed manifest fails as ErrBadManifest,
	// never as a silent mis-open.
	for name, img := range map[string]string{
		"wrong magic":     "some-other-store v9\nshards 2\npartition cell-mod\n",
		"bad shard count": lines[0] + "\nshards zero\n" + lines[2] + "\n",
		"huge count":      lines[0] + "\nshards 100000\n" + lines[2] + "\n",
		"bad partition":   lines[0] + "\n" + lines[1] + "\npartition round-robin\n",
		"truncated":       lines[0] + "\n",
	} {
		if err := os.WriteFile(mpath, []byte(img), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenShardedStore(dir, ShardedOptions{}); !errors.Is(err, ErrBadManifest) {
			t.Errorf("%s: open returned %v, want ErrBadManifest", name, err)
		}
	}
}

// TestManifestUpgradeReopenCycle: the legacy 3-line path end to end —
// legacy open upgrades the header in place, the store then reopens on the
// checksummed path with its data intact, and the upgraded header accepts
// a later cell-range assignment that itself survives reopen.
func TestManifestUpgradeReopenCycle(t *testing.T) {
	dir := buildShardedStore(t, 2)
	mpath := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}

	// Rewind the header to the legacy checksum-free format.
	lines := strings.SplitN(string(raw), "\n", 4)
	legacy := lines[0] + "\n" + lines[1] + "\n" + lines[2] + "\n"
	if err := os.WriteFile(mpath, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}

	// Legacy open upgrades; the data must be readable through it.
	s, err := OpenShardedStore(dir, ShardedOptions{})
	if err != nil {
		t.Fatalf("legacy open: %v", err)
	}
	if ps, err := s.Postings(CellKey{Cell: 7, Term: 3}); err != nil || len(ps) != 8 {
		t.Fatalf("postings through legacy-opened store: %d, %v (want 8, nil)", len(ps), err)
	}
	if _, _, ok := s.CellRange(); ok {
		t.Error("legacy store reports a cell range it never recorded")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: now on the checksummed path, same data, no further rewrite.
	s, err = OpenShardedStore(dir, ShardedOptions{})
	if err != nil {
		t.Fatalf("reopen after upgrade: %v", err)
	}
	if ps, err := s.Postings(CellKey{Cell: 7, Term: 3}); err != nil || len(ps) != 8 {
		t.Fatalf("postings after reopen: %d, %v (want 8, nil)", len(ps), err)
	}
	upgraded, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if string(upgraded) != string(raw) {
		t.Errorf("upgrade not byte-stable:\n got %q\nwant %q", upgraded, raw)
	}

	// Record a cell-range assignment on the upgraded store; it must come
	// back on the next open, still checksummed (tamper is refused).
	if err := s.RecordCellRange(10, 20); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = OpenShardedStore(dir, ShardedOptions{})
	if err != nil {
		t.Fatalf("reopen after RecordCellRange: %v", err)
	}
	lo, hi, ok := s.CellRange()
	if !ok || lo != 10 || hi != 20 {
		t.Fatalf("cell range after reopen: [%d, %d) ok=%v, want [10, 20) true", lo, hi, ok)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	withCells, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(withCells), "cells 10 20", "cells 0 99", 1)
	if tampered == string(withCells) {
		t.Fatalf("manifest lacks cells line:\n%s", withCells)
	}
	if err := os.WriteFile(mpath, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShardedStore(dir, ShardedOptions{}); !errors.Is(err, ErrBadManifest) {
		t.Fatalf("tampered cell range opened (err = %v)", err)
	}
}

// flakyStore fails the first failEvery-th Postings calls once each: call n
// fails if n is a designated failure and the immediate retry succeeds —
// unless permanent is set, in which case designated keys always fail.
type flakyStore struct {
	inner     Store
	failNext  int  // countdown: fail Postings when it reaches 0 (one-shot)
	permanent bool // every Postings call fails
	calls     int
	failures  int
}

func (f *flakyStore) Append(key CellKey, ps []Posting) error { return f.inner.Append(key, ps) }

func (f *flakyStore) Postings(key CellKey) ([]Posting, error) {
	f.calls++
	if f.permanent {
		f.failures++
		return nil, errors.New("disk on fire")
	}
	if f.failNext > 0 {
		f.failNext--
		if f.failNext == 0 {
			f.failures++
			return nil, errors.New("transient read fault")
		}
	}
	return f.inner.Postings(key)
}

// TestFetchPostingsRetry: a transient store fault is absorbed by the
// single retry (results bit-identical to the healthy run); a persistent
// fault surfaces typed as ErrShardIO.
func TestFetchPostingsRetry(t *testing.T) {
	v, vocab, objs := randomCorpus(t, 200, 41)
	bounds := geo.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	flaky := &flakyStore{inner: NewMemStore()}
	idx, err := NewIndex(objs, bounds, 50, flaky)
	if err != nil {
		t.Fatal(err)
	}
	q := prepareQuery(v, []string{vocab[0], vocab[1]})
	want, err := idx.Search(q, bounds)
	if err != nil || len(want) == 0 {
		t.Fatalf("baseline search: %d results, err %v", len(want), err)
	}

	flaky.failNext = 3 // third fetch of the next search fails once
	got, err := idx.Search(q, bounds)
	if err != nil {
		t.Fatalf("search did not absorb transient fault: %v", err)
	}
	if flaky.failures != 1 {
		t.Fatalf("transient fault never fired (failures = %d)", flaky.failures)
	}
	if len(got) != len(want) {
		t.Fatalf("retried search: %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result %d after retry: %+v, want %+v", i, got[i], want[i])
		}
	}

	flaky.permanent = true
	if _, err := idx.Search(q, bounds); !errors.Is(err, ErrShardIO) {
		t.Fatalf("persistent fault returned %v, want ErrShardIO", err)
	}
	var scratch SearchScratch
	if _, err := idx.SearchInto(q, bounds, &scratch); !errors.Is(err, ErrShardIO) {
		t.Fatalf("SearchInto persistent fault returned %v, want ErrShardIO", err)
	}
}
