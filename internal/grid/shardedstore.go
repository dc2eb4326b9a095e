package grid

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/btree"
	"repro/internal/iofault"
)

// ShardedStore is a disk-backed Store that partitions the CellKey space
// across N independent B+-trees: shard i owns every key whose cell
// satisfies cell mod N == i, and each shard has its own file, page cache
// and mutex. Cells adjacent in row-major order land on different shards,
// so the cells of one query rectangle — and the cold reads of concurrent
// queries — spread across all shards instead of convoying on one tree
// lock and one page cache, which is what makes cold-read throughput scale
// with cores (see BenchmarkColdRead and the CI multi-core gate).
//
// On disk a sharded store is a directory: a MANIFEST header recording the
// layout (shard count and partition function, so OpenShardedStore
// reconstructs it regardless of the opener's GOMAXPROCS), one
// shard-NNNN.bt tree per shard, one wal-NNNN.log write-ahead log per
// shard, and up to two META.N slots holding the index meta committed by
// the last compaction (see livestore.go). Each tree is held under an
// exclusive file lock while open, so two stores can never share a shard.
//
// Reads see the shard's memtable merged over its tree; the write path
// logs an update to the WAL, then applies it to the memtable (livestore.go).
// Append bypasses both and
// writes the tree directly — it is the bulk-build path, used before the
// store serves queries.
type ShardedStore struct {
	dir    string // display label; a directory for osFS, "(mem)" for a board
	fs     storeFS
	noSync bool
	cache  int
	shards []storeShard

	// seq is the last assigned update sequence number (global across
	// shards; WAL replay ordering and the meta high-water mark use it).
	seq atomic.Uint64

	// metaMu serializes meta-slot commits; the fields below describe the
	// newest valid slot (as of open, then maintained by CommitMeta).
	metaMu     sync.Mutex
	metaSeq    uint64
	metaLastOp uint64
	metaBody   []byte
	metaLoaded bool

	// replayed holds the WAL records found at open with Seq above the meta
	// high-water mark, ascending — the updates the index layer must re-apply
	// to its in-memory state.
	replayed []Update

	// cellMu guards the recorded cell-range assignment (the optional
	// "cells A B" MANIFEST line, see RecordCellRange).
	cellMu   sync.Mutex
	cellLo   uint32
	cellHi   uint32
	hasCells bool
}

// storeShard pairs one B+-tree with the mutex that serializes access to
// it (the tree's page cache is single-threaded), plus the shard's
// memtable under the same mutex and its WAL under a mutex of its own, so
// a WAL append or reset never blocks a read of the shard. Shards never
// take each other's locks, so operations on different shards proceed
// concurrently. walMu is a leaf: nothing is locked while it is held.
type storeShard struct {
	mu   sync.Mutex
	tree *btree.Tree
	mem  *memtable

	walMu sync.Mutex
	wal   *btree.WAL
}

// ShardedOptions configures CreateShardedStore (and, minus Shards, the
// open paths).
type ShardedOptions struct {
	// Shards is the number of B+-tree shards; <= 0 means GOMAXPROCS.
	// Ignored on open: the MANIFEST records the real layout.
	Shards int
	// CachePages caps each shard's page cache (0 = btree default).
	CachePages int
	// NoSync disables the per-shard fsync discipline (btree.Options.NoSync)
	// for bulk index builds; a crash may then corrupt the store.
	NoSync bool
}

const (
	manifestName  = "MANIFEST"
	manifestMagic = "lcmsr-sharded-store v1"
	partitionName = "cell-mod" // shard(key) = key.Cell mod shards
	// maxShards bounds the shard count on create and open symmetrically,
	// so every store this package writes can be reopened.
	maxShards = 1 << 16
)

// ErrBadManifest marks a MANIFEST that is present but unreadable: wrong
// magic, malformed fields, or a checksum mismatch. It is typed so
// callers can distinguish "this is corrupt" from "this is not a store".
var ErrBadManifest = errors.New("grid: bad sharded store manifest")

func shardFileName(i int) string { return fmt.Sprintf("shard-%04d.bt", i) }
func walFileName(i int) string   { return fmt.Sprintf("wal-%04d.log", i) }

func manifestBytes(n int) []byte {
	body := fmt.Sprintf("%s\nshards %d\npartition %s\n", manifestMagic, n, partitionName)
	return []byte(body + fmt.Sprintf("crc %08x\n", btree.Checksum([]byte(body))))
}

// manifestBytesCells is manifestBytes plus the optional "cells A B" line
// recording the store's cell-range assignment [A, B) in a cluster split.
// The line sits inside the checksummed body, so a tampered assignment is
// rejected the same way a tampered shard count is.
func manifestBytesCells(n int, lo, hi uint32) []byte {
	body := fmt.Sprintf("%s\nshards %d\npartition %s\ncells %d %d\n", manifestMagic, n, partitionName, lo, hi)
	return []byte(body + fmt.Sprintf("crc %08x\n", btree.Checksum([]byte(body))))
}

// CreateShardedStore creates a fresh sharded store in dir (creating the
// directory if needed). It refuses to overwrite an existing store — a
// populated store is a build product worth hours of indexing, so
// clobbering it must be an explicit `rm`, not a side effect; open one
// with OpenShardedStore instead. The MANIFEST header is written last, so
// a creation that fails partway (disk full, lock conflict) never leaves
// a valid-looking manifest over missing shards.
func CreateShardedStore(dir string, opts ShardedOptions) (*ShardedStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("grid: sharded store: %w", err)
	}
	return createShardedFS(osFS{dir: dir}, dir, opts)
}

// CreateShardedStoreOn is CreateShardedStore over an iofault Switchboard —
// the crash suites' entry point: every file of the store shares the
// board's fault plan and kill-point counters.
func CreateShardedStoreOn(sb *iofault.Switchboard, opts ShardedOptions) (*ShardedStore, error) {
	return createShardedFS(memFS{sb: sb}, "(mem)", opts)
}

func createShardedFS(fs storeFS, label string, opts ShardedOptions) (*ShardedStore, error) {
	n := opts.Shards
	if n <= 0 {
		n = defaultShards()
	}
	if n > maxShards {
		return nil, fmt.Errorf("grid: shard count %d exceeds the maximum %d", n, maxShards)
	}
	if fs.Exists(manifestName) {
		return nil, fmt.Errorf("grid: %s already holds a sharded store; delete it or open it with OpenShardedStore", label)
	}
	s := &ShardedStore{dir: label, fs: fs, noSync: opts.NoSync, cache: opts.CachePages, shards: make([]storeShard, n)}
	for i := range s.shards {
		t, err := fs.CreateTree(shardFileName(i), btree.Options{CachePages: opts.CachePages, NoSync: opts.NoSync})
		if err != nil {
			_ = s.Close()
			return nil, err
		}
		s.shards[i].tree = t
		f, err := fs.OpenFile(walFileName(i))
		if err != nil {
			_ = s.Close()
			return nil, err
		}
		w, err := btree.OpenWAL(f, opts.NoSync, nil)
		if err != nil {
			_ = s.Close()
			return nil, fmt.Errorf("grid: create wal %s: %w", fs.Path(walFileName(i)), err)
		}
		s.shards[i].wal = w
		s.shards[i].mem = newMemtable()
	}
	if err := fs.WriteFile(manifestName, manifestBytes(n), !opts.NoSync); err != nil {
		_ = s.Close()
		return nil, fmt.Errorf("grid: sharded store manifest: %w", err)
	}
	return s, nil
}

// OpenShardedStore opens a store previously written by CreateShardedStore,
// reconstructing the shard layout from the MANIFEST header and replaying
// each shard's WAL into its memtable. opts.Shards is ignored: the MANIFEST
// records the real layout. The per-shard trees are opened concurrently —
// each takes its own file lock.
//
// A regular file at dir is a single-file store from before stores were
// directories. It is refused, untouched, with an error naming the move
// that turns it into a one-shard store: the tree becomes shard 0 and a
// three-line pre-checksum MANIFEST describes it (the open then upgrades
// the header and creates the WAL).
func OpenShardedStore(dir string, opts ShardedOptions) (*ShardedStore, error) {
	if fi, err := os.Stat(dir); err == nil && !fi.IsDir() {
		return nil, fmt.Errorf("grid: %s is a single-file posting store; to open it, move it to DIR/%s, write DIR/%s holding the lines %q, %q and %q, and open DIR",
			dir, shardFileName(0), manifestName, manifestMagic, "shards 1", "partition "+partitionName)
	}
	return openShardedFS(osFS{dir: dir}, dir, opts)
}

// OpenShardedStoreOn opens a board-backed store written by
// CreateShardedStoreOn — the crash suites' recovery path.
func OpenShardedStoreOn(sb *iofault.Switchboard, opts ShardedOptions) (*ShardedStore, error) {
	return openShardedFS(memFS{sb: sb}, "(mem)", opts)
}

func openShardedFS(fs storeFS, label string, opts ShardedOptions) (*ShardedStore, error) {
	raw, err := fs.ReadFile(manifestName)
	if err != nil {
		return nil, fmt.Errorf("grid: sharded store manifest: %w", err)
	}
	mi, err := parseManifest(raw, label)
	if err != nil {
		return nil, err
	}
	n := mi.shards
	if mi.legacy {
		// Pre-checksum manifest (three lines, no crc): upgrade in place so
		// the layout header is protected from here on. The rewrite is
		// byte-stable — reopening an upgraded store never rewrites again.
		if err := fs.WriteFile(manifestName, manifestBytes(n), !opts.NoSync); err != nil {
			return nil, fmt.Errorf("grid: upgrade manifest: %w", err)
		}
	}
	s := &ShardedStore{dir: label, fs: fs, noSync: opts.NoSync, cache: opts.CachePages, shards: make([]storeShard, n)}
	s.hasCells, s.cellLo, s.cellHi = mi.hasCells, mi.cellLo, mi.cellHi
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range s.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t, err := fs.OpenTree(shardFileName(i), btree.Options{CachePages: opts.CachePages, NoSync: opts.NoSync})
			if err != nil {
				errs[i] = err
				return
			}
			s.shards[i].tree = t
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			_ = s.Close()
			return nil, err
		}
	}
	if err := s.loadMeta(); err != nil {
		_ = s.Close()
		return nil, err
	}
	if err := s.openWALs(); err != nil {
		_ = s.Close()
		return nil, err
	}
	return s, nil
}

// manifestInfo is the decoded MANIFEST header: the shard layout, the
// optional cell-range assignment, and whether the image is the legacy
// three-line (checksum-free) format.
type manifestInfo struct {
	shards   int
	legacy   bool
	hasCells bool
	cellLo   uint32
	cellHi   uint32
}

// parseManifest validates a MANIFEST image. Accepted shapes: legacy
// 3-line (magic/shards/partition), 4-line (plus crc), and 5-line (plus
// "cells A B" before the crc).
func parseManifest(raw []byte, label string) (manifestInfo, error) {
	var mi manifestInfo
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 3 || len(lines) > 5 {
		return mi, fmt.Errorf("%w: %s has %d header lines", ErrBadManifest, label, len(lines))
	}
	if lines[0] != manifestMagic {
		return mi, fmt.Errorf("%w: %s is not a sharded store (magic %q)", ErrBadManifest, label, lines[0])
	}
	if len(lines) >= 4 {
		body := strings.Join(lines[:len(lines)-1], "\n") + "\n"
		if lines[len(lines)-1] != fmt.Sprintf("crc %08x", btree.Checksum([]byte(body))) {
			return mi, fmt.Errorf("%w: checksum mismatch in %s (%q)", ErrBadManifest, label, lines[len(lines)-1])
		}
	}
	n, err := strconv.Atoi(strings.TrimPrefix(lines[1], "shards "))
	if err != nil || n <= 0 || n > maxShards {
		return mi, fmt.Errorf("%w: implausible shard count %q in %s", ErrBadManifest, lines[1], label)
	}
	if p := strings.TrimPrefix(lines[2], "partition "); p != partitionName {
		return mi, fmt.Errorf("%w: unknown shard partition %q in %s", ErrBadManifest, p, label)
	}
	if len(lines) == 5 {
		var lo, hi uint32
		if _, err := fmt.Sscanf(lines[3], "cells %d %d", &lo, &hi); err != nil || lo >= hi {
			return mi, fmt.Errorf("%w: bad cell range %q in %s", ErrBadManifest, lines[3], label)
		}
		mi.hasCells, mi.cellLo, mi.cellHi = true, lo, hi
	}
	mi.shards = n
	mi.legacy = len(lines) == 3
	return mi, nil
}

// openWALs opens every shard's log (creating empty ones on a store
// written before WALs existed), replays intact records into the shard
// memtables, and rebuilds the global update order. Records at or below
// the meta high-water mark still enter the memtable — their tree effects
// may or may not be flushed, and re-overlaying them is idempotent because
// updates carry absolute weights.
func (s *ShardedStore) openWALs() error {
	var all []Update
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mem = newMemtable()
		f, err := s.fs.OpenFile(walFileName(i))
		if err != nil {
			return err
		}
		var shardUpdates []Update
		w, err := btree.OpenWAL(f, s.noSync, func(payload []byte) error {
			u, err := decodeUpdate(payload)
			if err != nil {
				return err
			}
			shardUpdates = append(shardUpdates, u)
			return nil
		})
		if err != nil {
			return fmt.Errorf("grid: replay wal %s: %w", s.fs.Path(walFileName(i)), err)
		}
		sh.wal = w
		for j := range shardUpdates {
			sh.mem.apply(&shardUpdates[j])
		}
		all = append(all, shardUpdates...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Seq < all[j].Seq })
	last := s.metaLastOp
	if len(all) > 0 && all[len(all)-1].Seq > last {
		last = all[len(all)-1].Seq
	}
	s.seq.Store(last)
	for i, u := range all {
		if u.Seq > s.metaLastOp {
			s.replayed = append([]Update(nil), all[i:]...)
			break
		}
	}
	return nil
}

// NumShards returns the number of B+-tree shards.
func (s *ShardedStore) NumShards() int { return len(s.shards) }

// ShardOf returns the shard owning key.
func (s *ShardedStore) ShardOf(key CellKey) int {
	return int(key.Cell % uint32(len(s.shards)))
}

// RecordCellRange records in the MANIFEST that this store holds exactly
// the cells with id in [lo, hi) of a cluster split, rewriting the header
// with the assignment inside its checksum. A node opening the store later
// reads the range back with CellRange and refuses to serve a different
// assignment — the manifest, not the command line, is the authority on
// who owns which cells.
func (s *ShardedStore) RecordCellRange(lo, hi uint32) error {
	if lo >= hi {
		return fmt.Errorf("grid: invalid cell range [%d, %d)", lo, hi)
	}
	s.cellMu.Lock()
	defer s.cellMu.Unlock()
	if err := s.fs.WriteFile(manifestName, manifestBytesCells(len(s.shards), lo, hi), !s.noSync); err != nil {
		return fmt.Errorf("grid: record cell range: %w", err)
	}
	s.hasCells, s.cellLo, s.cellHi = true, lo, hi
	return nil
}

// CellRange returns the cell-range assignment recorded in the MANIFEST,
// if any. ok is false for stores that were never part of a cluster split.
func (s *ShardedStore) CellRange() (lo, hi uint32, ok bool) {
	s.cellMu.Lock()
	defer s.cellMu.Unlock()
	return s.cellLo, s.cellHi, s.hasCells
}

// errStoreClosed is returned by operations on a closed sharded store
// (Close nils the shard trees).
var errStoreClosed = fmt.Errorf("grid: sharded store is closed")

// Append implements Store. The owning shard's lock is held across the
// whole read-merge-write, so concurrent Appends to one key serialize
// instead of losing postings; Appends to keys on different shards do not
// block each other. Append writes the tree directly, bypassing the WAL —
// it is the bulk-build path (the batch is re-runnable, so it does not
// need the log), not the live-update path.
func (s *ShardedStore) Append(key CellKey, ps []Posting) error {
	sh := &s.shards[s.ShardOf(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.tree == nil {
		return errStoreClosed
	}
	return appendLocked(sh.tree, key, ps)
}

// Postings implements Store, blocking only callers that need the same
// shard. The result is the shard tree's list with the memtable's pending
// entries merged over it; when the memtable has nothing for the key —
// the common case on a compacted store — the tree's list is returned
// as-is, on the same code path (and with the same zero-allocation served
// read) as before updates existed.
func (s *ShardedStore) Postings(key CellKey) ([]Posting, error) {
	sh := &s.shards[s.ShardOf(key)]
	sh.mu.Lock()
	if sh.tree == nil {
		sh.mu.Unlock()
		return nil, errStoreClosed
	}
	raw, err := sh.tree.Get(key.Uint64())
	if err == btree.ErrNotFound {
		raw, err = nil, nil
	}
	if err != nil {
		sh.mu.Unlock()
		return nil, err
	}
	over := sh.mem.overrides(key)
	if over == nil {
		sh.mu.Unlock()
		if raw == nil {
			return nil, nil
		}
		ps, err := DecodePostings(raw)
		if err != nil {
			return nil, fmt.Errorf("grid: decode postings for cell %d term %d: %w", key.Cell, key.Term, err)
		}
		return ps, nil
	}
	// Slow path: hold the shard lock through the merge — the override map
	// belongs to the memtable and a concurrent update may grow it.
	defer sh.mu.Unlock()
	ps, err := DecodePostings(raw)
	if err != nil {
		return nil, fmt.Errorf("grid: decode postings for cell %d term %d: %w", key.Cell, key.Term, err)
	}
	return mergePostings(ps, over), nil
}

// CacheStats aggregates the page-cache counters of every shard. On a
// closed store it returns zeros, so a late call (an end-of-run stats
// print) is harmless.
func (s *ShardedStore) CacheStats() btree.CacheStats {
	var agg btree.CacheStats
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		if sh.tree != nil {
			agg.Add(sh.tree.CacheStats())
		}
		sh.mu.Unlock()
	}
	return agg
}

// Close closes every shard tree and WAL. It does NOT flush memtables or
// commit meta — that is Index.CloseStore's job, which sequences flush,
// meta commit and WAL truncation; closing the store directly after
// updates simply leaves the WAL to be replayed on the next open. Every
// shard is closed even when some fail, and the returned error aggregates
// all failures (errors.Join) — a flush error on shard 3 must not hide
// one on shard 7, and callers checking errors.Is still match any of them.
func (s *ShardedStore) Close() error {
	var errs []error
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		if sh.tree != nil {
			if err := sh.tree.Close(); err != nil {
				errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
			}
			sh.tree = nil
		}
		sh.mu.Unlock()
		sh.walMu.Lock()
		if sh.wal != nil {
			if err := sh.wal.Close(); err != nil {
				errs = append(errs, fmt.Errorf("shard %d wal: %w", i, err))
			}
			sh.wal = nil
		}
		sh.walMu.Unlock()
	}
	return errors.Join(errs...)
}

// appendLocked is ShardedStore.Append's read-merge-write; the caller must
// hold the shard's lock. Postings are fixed-width records, so merging is
// raw-byte concatenation — no decode.
func appendLocked(t *btree.Tree, key CellKey, ps []Posting) error {
	raw, err := t.Get(key.Uint64())
	if err == btree.ErrNotFound {
		raw = nil
	} else if err != nil {
		return err
	}
	return t.Put(key.Uint64(), append(raw, EncodePostings(ps)...))
}

// RemoveStore deletes a closed sharded store: the MANIFEST, shard, WAL
// and meta files only (the directory itself and any foreign files in it
// are left alone). It refuses paths that do not hold a store, so a caller
// cleaning up after a failed build cannot delete unrelated data.
func RemoveStore(dir string) error {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil || !strings.HasPrefix(string(raw), manifestMagic) {
		return fmt.Errorf("grid: %s is not a sharded store; refusing to remove it", dir)
	}
	for _, pattern := range []string{"shard-*.bt", "wal-*.log", "META.*"} {
		files, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			return err
		}
		for _, f := range files {
			if err := os.Remove(f); err != nil {
				return err
			}
		}
	}
	return os.Remove(filepath.Join(dir, manifestName))
}
