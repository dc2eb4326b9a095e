package grid

import (
	"encoding/binary"
	"fmt"
	"runtime"

	"repro/internal/btree"
)

// Live-update surface of the sharded store: the WAL + memtable write
// path and the compaction protocol. The protocol's invariant is that at
// every write boundary the durable state is recoverable:
//
//  1. Flush: merge each shard's memtable into its tree (Put, or Delete
//     when a list empties) and Sync the tree. A crash mid-flush leaves
//     some trees new and some old — sound, because the WAL still holds
//     every record and re-overlaying absolute-weight records over an
//     already-flushed tree is idempotent.
//  2. CommitMeta: write the index meta into the next META.N slot
//     (double-slot, newest-valid-wins). A torn slot write destroys only
//     the slot being written; the other slot plus the untruncated WAL
//     still describe a consistent state.
//  3. TruncateWALs: only after the meta slot is durable. A crash before
//     truncation replays records the meta already covers — idempotent
//     again; a crash after truncation loses nothing because the meta
//     covers every truncated record.
//
// The Index layer (live.go) drives the three steps in that order and
// owns everything above the postings: cell directory, object table,
// vocabulary blob.

func defaultShards() int { return runtime.GOMAXPROCS(0) }

// liveStore is the store surface the Index's mutation path dispatches
// on; *ShardedStore implements it.
type liveStore interface {
	Store
	logUpdate(u *Update) error
	applyLogged(u *Update)
	Flush() error
	CommitMeta(body []byte) error
	TruncateWALs() error
	ReplayedUpdates() []Update
	MetaSnapshot() (body []byte, lastOp uint64, ok bool)
}

// logUpdate assigns the update its global sequence number and appends it
// to the owning shard's WAL (one record, one write, one fsync). It holds
// only the shard's WAL mutex, never the shard mutex readers take, so a
// search keeps reading the shard while the record syncs. The record is
// the unit of atomicity: an object lives in one cell, one cell lives on
// one shard, so a logical mutation is never split across logs.
func (s *ShardedStore) logUpdate(u *Update) error {
	u.Seq = s.seq.Add(1)
	sh := &s.shards[s.ShardOf(CellKey{Cell: u.Cell})]
	sh.walMu.Lock()
	defer sh.walMu.Unlock()
	if sh.wal == nil {
		return errStoreClosed
	}
	if err := sh.wal.Append(encodeUpdate(u)); err != nil {
		// Never applied: an unacknowledged record must not be served.
		// The sequence number is consumed; gaps are harmless (ordering
		// is all that matters).
		return fmt.Errorf("grid: wal append: %w", err)
	}
	return nil
}

// applyLogged folds a logged update into its shard's memtable, making it
// visible to reads.
func (s *ShardedStore) applyLogged(u *Update) {
	sh := &s.shards[s.ShardOf(CellKey{Cell: u.Cell})]
	sh.mu.Lock()
	sh.mem.apply(u)
	sh.mu.Unlock()
}

// Flush merges every shard's memtable into its tree and makes the trees
// durable. Shards flush serially in shard order and keys in sorted order,
// so the write sequence — and therefore every crash kill point — is
// deterministic for a given store state. Each shard is locked only for
// its own merge and tree sync: a concurrent read sees the tree with the
// memtable over it or the flushed tree, one logical state either way.
func (s *ShardedStore) Flush() error {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		if sh.tree == nil {
			sh.mu.Unlock()
			return errStoreClosed
		}
		err := flushShardLocked(sh)
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("grid: flush shard %d: %w", i, err)
		}
	}
	return nil
}

// flushShardLocked folds the memtable into the tree and commits the tree
// durably. It syncs even with an empty memtable — the genesis commit
// after a batch build relies on that to make the build's Appends durable.
func flushShardLocked(sh *storeShard) error {
	for _, key := range sh.mem.dirtyKeys() {
		raw, err := sh.tree.Get(key.Uint64())
		if err == btree.ErrNotFound {
			raw = nil
		} else if err != nil {
			return err
		}
		base, err := DecodePostings(raw)
		if err != nil {
			return err
		}
		merged := mergePostings(base, sh.mem.entries[key])
		if len(merged) == 0 {
			// Every posting deleted: drop the key. ErrNotFound is fine —
			// the key may never have reached the tree.
			if err := sh.tree.Delete(key.Uint64()); err != nil && err != btree.ErrNotFound {
				return err
			}
		} else if err := sh.tree.Put(key.Uint64(), EncodePostings(merged)); err != nil {
			return err
		}
	}
	if err := sh.tree.Sync(); err != nil {
		return err
	}
	sh.mem.clear()
	return nil
}

// --- meta slots ---
//
// The index meta commits into two alternating slot files, META.0 and
// META.1 (slot = commit counter mod 2), each a self-validating envelope:
//
//	magic "LCMSRMT1" | commit u64 | lastOp u64 | bodyLen u32 | body | crc u32
//
// crc is btree.Checksum (CRC32-C) over everything before it. Open reads
// both slots and keeps the valid one with the highest commit counter —
// the same newest-valid-wins discipline as the B+-tree header slots.

const metaSlotMagic = "LCMSRMT1"

func metaSlotName(commit uint64) string { return fmt.Sprintf("META.%d", commit%2) }

func encodeMetaSlot(commit, lastOp uint64, body []byte) []byte {
	out := make([]byte, 0, len(metaSlotMagic)+8+8+4+len(body)+4)
	out = append(out, metaSlotMagic...)
	out = binary.LittleEndian.AppendUint64(out, commit)
	out = binary.LittleEndian.AppendUint64(out, lastOp)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
	out = append(out, body...)
	return binary.LittleEndian.AppendUint32(out, btree.Checksum(out))
}

// decodeMetaSlot validates a slot image; ok is false for any damage (a
// torn slot is indistinguishable from garbage by design — the other slot
// carries the store).
func decodeMetaSlot(b []byte) (commit, lastOp uint64, body []byte, ok bool) {
	head := len(metaSlotMagic) + 8 + 8 + 4
	if len(b) < head+4 || string(b[:len(metaSlotMagic)]) != metaSlotMagic {
		return 0, 0, nil, false
	}
	commit = binary.LittleEndian.Uint64(b[8:])
	lastOp = binary.LittleEndian.Uint64(b[16:])
	n := binary.LittleEndian.Uint32(b[24:])
	if uint64(len(b)) != uint64(head)+uint64(n)+4 {
		return 0, 0, nil, false
	}
	if binary.LittleEndian.Uint32(b[len(b)-4:]) != btree.Checksum(b[:len(b)-4]) {
		return 0, 0, nil, false
	}
	return commit, lastOp, b[head : head+int(n)], true
}

// loadMeta reads both slots at open and keeps the newest valid one.
func (s *ShardedStore) loadMeta() error {
	for _, name := range []string{"META.0", "META.1"} {
		if !s.fs.Exists(name) {
			continue
		}
		raw, err := s.fs.ReadFile(name)
		if err != nil {
			return fmt.Errorf("grid: read %s: %w", s.fs.Path(name), err)
		}
		commit, lastOp, body, ok := decodeMetaSlot(raw)
		if !ok {
			continue // torn or corrupt slot; the other one carries the store
		}
		if !s.metaLoaded || commit > s.metaSeq {
			s.metaSeq, s.metaLastOp, s.metaLoaded = commit, lastOp, true
			s.metaBody = append([]byte(nil), body...)
		}
	}
	return nil
}

// CommitMeta writes body into the next meta slot and makes it durable.
// The caller (Index.Compact) must have Flushed first: a slot's lastOp
// asserts that every update at or below it is covered by the trees plus
// the (not yet truncated) WAL.
func (s *ShardedStore) CommitMeta(body []byte) error {
	s.metaMu.Lock()
	defer s.metaMu.Unlock()
	commit := s.metaSeq + 1
	lastOp := s.seq.Load()
	env := encodeMetaSlot(commit, lastOp, body)
	name := metaSlotName(commit)
	if err := s.fs.WriteFile(name, env, !s.noSync); err != nil {
		return fmt.Errorf("grid: commit meta %s: %w", s.fs.Path(name), err)
	}
	s.metaSeq, s.metaLastOp, s.metaLoaded = commit, lastOp, true
	s.metaBody = append([]byte(nil), body...)
	return nil
}

// TruncateWALs resets every shard's log under its WAL mutex, leaving the
// shard mutex to readers. Only call after CommitMeta succeeded —
// truncating first would lose the records that advance the durable trees
// past the last committed meta.
func (s *ShardedStore) TruncateWALs() error {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.walMu.Lock()
		var err error
		if sh.wal != nil {
			err = sh.wal.Reset()
		}
		sh.walMu.Unlock()
		if err != nil {
			return fmt.Errorf("grid: truncate wal %d: %w", i, err)
		}
	}
	return nil
}

// ReplayedUpdates returns the WAL records found at open with sequence
// numbers above the meta high-water mark, in sequence order — the
// updates the index layer re-applies to its in-memory state. The slice
// is owned by the store; callers must not mutate it.
func (s *ShardedStore) ReplayedUpdates() []Update { return s.replayed }

// MetaSnapshot returns the newest committed meta body and its high-water
// mark; ok is false when the store has never committed meta (a store
// closed before its first compaction).
func (s *ShardedStore) MetaSnapshot() (body []byte, lastOp uint64, ok bool) {
	s.metaMu.Lock()
	defer s.metaMu.Unlock()
	return s.metaBody, s.metaLastOp, s.metaLoaded
}
