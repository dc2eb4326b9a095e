package btree

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/iofault"
)

// WAL is an append-only write-ahead log of opaque records, the durability
// front for the live-update path of the sharded posting store: an update
// is acknowledged only after its record is on the log, so the volatile
// memtable layered over the B+-trees can always be rebuilt by replay.
//
// The segment format reuses the tree's checksum discipline (Checksum,
// CRC32-C): each record is framed as
//
//	[4B payload length LE] [4B CRC32-C of payload LE] [payload]
//
// and records are written back to back. A record is written with a single
// WriteAt followed by one Sync (unless noSync), so a crash can tear at
// most the final record; replay stops at the first frame whose length or
// checksum does not verify — by construction that frame was never
// acknowledged, so stopping loses nothing that was promised durable.
//
// A WAL is not safe for concurrent use; its owner serializes Append,
// Reset and Close.
type WAL struct {
	f      iofault.File
	off    int64
	noSync bool
	// frame is the record buffer Append reuses, so an append allocates
	// nothing once it has seen its largest record.
	frame []byte
}

// maxWALRecord bounds a single record so a torn or garbage length field
// cannot make replay attempt a multi-gigabyte read. One record holds one
// object update (a handful of terms), so 64 MiB is far beyond legitimate.
const maxWALRecord = 64 << 20

// walHeaderLen is the per-record frame header: length + checksum.
const walHeaderLen = 8

// OpenWAL opens (or starts) a write-ahead log over f, replaying every
// intact record through replay in append order. The log is positioned
// after the last intact record and truncated there, discarding a torn
// tail — bytes past the first invalid frame were never acknowledged to
// any caller. A non-nil error from replay aborts the open and is returned
// wrapped (it typically marks a corrupt but checksum-valid record, which
// unlike a torn tail is a real consistency failure).
func OpenWAL(f iofault.File, noSync bool, replay func(payload []byte) error) (*WAL, error) {
	off, err := replayWAL(f, replay)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(off); err != nil {
		return nil, fmt.Errorf("btree: wal truncate: %w", err)
	}
	return &WAL{f: f, off: off, noSync: noSync}, nil
}

// replayWAL scans the log from the start, calling replay for every intact
// record, and returns the offset just past the last one. Torn frames
// (short header, implausible length, short payload, checksum mismatch)
// end the scan without error.
func replayWAL(f iofault.File, replay func(payload []byte) error) (int64, error) {
	var off int64
	var hdr [walHeaderLen]byte
	for {
		if _, err := f.ReadAt(hdr[:], off); err != nil {
			return off, nil // short header: clean end or torn tail
		}
		n := binary.LittleEndian.Uint32(hdr[0:])
		crc := binary.LittleEndian.Uint32(hdr[4:])
		if n > maxWALRecord {
			return off, nil // implausible length: torn frame
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(io.NewSectionReader(f, off+walHeaderLen, int64(n)), payload); err != nil {
			return off, nil // short payload: torn tail
		}
		if Checksum(payload) != crc {
			return off, nil // checksum mismatch: torn frame
		}
		if replay != nil {
			if err := replay(payload); err != nil {
				return off, fmt.Errorf("btree: wal replay at offset %d: %w", off, err)
			}
		}
		off += walHeaderLen + int64(n)
	}
}

// Append writes one record and, unless the log runs NoSync, makes it
// durable before returning. The frame is a single WriteAt, so a crash
// mid-append leaves a tail that replay discards whole.
func (w *WAL) Append(payload []byte) error {
	if len(payload) > maxWALRecord {
		return fmt.Errorf("btree: wal record of %d bytes exceeds the %d limit", len(payload), maxWALRecord)
	}
	frame := binary.LittleEndian.AppendUint32(w.frame[:0], uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, Checksum(payload))
	frame = append(frame, payload...)
	w.frame = frame
	if _, err := w.f.WriteAt(frame, w.off); err != nil {
		return fmt.Errorf("btree: wal append: %w", err)
	}
	w.off += int64(len(frame))
	return w.Sync()
}

// Sync makes every appended record durable (a no-op under NoSync).
func (w *WAL) Sync() error {
	if w.noSync {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("btree: wal sync: %w", err)
	}
	return nil
}

// Reset discards every record — the caller has flushed their effects to a
// durable home (tree pages plus a committed meta slot) and the log must
// not replay them onto a future state. The truncation is synced (unless
// NoSync) so a crash cannot resurrect the old records.
func (w *WAL) Reset() error {
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("btree: wal reset: %w", err)
	}
	w.off = 0
	return w.Sync()
}

// Close releases the underlying file without an implicit sync: callers
// that need durability sync through Append/Reset already.
func (w *WAL) Close() error {
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("btree: wal close: %w", err)
	}
	return nil
}
