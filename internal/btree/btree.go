// Package btree implements the disk-based B+-tree of §3 of the paper, used
// to index the per-grid-cell inverted lists: "The inverted lists may not
// fit in memory, and we use a disk-based B+-tree to index them for each
// grid cell."
//
// Keys are uint64 (the grid package composes cellID<<32 | termID) and
// values are opaque byte slices (encoded posting lists). The tree is a
// classic page-based B+-tree: fixed-size pages, size-based node splits,
// values larger than an inline threshold spill to overflow page chains,
// and an in-memory page cache with write-back on eviction/sync. A freed
// overflow chain is recycled through a free list threaded through the
// header, so repeated updates do not grow the file unboundedly.
//
// # Durability (format v2)
//
// Files written by Create use format v2 ("LCMSRBK2"): every page carries a
// CRC32-C trailer in its last 4 bytes, and the header is double-slot —
// pages 0 and 1 alternate as commit targets (slot = seq mod 2), each
// stamped with a monotonically increasing sequence number and a checksum,
// and Open picks the newest valid slot. A crash that tears the in-flight
// header therefore falls back to the previous committed header instead of
// losing the tree. Sync orders its writes for crash safety: dirty pages,
// fsync, header slot, fsync — so a committed header never points at pages
// the disk has not durably absorbed. Freed pages are quarantined until the
// commit that stops referencing them is durable, so a crash can never
// resurface a recycled page under the older header. Open still reads v1
// files ("LCMSRBK1": single header page, no checksums) and serves them in
// their original format. Options.NoSync skips every fsync for bulk loads
// and benchmarks, trading crash safety for speed.
package btree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/iofault"
)

const (
	// PageSize is the on-disk page size in bytes.
	PageSize = 4096

	magicV1       = 0x4C434D5352424B31 // "LCMSRBK1": single header, no checksums
	magicV2       = 0x4C434D5352424B32 // "LCMSRBK2": CRC32-C trailers, double-slot header
	trailerLen    = 4                  // CRC32-C over buf[:PageSize-trailerLen], v2 pages only
	pageHeaderLen = 3                  // 1 byte type + 2 bytes nkeys
	maxInline     = 1024               // values longer than this go to overflow pages

	typeLeaf     = 1
	typeInternal = 2
	typeOverflow = 3
)

// castagnoli is the CRC32-C polynomial table shared by every checksum in
// the file format (page trailers, header slots, and the store manifest).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum computes the CRC32-C of data with the same polynomial the page
// trailers use; the grid store reuses it for its manifest line.
func Checksum(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// ErrNotFound is returned by Get when the key is absent.
var ErrNotFound = errors.New("btree: key not found")

// ErrCorrupt wraps every corruption diagnosis — bad magic, checksum
// mismatch, malformed page, broken chain or link — so callers can
// recognize damage with errors.Is and distinguish it from transient I/O
// failures.
var ErrCorrupt = errors.New("btree: corrupt page")

type leafEntry struct {
	key     uint64
	val     []byte // inline value; nil when stored in an overflow chain
	ovfPage uint64 // first overflow page, 0 when inline
	ovfLen  uint32 // total overflow value length
}

type node struct {
	id    uint64
	leaf  bool
	dirty bool
	// Leaf payload.
	entries []leafEntry
	// Internal payload: len(children) == len(keys)+1; subtree children[i]
	// holds keys < keys[i]; children[len] holds keys >= keys[len-1].
	keys     []uint64
	children []uint64
}

// Tree is a disk-backed B+-tree. It is not safe for concurrent use; when
// opened by path the file is held under an exclusive advisory lock while
// the Tree is open, so a second Create/Open of the same path (from this or
// another process) fails instead of corrupting the shared page cache.
type Tree struct {
	file     iofault.File
	osf      *os.File // non-nil only for path-opened trees (advisory lock holder)
	version  int      // 1 = legacy, 2 = checksummed double-header
	noSync   bool
	seq      uint64 // v2 header commit sequence; slot = seq mod 2
	root     uint64
	numPages uint64
	freeHead uint64 // head of the allocatable freed-page list (0 = none)
	count    uint64 // number of stored keys

	// pendingFree holds pages freed since the last durable header commit.
	// They must not be reallocated before that commit: the previous header
	// still references them, and recycling one early would let a crash
	// recover an older header whose pages now hold foreign (but
	// internally valid) content — a silent wrong answer no checksum can
	// catch. Sync graduates them onto the free list after the commit
	// fsync.
	pendingFree []uint64

	cache    map[uint64]*node
	cacheCap int
	clock    []uint64 // FIFO eviction order
	stats    CacheStats
}

// CacheStats counts page-cache traffic on one Tree since it was opened.
type CacheStats struct {
	// Hits is the number of loadNode calls served from the cache.
	Hits uint64
	// Misses is the number of loadNode calls that read a page from disk.
	Misses uint64
	// Evictions is the number of pages dropped to stay under the cap.
	Evictions uint64
	// Resident is the number of decoded pages currently cached.
	Resident int
}

// Add accumulates other into s (for aggregating per-shard trees).
func (s *CacheStats) Add(other CacheStats) {
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.Evictions += other.Evictions
	s.Resident += other.Resident
}

// CacheStats returns the tree's page-cache counters.
func (t *Tree) CacheStats() CacheStats {
	st := t.stats
	st.Resident = len(t.cache)
	return st
}

// Options configures tree creation.
type Options struct {
	// CachePages caps the number of decoded pages kept in memory.
	// Zero means a default of 256 pages (1 MiB).
	CachePages int
	// NoSync skips every fsync (page flush, header commit, directory
	// entry). Bulk loads and benchmarks get back the pre-durability write
	// speed; a crash may then lose or corrupt the tree, exactly as before
	// format v2.
	NoSync bool
}

// Create creates a new empty v2 tree at path, truncating any existing
// file. The file is locked first and truncated only after the lock is
// acquired, so Create on a path another Tree holds open fails without
// destroying that tree's data. Unless opts.NoSync is set the parent
// directory is fsynced so the new file's directory entry is durable.
func Create(path string, opts Options) (*Tree, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("btree: create: %w", err)
	}
	if err := lockFile(f); err != nil {
		_ = f.Close()
		return nil, err
	}
	if err := f.Truncate(0); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("btree: create: %w", err)
	}
	t, err := createOver(f, f, opts)
	if err != nil {
		unlockFile(f)
		_ = f.Close()
		return nil, err
	}
	if !opts.NoSync {
		if err := syncDir(filepath.Dir(path)); err != nil {
			_ = t.Close()
			return nil, err
		}
	}
	return t, nil
}

// CreateFile initializes a new empty v2 tree over f — typically an
// iofault.MemFile or Injector in crash tests. The caller owns f's
// lifecycle apart from the final Close, and no advisory lock is taken.
func CreateFile(f iofault.File, opts Options) (*Tree, error) {
	return createOver(f, nil, opts)
}

func createOver(f iofault.File, osf *os.File, opts Options) (*Tree, error) {
	t := newTree(f, osf, opts)
	t.version = 2
	t.numPages = 3 // two header slots + root
	t.root = 2
	t.cacheInsert(&node{id: 2, leaf: true, dirty: true})
	// Seed slot 0 with seq 0, then commit seq 1 into slot 1: a freshly
	// created tree has two valid header slots from the start.
	if err := t.writeHeader(); err != nil {
		return nil, err
	}
	if err := t.Sync(); err != nil {
		return nil, err
	}
	return t, nil
}

// Open opens an existing tree created by Create (either format version).
// It fails when another Tree (in this or any other process) already holds
// the file open. On a v2 file with one torn or corrupt header slot, Open
// recovers from the other (older but valid) slot.
func Open(path string, opts Options) (*Tree, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("btree: open: %w", err)
	}
	if err := lockFile(f); err != nil {
		_ = f.Close()
		return nil, err
	}
	t := newTree(f, f, opts)
	if err := t.readHeader(); err != nil {
		unlockFile(f)
		_ = f.Close()
		return nil, err
	}
	return t, nil
}

// OpenFile opens an existing tree over f — typically a frozen post-crash
// byte image in tests. No advisory lock is taken; on error f is left open
// for the caller.
func OpenFile(f iofault.File, opts Options) (*Tree, error) {
	t := newTree(f, nil, opts)
	if err := t.readHeader(); err != nil {
		return nil, err
	}
	return t, nil
}

func newTree(f iofault.File, osf *os.File, opts Options) *Tree {
	cap := opts.CachePages
	if cap <= 0 {
		cap = 256
	}
	if cap < 8 {
		cap = 8
	}
	return &Tree{
		file:     f,
		osf:      osf,
		noSync:   opts.NoSync,
		cache:    make(map[uint64]*node, cap),
		cacheCap: cap,
	}
}

// Close flushes all dirty pages, releases the file lock and closes the
// file.
func (t *Tree) Close() error {
	syncErr := t.Sync()
	if t.osf != nil {
		unlockFile(t.osf) // closing the descriptor would release it anyway; be explicit
	}
	closeErr := t.file.Close()
	return errors.Join(syncErr, closeErr)
}

// Sync commits the tree durably: it writes all dirty pages, fsyncs them,
// writes the next header slot, and fsyncs again, so the new header never
// becomes durable before the pages it references. With Options.NoSync the
// same writes happen without the fsyncs.
func (t *Tree) Sync() error {
	for _, n := range t.cache {
		if n.dirty {
			if err := t.writeNode(n); err != nil {
				return err
			}
			n.dirty = false
		}
	}
	if err := t.syncFile(); err != nil {
		return err
	}
	if t.version >= 2 {
		t.seq++
	}
	if err := t.writeHeader(); err != nil {
		return err
	}
	if err := t.syncFile(); err != nil {
		return err
	}
	return t.graduateFree()
}

func (t *Tree) syncFile() error {
	if t.noSync {
		return nil
	}
	if err := t.file.Sync(); err != nil {
		return fmt.Errorf("btree: fsync: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so a freshly created file's entry survives a
// crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("btree: open dir for fsync: %w", err)
	}
	syncErr := d.Sync()
	closeErr := d.Close()
	if syncErr != nil {
		return fmt.Errorf("btree: fsync dir: %w", syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("btree: close dir: %w", closeErr)
	}
	return nil
}

// --- header ---
//
// v1: single header at page 0: magic, root, numPages, freeHead, count.
// v2: slots at pages 0 and 1 (slot = seq mod 2): magic, seq, root,
// numPages, freeHead, count, CRC32-C trailer. Open picks the valid slot
// with the highest seq.

func (t *Tree) writeHeader() error {
	var buf [PageSize]byte
	if t.version == 1 {
		binary.LittleEndian.PutUint64(buf[0:], magicV1)
		binary.LittleEndian.PutUint64(buf[8:], t.root)
		binary.LittleEndian.PutUint64(buf[16:], t.numPages)
		binary.LittleEndian.PutUint64(buf[24:], t.freeHead)
		binary.LittleEndian.PutUint64(buf[32:], t.count)
		if _, err := t.file.WriteAt(buf[:], 0); err != nil {
			return fmt.Errorf("btree: write header: %w", err)
		}
		return nil
	}
	binary.LittleEndian.PutUint64(buf[0:], magicV2)
	binary.LittleEndian.PutUint64(buf[8:], t.seq)
	binary.LittleEndian.PutUint64(buf[16:], t.root)
	binary.LittleEndian.PutUint64(buf[24:], t.numPages)
	binary.LittleEndian.PutUint64(buf[32:], t.freeHead)
	binary.LittleEndian.PutUint64(buf[40:], t.count)
	stampTrailer(buf[:])
	slot := t.seq % 2
	if _, err := t.file.WriteAt(buf[:], int64(slot)*PageSize); err != nil {
		return fmt.Errorf("btree: write header slot %d: %w", slot, err)
	}
	return nil
}

// headerV2 is one decoded header slot.
type headerV2 struct {
	seq, root, numPages, freeHead, count uint64
}

// parseHeaderV2 validates one slot image: magic, checksum, and field
// sanity.
func parseHeaderV2(buf []byte) (headerV2, bool) {
	var h headerV2
	if binary.LittleEndian.Uint64(buf[0:]) != magicV2 || !checkTrailer(buf) {
		return h, false
	}
	h.seq = binary.LittleEndian.Uint64(buf[8:])
	h.root = binary.LittleEndian.Uint64(buf[16:])
	h.numPages = binary.LittleEndian.Uint64(buf[24:])
	h.freeHead = binary.LittleEndian.Uint64(buf[32:])
	h.count = binary.LittleEndian.Uint64(buf[40:])
	if h.numPages < 3 || h.root < 2 || h.root >= h.numPages {
		return h, false
	}
	if h.freeHead != 0 && (h.freeHead < 2 || h.freeHead >= h.numPages) {
		return h, false
	}
	return h, true
}

func (t *Tree) readHeader() error {
	var slot0, slot1 [PageSize]byte
	err0 := readFullAt(t.file, slot0[:], 0)
	if err0 == nil && binary.LittleEndian.Uint64(slot0[0:]) == magicV1 {
		t.version = 1
		t.root = binary.LittleEndian.Uint64(slot0[8:])
		t.numPages = binary.LittleEndian.Uint64(slot0[16:])
		t.freeHead = binary.LittleEndian.Uint64(slot0[24:])
		t.count = binary.LittleEndian.Uint64(slot0[32:])
		if t.root == 0 || t.root >= t.numPages {
			return fmt.Errorf("%w: root page %d out of range", ErrCorrupt, t.root)
		}
		return nil
	}
	err1 := readFullAt(t.file, slot1[:], PageSize)
	var best headerV2
	found := false
	if err0 == nil {
		if h, ok := parseHeaderV2(slot0[:]); ok {
			best, found = h, true
		}
	}
	if err1 == nil {
		if h, ok := parseHeaderV2(slot1[:]); ok && (!found || h.seq > best.seq) {
			best, found = h, true
		}
	}
	if !found {
		// A short/failed read, bad magic or torn slot all land here; the
		// underlying read errors (if any) are preserved for diagnosis.
		return fmt.Errorf("%w: no valid header slot (slot0: %v, slot1: %v)", ErrCorrupt, err0, err1)
	}
	t.version = 2
	t.seq = best.seq
	t.root = best.root
	t.numPages = best.numPages
	t.freeHead = best.freeHead
	t.count = best.count
	return nil
}

func readFullAt(f io.ReaderAt, buf []byte, off int64) error {
	_, err := io.ReadFull(io.NewSectionReader(f, off, int64(len(buf))), buf)
	return err
}

// --- page trailers ---

func stampTrailer(buf []byte) {
	binary.LittleEndian.PutUint32(buf[PageSize-trailerLen:], crc32.Checksum(buf[:PageSize-trailerLen], castagnoli))
}

func checkTrailer(buf []byte) bool {
	return binary.LittleEndian.Uint32(buf[PageSize-trailerLen:]) == crc32.Checksum(buf[:PageSize-trailerLen], castagnoli)
}

// pageCap is the number of bytes of a page available to node payload: v2
// reserves the checksum trailer.
func (t *Tree) pageCap() int {
	if t.version >= 2 {
		return PageSize - trailerLen
	}
	return PageSize
}

// firstData is the id of the first data page (after the header page(s)).
func (t *Tree) firstData() uint64 {
	if t.version >= 2 {
		return 2
	}
	return 1
}

// --- page allocation ---

func (t *Tree) allocPage() (uint64, error) {
	if t.freeHead != 0 {
		id := t.freeHead
		next, err := t.readOverflowNext(id)
		if err != nil {
			return 0, err
		}
		t.freeHead = next
		return id, nil
	}
	id := t.numPages
	t.numPages++
	return id, nil
}

// freeChain quarantines the pages of an overflow chain. They join the
// allocatable free list only after the next header commit (see
// graduateFree): until that commit is durable the previous header still
// references them, and reusing one early would let a crash serve foreign
// page content under the old header.
func (t *Tree) freeChain(first uint64) error {
	for first != 0 {
		next, err := t.readOverflowNext(first)
		if err != nil {
			return err
		}
		t.pendingFree = append(t.pendingFree, first)
		first = next
	}
	return nil
}

// graduateFree threads the quarantined pages onto the free list. Called
// after the header commit fsync: the committed tree no longer references
// these pages, so overwriting them can no longer damage any recoverable
// state. The updated freeHead rides in the next commit; a crash before
// then merely leaks these pages (space, not correctness).
func (t *Tree) graduateFree() error {
	for _, id := range t.pendingFree {
		if err := t.writeOverflowRaw(id, t.freeHead, nil); err != nil {
			return err
		}
		t.freeHead = id
	}
	t.pendingFree = t.pendingFree[:0]
	return nil
}

// --- raw page IO ---

func (t *Tree) readPage(id uint64, buf []byte) error {
	if id < t.firstData() || id >= t.numPages {
		return fmt.Errorf("%w: page %d out of range [%d,%d)", ErrCorrupt, id, t.firstData(), t.numPages)
	}
	n, err := t.file.ReadAt(buf, int64(id)*PageSize)
	if err != nil && !(err == io.EOF && n == PageSize) {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			// A header that references pages beyond the end of the file is
			// damage (e.g. a crash before the pages landed), not I/O.
			return fmt.Errorf("%w: page %d truncated: %v", ErrCorrupt, id, err)
		}
		return fmt.Errorf("btree: read page %d: %w", id, err)
	}
	if t.version >= 2 && !checkTrailer(buf) {
		return fmt.Errorf("%w: page %d checksum mismatch", ErrCorrupt, id)
	}
	return nil
}

func (t *Tree) writePage(id uint64, buf []byte) error {
	if t.version >= 2 {
		stampTrailer(buf)
	}
	if _, err := t.file.WriteAt(buf, int64(id)*PageSize); err != nil {
		return fmt.Errorf("btree: write page %d: %w", id, err)
	}
	return nil
}

// --- overflow pages: [1B type][8B next][4B used][data...] ---

const ovfHeaderLen = 13

// ovfCap is the data capacity of one overflow page (v2 loses the trailer).
func (t *Tree) ovfCap() int { return t.pageCap() - ovfHeaderLen }

func (t *Tree) writeOverflowRaw(id, next uint64, data []byte) error {
	var buf [PageSize]byte
	buf[0] = typeOverflow
	binary.LittleEndian.PutUint64(buf[1:], next)
	binary.LittleEndian.PutUint32(buf[9:], uint32(len(data)))
	copy(buf[ovfHeaderLen:], data)
	return t.writePage(id, buf[:])
}

func (t *Tree) readOverflowNext(id uint64) (uint64, error) {
	var buf [PageSize]byte
	if err := t.readPage(id, buf[:]); err != nil {
		return 0, err
	}
	if buf[0] != typeOverflow {
		return 0, fmt.Errorf("%w: page %d is not an overflow page", ErrCorrupt, id)
	}
	return binary.LittleEndian.Uint64(buf[1:]), nil
}

func (t *Tree) writeOverflowChain(val []byte) (uint64, error) {
	// Write the chain back-to-front so each page knows its successor.
	var chunks [][]byte
	for len(val) > 0 {
		n := len(val)
		if n > t.ovfCap() {
			n = t.ovfCap()
		}
		chunks = append(chunks, val[:n])
		val = val[n:]
	}
	var next uint64
	for i := len(chunks) - 1; i >= 0; i-- {
		id, err := t.allocPage()
		if err != nil {
			return 0, err
		}
		if err := t.writeOverflowRaw(id, next, chunks[i]); err != nil {
			return 0, err
		}
		next = id
	}
	return next, nil
}

func (t *Tree) readOverflowChain(first uint64, total uint32) ([]byte, error) {
	out := make([]byte, 0, total)
	var buf [PageSize]byte
	for first != 0 {
		if err := t.readPage(first, buf[:]); err != nil {
			return nil, err
		}
		if buf[0] != typeOverflow {
			return nil, fmt.Errorf("%w: page %d in overflow chain has type %d", ErrCorrupt, first, buf[0])
		}
		used := binary.LittleEndian.Uint32(buf[9:])
		if used > uint32(t.ovfCap()) {
			return nil, fmt.Errorf("%w: overflow page %d claims %d bytes", ErrCorrupt, first, used)
		}
		out = append(out, buf[ovfHeaderLen:ovfHeaderLen+used]...)
		first = binary.LittleEndian.Uint64(buf[1:])
	}
	if uint32(len(out)) != total {
		return nil, fmt.Errorf("%w: overflow chain length %d, expected %d", ErrCorrupt, len(out), total)
	}
	return out, nil
}

// --- node encode/decode ---

func leafEntrySize(e *leafEntry) int {
	if e.ovfPage != 0 {
		return 8 + 4 + 12 // key + len marker + (page, totalLen)
	}
	return 8 + 4 + len(e.val)
}

const ovfMark = uint32(1) << 31

func encodeNode(n *node, buf []byte, limit int) error {
	for i := range buf {
		buf[i] = 0
	}
	if n.leaf {
		buf[0] = typeLeaf
		binary.LittleEndian.PutUint16(buf[1:], uint16(len(n.entries)))
		off := pageHeaderLen
		for i := range n.entries {
			e := &n.entries[i]
			binary.LittleEndian.PutUint64(buf[off:], e.key)
			off += 8
			if e.ovfPage != 0 {
				binary.LittleEndian.PutUint32(buf[off:], ovfMark|e.ovfLen)
				off += 4
				binary.LittleEndian.PutUint64(buf[off:], e.ovfPage)
				off += 8
				binary.LittleEndian.PutUint32(buf[off:], e.ovfLen)
				off += 4
			} else {
				binary.LittleEndian.PutUint32(buf[off:], uint32(len(e.val)))
				off += 4
				copy(buf[off:], e.val)
				off += len(e.val)
			}
			if off > limit {
				return fmt.Errorf("btree: leaf %d overflows page (%d bytes)", n.id, off)
			}
		}
		return nil
	}
	buf[0] = typeInternal
	binary.LittleEndian.PutUint16(buf[1:], uint16(len(n.keys)))
	off := pageHeaderLen
	binary.LittleEndian.PutUint64(buf[off:], n.children[0])
	off += 8
	for i, k := range n.keys {
		binary.LittleEndian.PutUint64(buf[off:], k)
		off += 8
		binary.LittleEndian.PutUint64(buf[off:], n.children[i+1])
		off += 8
	}
	if off > limit {
		return fmt.Errorf("btree: internal node %d overflows page", n.id)
	}
	return nil
}

func decodeNode(id uint64, buf []byte, limit int) (*node, error) {
	n := &node{id: id}
	nk := int(binary.LittleEndian.Uint16(buf[1:]))
	switch buf[0] {
	case typeLeaf:
		n.leaf = true
		off := pageHeaderLen
		n.entries = make([]leafEntry, nk)
		for i := 0; i < nk; i++ {
			if off+12 > limit {
				return nil, fmt.Errorf("%w: leaf %d truncated", ErrCorrupt, id)
			}
			e := &n.entries[i]
			e.key = binary.LittleEndian.Uint64(buf[off:])
			off += 8
			marker := binary.LittleEndian.Uint32(buf[off:])
			off += 4
			if marker&ovfMark != 0 {
				if off+12 > limit {
					return nil, fmt.Errorf("%w: leaf %d truncated overflow ref", ErrCorrupt, id)
				}
				e.ovfPage = binary.LittleEndian.Uint64(buf[off:])
				off += 8
				e.ovfLen = binary.LittleEndian.Uint32(buf[off:])
				off += 4
			} else {
				vlen := int(marker)
				if vlen < 0 || off+vlen > limit {
					return nil, fmt.Errorf("%w: leaf %d value overruns page", ErrCorrupt, id)
				}
				e.val = append([]byte(nil), buf[off:off+vlen]...)
				off += vlen
			}
		}
		return n, nil
	case typeInternal:
		off := pageHeaderLen
		need := 8 + nk*16
		if pageHeaderLen+need > limit {
			return nil, fmt.Errorf("%w: internal node %d too wide", ErrCorrupt, id)
		}
		n.children = make([]uint64, nk+1)
		n.keys = make([]uint64, nk)
		n.children[0] = binary.LittleEndian.Uint64(buf[off:])
		off += 8
		for i := 0; i < nk; i++ {
			n.keys[i] = binary.LittleEndian.Uint64(buf[off:])
			off += 8
			n.children[i+1] = binary.LittleEndian.Uint64(buf[off:])
			off += 8
		}
		return n, nil
	default:
		return nil, fmt.Errorf("%w: page %d has unexpected type %d", ErrCorrupt, id, buf[0])
	}
}

// --- cache ---

func (t *Tree) cacheInsert(n *node) {
	t.cache[n.id] = n
	t.clock = append(t.clock, n.id)
	t.evictIfNeeded()
}

func (t *Tree) evictIfNeeded() {
	for len(t.cache) > t.cacheCap && len(t.clock) > 0 {
		victim := t.clock[0]
		t.clock = t.clock[1:]
		n, ok := t.cache[victim]
		if !ok {
			continue
		}
		if n.dirty {
			if err := t.writeNode(n); err != nil {
				// Keep the page cached rather than losing data; it will be
				// retried at the next Sync.
				t.clock = append(t.clock, victim)
				return
			}
			n.dirty = false
		}
		delete(t.cache, victim)
		t.stats.Evictions++
	}
}

func (t *Tree) loadNode(id uint64) (*node, error) {
	if n, ok := t.cache[id]; ok {
		t.stats.Hits++
		return n, nil
	}
	t.stats.Misses++
	var buf [PageSize]byte
	if err := t.readPage(id, buf[:]); err != nil {
		return nil, err
	}
	n, err := decodeNode(id, buf[:], t.pageCap())
	if err != nil {
		return nil, err
	}
	t.cacheInsert(n)
	return n, nil
}

func (t *Tree) writeNode(n *node) error {
	var buf [PageSize]byte
	if err := encodeNode(n, buf[:], t.pageCap()); err != nil {
		return err
	}
	return t.writePage(n.id, buf[:])
}

// --- public operations ---

// Get returns the value stored under key, or ErrNotFound.
func (t *Tree) Get(key uint64) ([]byte, error) {
	n, err := t.loadNode(t.root)
	if err != nil {
		return nil, err
	}
	for !n.leaf {
		idx := sort.Search(len(n.keys), func(i int) bool { return key < n.keys[i] })
		n, err = t.loadNode(n.children[idx])
		if err != nil {
			return nil, err
		}
	}
	i := sort.Search(len(n.entries), func(i int) bool { return n.entries[i].key >= key })
	if i >= len(n.entries) || n.entries[i].key != key {
		return nil, ErrNotFound
	}
	return t.entryValue(&n.entries[i])
}

func (t *Tree) entryValue(e *leafEntry) ([]byte, error) {
	if e.ovfPage != 0 {
		return t.readOverflowChain(e.ovfPage, e.ovfLen)
	}
	return append([]byte(nil), e.val...), nil
}

// Put stores val under key, replacing any previous value.
func (t *Tree) Put(key uint64, val []byte) error {
	entry := leafEntry{key: key}
	if len(val) > maxInline {
		first, err := t.writeOverflowChain(val)
		if err != nil {
			return err
		}
		entry.ovfPage = first
		entry.ovfLen = uint32(len(val))
	} else {
		entry.val = append([]byte(nil), val...)
	}
	promoted, newChild, err := t.insert(t.root, entry)
	if err != nil {
		return err
	}
	if newChild != 0 {
		// Root split: grow the tree by one level.
		id, err := t.allocPage()
		if err != nil {
			return err
		}
		newRoot := &node{
			id:       id,
			keys:     []uint64{promoted},
			children: []uint64{t.root, newChild},
			dirty:    true,
		}
		t.cacheInsert(newRoot)
		t.root = id
	}
	return nil
}

// insert adds entry under page id. If the node splits it returns the
// promoted separator key and the new right-sibling page id.
func (t *Tree) insert(id uint64, entry leafEntry) (promoted uint64, newChild uint64, err error) {
	n, err := t.loadNode(id)
	if err != nil {
		return 0, 0, err
	}
	if n.leaf {
		i := sort.Search(len(n.entries), func(i int) bool { return n.entries[i].key >= entry.key })
		if i < len(n.entries) && n.entries[i].key == entry.key {
			// Replace: recycle any old overflow chain.
			if old := n.entries[i].ovfPage; old != 0 {
				if err := t.freeChain(old); err != nil {
					return 0, 0, err
				}
			}
			n.entries[i] = entry
		} else {
			n.entries = append(n.entries, leafEntry{})
			copy(n.entries[i+1:], n.entries[i:])
			n.entries[i] = entry
			t.count++
		}
		n.dirty = true
		if t.leafSize(n) > t.pageCap() {
			return t.splitLeaf(n)
		}
		return 0, 0, nil
	}
	idx := sort.Search(len(n.keys), func(i int) bool { return entry.key < n.keys[i] })
	promo, child, err := t.insert(n.children[idx], entry)
	if err != nil {
		return 0, 0, err
	}
	if child == 0 {
		return 0, 0, nil
	}
	// The recursion may have evicted this node from the cache; mutating the
	// stale pointer would silently lose the update. Reload (cheap when still
	// cached) so the mutation lands on the cached copy.
	n, err = t.loadNode(id)
	if err != nil {
		return 0, 0, err
	}
	n.keys = append(n.keys, 0)
	copy(n.keys[idx+1:], n.keys[idx:])
	n.keys[idx] = promo
	n.children = append(n.children, 0)
	copy(n.children[idx+2:], n.children[idx+1:])
	n.children[idx+1] = child
	n.dirty = true
	if t.internalSize(n) > t.pageCap() {
		return t.splitInternal(n)
	}
	return 0, 0, nil
}

func (t *Tree) leafSize(n *node) int {
	size := pageHeaderLen
	for i := range n.entries {
		size += leafEntrySize(&n.entries[i])
	}
	return size
}

func (t *Tree) internalSize(n *node) int {
	return pageHeaderLen + 8 + len(n.keys)*16
}

func (t *Tree) splitLeaf(n *node) (uint64, uint64, error) {
	// Split at the byte midpoint so both halves fit comfortably.
	total := t.leafSize(n) - pageHeaderLen
	acc, cut := 0, 0
	for i := range n.entries {
		acc += leafEntrySize(&n.entries[i])
		if acc >= total/2 {
			cut = i + 1
			break
		}
	}
	if cut == 0 || cut >= len(n.entries) {
		cut = len(n.entries) / 2
	}
	id, err := t.allocPage()
	if err != nil {
		return 0, 0, err
	}
	right := &node{id: id, leaf: true, dirty: true,
		entries: append([]leafEntry(nil), n.entries[cut:]...)}
	n.entries = n.entries[:cut:cut]
	n.dirty = true
	t.cacheInsert(right)
	return right.entries[0].key, id, nil
}

func (t *Tree) splitInternal(n *node) (uint64, uint64, error) {
	mid := len(n.keys) / 2
	promoted := n.keys[mid]
	id, err := t.allocPage()
	if err != nil {
		return 0, 0, err
	}
	right := &node{id: id, dirty: true,
		keys:     append([]uint64(nil), n.keys[mid+1:]...),
		children: append([]uint64(nil), n.children[mid+1:]...)}
	n.keys = n.keys[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	n.dirty = true
	t.cacheInsert(right)
	return promoted, id, nil
}

// Delete removes key from the tree. It returns ErrNotFound when absent.
// Underfull pages are tolerated (no rebalancing): the workload in this
// system is build-once/read-many, and tolerating sparse leaves keeps the
// on-disk structure simple without affecting lookup correctness.
func (t *Tree) Delete(key uint64) error {
	n, err := t.loadNode(t.root)
	if err != nil {
		return err
	}
	for !n.leaf {
		idx := sort.Search(len(n.keys), func(i int) bool { return key < n.keys[i] })
		n, err = t.loadNode(n.children[idx])
		if err != nil {
			return err
		}
	}
	i := sort.Search(len(n.entries), func(i int) bool { return n.entries[i].key >= key })
	if i >= len(n.entries) || n.entries[i].key != key {
		return ErrNotFound
	}
	if ovf := n.entries[i].ovfPage; ovf != 0 {
		if err := t.freeChain(ovf); err != nil {
			return err
		}
	}
	n.entries = append(n.entries[:i], n.entries[i+1:]...)
	n.dirty = true
	t.count--
	return nil
}

// Scan calls fn for every key in [lo, hi] in ascending order. Iteration
// stops early when fn returns false.
func (t *Tree) Scan(lo, hi uint64, fn func(key uint64, val []byte) bool) error {
	if err := t.scan(t.root, lo, hi, fn); err != nil && err != errStop {
		return err
	}
	return nil
}

func (t *Tree) scan(id, lo, hi uint64, fn func(uint64, []byte) bool) error {
	n, err := t.loadNode(id)
	if err != nil {
		return err
	}
	if n.leaf {
		i := sort.Search(len(n.entries), func(i int) bool { return n.entries[i].key >= lo })
		for ; i < len(n.entries) && n.entries[i].key <= hi; i++ {
			val, err := t.entryValue(&n.entries[i])
			if err != nil {
				return err
			}
			if !fn(n.entries[i].key, val) {
				return errStop
			}
		}
		return nil
	}
	start := sort.Search(len(n.keys), func(i int) bool { return lo < n.keys[i] })
	for idx := start; idx < len(n.children); idx++ {
		if idx > 0 && n.keys[idx-1] > hi {
			break
		}
		// Recursion may evict n from the cache, but the pointer we hold
		// keeps its decoded fields valid for the rest of this loop.
		if err := t.scan(n.children[idx], lo, hi, fn); err != nil {
			return err // errStop propagates to Scan, which absorbs it
		}
	}
	return nil
}

var errStop = errors.New("btree: scan stopped")
