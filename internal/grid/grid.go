// Package grid implements the spatial index of §3 of the paper: "We use a
// grid index to organize the geo-textual objects. We partition the entire
// space according to a uniform grid, and each object is stored in the grid
// cell that its point location belongs to. In each grid cell, we maintain
// an inverted list with the keywords of the objects stored in this cell."
//
// Each posting carries the object's precomputed normalized term weight
// wto(t) (Equation 2), so query-time scoring is a multiply-accumulate of
// the query-side IDF weights against the postings of the cells overlapping
// Q.Λ. Posting lists live behind the Store interface: MemStore keeps them
// in memory, and ShardedStore persists them in disk-based B+-trees (one
// per shard), exactly as the paper describes.
//
// # Invariants and ownership rules
//
// An Index is safe for concurrent readers and accepts live mutations
// (Insert, Delete, Reweight; see live.go) serialized behind an internal
// RWMutex: searches take the read side, mutations the write side. Over a
// ShardedStore each mutation is one WAL record plus a memtable overlay,
// merged into reads until a compaction folds it into the shard trees
// (livestore.go); over a MemStore the posting lists are edited in place.
// ShardedStore partitions the key space across N trees with one mutex and
// one page cache each, so concurrent cold reads only contend when they
// need the same shard (and SearchInto fans one query's fetches across
// shards).
// Each cell keeps a term directory sorted by ascending TermID with
// posting-list lengths, maintained exactly under mutation: term
// membership is a binary search, the pooled search path merge-joins the
// query terms against it (stopping as soon as either sorted list is
// exhausted), and the recorded lengths pre-size its result scratch.
//
// SearchInto walks cells in row-major order and query terms in ascending
// TermID order, so every object's score is accumulated in the same
// floating-point order on every path, and sorts results by ObjectID for
// deterministic downstream accumulation. It accumulates into a
// caller-owned SearchScratch (an epoch-stamped score array), and the
// returned slice aliases the scratch, valid only until the next
// SearchInto call on it. Pool one scratch per worker (dataset.Planner
// does) and steady-state search performs zero allocations with a
// MemStore-backed index.
package grid

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/geo"
	"repro/internal/textindex"
)

// ObjectID identifies an indexed geo-textual object, dense 0..NumObjects-1.
type ObjectID int32

// Object is a geo-textual object: a point location with a text description.
type Object struct {
	Point geo.Point
	Doc   textindex.Doc
}

// Posting is one entry of a cell-level inverted list: an object in the cell
// containing the term, with its normalized term weight wto(t).
type Posting struct {
	Obj    ObjectID
	Weight float64 // wto(t) of Equation (2)
}

// CellKey addresses one posting list: (cell, term).
type CellKey struct {
	Cell uint32
	Term textindex.TermID
}

// Uint64 packs the key for the B+-tree: cell in the high 32 bits, term in
// the low 32 bits, so one cell's lists are contiguous in key order.
func (k CellKey) Uint64() uint64 {
	return uint64(k.Cell)<<32 | uint64(uint32(k.Term))
}

// Store persists posting lists.
type Store interface {
	// Append adds postings to the list under key (build time).
	Append(key CellKey, ps []Posting) error
	// Postings returns the list under key; empty list when absent.
	Postings(key CellKey) ([]Posting, error)
}

// shardedStore is the optional Store extension a partitioned store
// implements (ShardedStore does). When a store reports more than one
// shard, NewIndex batch-builds each shard from its own goroutine and
// SearchInto fans a query's cold posting fetches across the shards —
// both without cross-shard blocking, since each shard has its own lock.
type shardedStore interface {
	Store
	NumShards() int
	ShardOf(key CellKey) int
}

// MemStore is an in-memory Store.
type MemStore struct {
	lists map[CellKey][]Posting
}

// NewMemStore returns an empty in-memory posting store.
func NewMemStore() *MemStore { return &MemStore{lists: make(map[CellKey][]Posting)} }

// Append implements Store.
func (s *MemStore) Append(key CellKey, ps []Posting) error {
	s.lists[key] = append(s.lists[key], ps...)
	return nil
}

// Postings implements Store.
func (s *MemStore) Postings(key CellKey) ([]Posting, error) { return s.lists[key], nil }

// applyUpdate edits the posting lists in place — the MemStore live-update
// path. Lists stay sorted by ascending ObjectID; the caller (Index)
// serializes mutations against readers. In-place editing keeps the
// memtable-free zero-allocation query path: Postings still returns the
// stored slice directly.
func (s *MemStore) applyUpdate(u *Update) {
	for i, t := range u.Terms {
		key := CellKey{Cell: u.Cell, Term: t}
		list := s.lists[key]
		j := sort.Search(len(list), func(k int) bool { return list[k].Obj >= u.Obj })
		if u.Kind == UpdateDelete {
			if j < len(list) && list[j].Obj == u.Obj {
				list = append(list[:j], list[j+1:]...)
				if len(list) == 0 {
					delete(s.lists, key)
				} else {
					s.lists[key] = list
				}
			}
			continue
		}
		if j < len(list) && list[j].Obj == u.Obj {
			list[j].Weight = u.Weights[i]
			continue
		}
		list = append(list, Posting{})
		copy(list[j+1:], list[j:])
		list[j] = Posting{Obj: u.Obj, Weight: u.Weights[i]}
		s.lists[key] = list
	}
}

// EncodePostings serializes a posting list (for disk-backed stores).
func EncodePostings(ps []Posting) []byte {
	buf := make([]byte, 0, len(ps)*12)
	var tmp [12]byte
	for _, p := range ps {
		binary.LittleEndian.PutUint32(tmp[0:], uint32(p.Obj))
		binary.LittleEndian.PutUint64(tmp[4:], math.Float64bits(p.Weight))
		buf = append(buf, tmp[:]...)
	}
	return buf
}

// DecodePostings parses the output of EncodePostings.
func DecodePostings(b []byte) ([]Posting, error) {
	if len(b)%12 != 0 {
		return nil, fmt.Errorf("grid: posting list length %d not a multiple of 12", len(b))
	}
	out := make([]Posting, 0, len(b)/12)
	for off := 0; off < len(b); off += 12 {
		out = append(out, Posting{
			Obj:    ObjectID(binary.LittleEndian.Uint32(b[off:])),
			Weight: math.Float64frombits(binary.LittleEndian.Uint64(b[off+4:])),
		})
	}
	return out, nil
}

// termEntry is one row of a cell's term directory: a term present in the
// cell and the length of its posting list (for query planning: which
// lists exist, how much scratch a search needs).
type termEntry struct {
	term  textindex.TermID
	count int32
}

// Index is a uniform grid over the object space.
type Index struct {
	// wmu serializes writers: mutators, Compact, Freeze and CloseStore.
	// A writer does its disk work (WAL append, flush, meta commit, WAL
	// reset) under wmu alone and takes mu only to publish the in-memory
	// result. State only writers change (objects, tombstones, frozen,
	// pending) can be read under wmu alone.
	wmu sync.Mutex
	// mu guards the query-visible state: searches take the read side,
	// writers the write side, for microseconds and never across I/O.
	// Lock ordering: wmu, then mu, then any shard mutex.
	mu       sync.RWMutex
	objects  []Object
	bounds   geo.Rect
	cellSize float64
	nx, ny   int
	store    Store
	// sharded is store when it partitions keys across >1 independently
	// locked shards, nil otherwise; it makes the search fetch each
	// shard's posting lists from its own goroutine.
	sharded shardedStore
	// cellDir is the per-cell term directory, sorted by ascending TermID
	// so membership is a binary search and query∩cell intersection is a
	// merge-join that exits as soon as either side is exhausted.
	cellDir map[uint32][]termEntry

	// live is store when it has a WAL + memtable update path (the sharded
	// layout); memStore is store when updates edit lists in place.
	live     liveStore
	memStore *MemStore
	// baseObjects is the object count of the original batch build; ids at
	// or above it are live inserts (the "tail" of the meta snapshot).
	baseObjects int
	// tombstones marks deleted ids (never reused; scores as an empty doc).
	tombstones map[ObjectID]struct{}
	// reweighted marks base-build ids whose weights were replaced, so the
	// meta snapshot patches exactly those on reopen.
	reweighted map[ObjectID]struct{}
	// epoch counts applied mutations (and compactions); readers can cheap-
	// check it to learn whether cached derived state is stale.
	epoch uint64
	// frozen permanently disables the live-update path (Freeze); mutators
	// fail with ErrFrozen. A cluster node freezes its index so the term
	// directories it ships at Hello stay truthful for its lifetime.
	frozen bool
	// scoreCache, when non-nil, caches per-cell partial scores of repeated
	// queries keyed by epoch (scorecache.go). Installed under mu; the
	// search paths read it under the read lock.
	scoreCache *scoreCache
	// metaExtra, when set, supplies the opaque blob stored in the meta
	// snapshot (the dataset layer stores its vocabulary there).
	metaExtra func() []byte
	// metaExtraBlob and replayed carry reopen state for the owner layer:
	// the blob of the meta snapshot the index was opened from, and the
	// WAL updates applied on top of it (ascending Seq).
	metaExtraBlob []byte
	replayed      []Update
	// pending counts updates since the last compaction (guarded by wmu);
	// autoCompact is the threshold that triggers one from the update path
	// (<= 0: never).
	pending     int
	autoCompact int
}

// defaultAutoCompact is the update count that triggers an automatic
// compaction. Large enough that bursts stay on the cheap WAL+memtable
// path, small enough that the memtable overlay (and recovery replay work)
// stays bounded.
const defaultAutoCompact = 8192

// NewIndex builds a grid index over objects with the given cell size (same
// unit as coordinates; the paper does not prescribe one — typical is a few
// hundred metres). The store receives one Append per (cell, term).
func NewIndex(objects []Object, bounds geo.Rect, cellSize float64, store Store) (*Index, error) {
	return newIndex(objects, bounds, cellSize, store, true)
}

// NewIndexOver builds the index metadata (grid layout, per-cell term
// directories) over a store that already holds the postings — e.g. a
// sharded store written by a previous build and reopened cold. Nothing is
// appended; the objects must be the base-build objects the store was
// built from. When the store carries a committed meta snapshot (every
// sharded store built by NewIndex does), the metadata is loaded from it
// instead of being re-derived — including live objects inserted after
// the build, tombstones and reweights — and any WAL records past the
// snapshot are re-applied, so a reopened store answers exactly as it did
// before it was closed (or crashed).
func NewIndexOver(objects []Object, bounds geo.Rect, cellSize float64, store Store) (*Index, error) {
	return newIndex(objects, bounds, cellSize, store, false)
}

func newIndex(objects []Object, bounds geo.Rect, cellSize float64, store Store, appendPostings bool) (*Index, error) {
	if cellSize <= 0 {
		return nil, fmt.Errorf("grid: cell size must be positive, got %v", cellSize)
	}
	if store == nil {
		store = NewMemStore()
	}
	nx := int(math.Ceil(bounds.Width()/cellSize)) + 1
	ny := int(math.Ceil(bounds.Height()/cellSize)) + 1
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	idx := &Index{
		objects:     objects,
		bounds:      bounds,
		cellSize:    cellSize,
		nx:          nx,
		ny:          ny,
		store:       store,
		cellDir:     make(map[uint32][]termEntry),
		baseObjects: len(objects),
		tombstones:  make(map[ObjectID]struct{}),
		reweighted:  make(map[ObjectID]struct{}),
		autoCompact: defaultAutoCompact,
	}
	if sh, ok := store.(shardedStore); ok && sh.NumShards() > 1 {
		idx.sharded = sh
	}
	if ls, ok := store.(liveStore); ok {
		idx.live = ls
	} else if ms, ok := store.(*MemStore); ok {
		idx.memStore = ms
	}
	if !appendPostings && idx.live != nil {
		if body, _, ok := idx.live.MetaSnapshot(); ok {
			if err := idx.openFromMeta(body); err != nil {
				return nil, err
			}
			return idx, nil
		}
		if len(idx.live.ReplayedUpdates()) > 0 {
			// Updates were logged but no meta was ever committed — only a
			// crash inside the very first meta commit can leave this; the
			// in-memory state they patched is unrecoverable without it.
			return nil, fmt.Errorf("%w: store holds WAL updates but no committed meta; rebuild the store", ErrCorruptMeta)
		}
	}
	// Group postings per (cell, term) to batch Append calls.
	batch := make(map[CellKey][]Posting)
	for id, o := range objects {
		cell, ok := idx.cellOf(o.Point)
		if !ok {
			return nil, fmt.Errorf("grid: object %d at %v outside bounds %v", id, o.Point, bounds)
		}
		for i, t := range o.Doc.Terms {
			key := CellKey{Cell: cell, Term: t}
			batch[key] = append(batch[key], Posting{Obj: ObjectID(id), Weight: o.Doc.Weights[i]})
		}
	}
	if appendPostings {
		if err := idx.appendBatch(batch); err != nil {
			return nil, err
		}
	}
	for key, ps := range batch {
		idx.cellDir[key.Cell] = append(idx.cellDir[key.Cell], termEntry{term: key.Term, count: int32(len(ps))})
	}
	for _, dir := range idx.cellDir {
		sort.Slice(dir, func(i, j int) bool { return dir[i].term < dir[j].term })
	}
	if appendPostings && idx.live != nil {
		// Genesis meta commit: make the batch build durable and record the
		// derived metadata, so the store can be reopened (and can accept
		// updates whose recovery depends on a committed baseline) without
		// ever re-deriving from objects. Under NoSync the writes happen
		// without fsyncs — the usual bulk-build contract.
		if err := idx.live.Flush(); err != nil {
			return nil, err
		}
		if err := idx.live.CommitMeta(idx.encodeMetaLocked()); err != nil {
			return nil, err
		}
	}
	return idx, nil
}

// appendBatch writes the grouped postings to the store. With a sharded
// store each shard is built from its own goroutine — keys are bucketed by
// owning shard first, so the goroutines never contend on a shard lock.
// Each key still gets all its postings in one Append, and posting order
// within a key is the object insertion order either way, so the stored
// lists are identical for any shard count.
func (idx *Index) appendBatch(batch map[CellKey][]Posting) error {
	if idx.sharded == nil {
		for key, ps := range batch {
			if err := idx.store.Append(key, ps); err != nil {
				return fmt.Errorf("grid: store append: %w", err)
			}
		}
		return nil
	}
	type keyBatch struct {
		key CellKey
		ps  []Posting
	}
	buckets := make([][]keyBatch, idx.sharded.NumShards())
	for key, ps := range batch {
		s := idx.sharded.ShardOf(key)
		buckets[s] = append(buckets[s], keyBatch{key, ps})
	}
	errs := make([]error, len(buckets))
	var wg sync.WaitGroup
	for s := range buckets {
		if len(buckets[s]) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for _, kb := range buckets[s] {
				if err := idx.store.Append(kb.key, kb.ps); err != nil {
					errs[s] = err
					return
				}
			}
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("grid: store append: %w", err)
		}
	}
	return nil
}

// Store returns the posting store backing the index.
func (idx *Index) Store() Store { return idx.store }

func (idx *Index) cellOf(p geo.Point) (uint32, bool) {
	if !idx.bounds.Contains(p) {
		return 0, false
	}
	cx := int((p.X - idx.bounds.MinX) / idx.cellSize)
	cy := int((p.Y - idx.bounds.MinY) / idx.cellSize)
	if cx >= idx.nx {
		cx = idx.nx - 1
	}
	if cy >= idx.ny {
		cy = idx.ny - 1
	}
	return uint32(cy*idx.nx + cx), true
}

// cellRect returns the rectangle covered by a cell id.
func (idx *Index) cellRect(cell uint32) geo.Rect {
	cx := int(cell) % idx.nx
	cy := int(cell) / idx.nx
	minX := idx.bounds.MinX + float64(cx)*idx.cellSize
	minY := idx.bounds.MinY + float64(cy)*idx.cellSize
	return geo.Rect{MinX: minX, MinY: minY, MaxX: minX + idx.cellSize, MaxY: minY + idx.cellSize}
}

// cellRange returns the inclusive cell-coordinate range covered by r, or
// ok == false when r misses the grid entirely. Every cell walk derives
// from it, so searches and estimates visit identical cells.
func (idx *Index) cellRange(r geo.Rect) (x0, x1, y0, y1 int, ok bool) {
	clipped, ok := r.Intersect(idx.bounds)
	if !ok {
		return 0, 0, 0, 0, false
	}
	x0 = clampCell(int((clipped.MinX-idx.bounds.MinX)/idx.cellSize), idx.nx-1)
	x1 = clampCell(int((clipped.MaxX-idx.bounds.MinX)/idx.cellSize), idx.nx-1)
	y0 = clampCell(int((clipped.MinY-idx.bounds.MinY)/idx.cellSize), idx.ny-1)
	y1 = clampCell(int((clipped.MaxY-idx.bounds.MinY)/idx.cellSize), idx.ny-1)
	return x0, x1, y0, y1, true
}

// ObjScore is an object with its query relevance σ(o.ψ, Q.ψ).
type ObjScore struct {
	Obj   ObjectID
	Score float64
}
