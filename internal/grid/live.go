package grid

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/geo"
	"repro/internal/textindex"
)

// Index live-update path. Insert, Delete and Reweight mutate the object
// set while the index serves queries. Each is "log, then apply": under
// the writer mutex it validates the update and, on a sharded store,
// appends it to the WAL (one write, one fsync) holding no lock a search
// takes; only then does it publish the update under mu — memtable or
// in-place posting edit, object table, cell directory, epoch. A search
// thus sees an update once it is durable and never waits on the disk.
// The cell directory stays exact: a mutated index always has the
// directory a fresh build of the same logical object set would have,
// which is what the differential harness asserts. Deleted ids are never
// reused and keep scoring as if the object were an empty document, so
// object ids, |D| and IDF ratios stay identical between a live index and
// a rebuild.
//
// Each mutator takes a publish hook. nil publishes directly; otherwise
// the hook is handed the publication and must call it exactly once —
// the dataset layer holds its own reader lock around it, so its readers
// see an update in both layers or in neither.

// ErrNoSuchObject marks an update addressing an id that does not exist
// or is already deleted.
var ErrNoSuchObject = errors.New("grid: no such object")

// ErrFrozen marks a mutation attempted after Freeze: the index could
// apply the update, but its owner promised not to.
var ErrFrozen = errors.New("grid: index is frozen (read-only)")

// Freeze permanently disables the live-update path: every later Insert,
// Delete and Reweight fails with ErrFrozen. A cluster node freezes its
// index before announcing itself, because the coordinator caches the
// node's term directory once at Hello — a term appearing in the node's
// cells afterwards would make skip routing silently drop results. There
// is no Unfreeze; restart the process to mutate again.
func (idx *Index) Freeze() {
	idx.wmu.Lock()
	idx.frozen = true
	idx.wmu.Unlock()
}

// ErrCompaction marks an automatic compaction failure surfaced from a
// mutator. The mutation itself was applied and is durable in the WAL —
// only the fold into the shard trees failed; the store recovers it on
// the next successful Compact or on reopen. Callers maintaining derived
// state (the dataset's vocabulary) must NOT roll back on this error.
var ErrCompaction = errors.New("grid: automatic compaction failed (update applied)")

// Insert adds a new object and returns its id (always the next dense
// ObjectID). doc must have ascending Terms with parallel Weights and TF,
// and strs must hold the term strings parallel to doc.Terms — the WAL
// record carries them so a recovery can rebuild vocabulary statistics
// without the original text.
func (idx *Index) Insert(p geo.Point, doc textindex.Doc, strs []string, publish func(apply func())) (ObjectID, error) {
	idx.wmu.Lock()
	defer idx.wmu.Unlock()
	if idx.frozen {
		return 0, ErrFrozen
	}
	if len(doc.Weights) != len(doc.Terms) || len(doc.TF) != len(doc.Terms) || len(strs) != len(doc.Terms) {
		return 0, fmt.Errorf("grid: insert: terms/weights/tf/strs must be parallel (%d/%d/%d/%d)",
			len(doc.Terms), len(doc.Weights), len(doc.TF), len(strs))
	}
	for i := 1; i < len(doc.Terms); i++ {
		if doc.Terms[i] <= doc.Terms[i-1] {
			return 0, fmt.Errorf("grid: insert: terms must be strictly ascending")
		}
	}
	for _, s := range strs {
		if len(s) > 1<<16-1 {
			return 0, fmt.Errorf("grid: insert: term string longer than %d bytes", 1<<16-1)
		}
	}
	cell, ok := idx.cellOf(p)
	if !ok {
		return 0, fmt.Errorf("grid: insert: point %v outside bounds %v", p, idx.bounds)
	}
	id := ObjectID(len(idx.objects))
	u := Update{Kind: UpdateInsert, Obj: id, Cell: cell, Point: p,
		Terms: doc.Terms, Weights: doc.Weights, TF: doc.TF, Strs: strs}
	err := idx.commit(&u, publish, func() {
		idx.objects = append(idx.objects, Object{Point: p, Doc: doc})
		idx.bumpCellDir(cell, doc.Terms, +1)
	})
	if err != nil {
		return 0, err
	}
	return id, idx.maybeCompactLocked()
}

// Delete removes an object: its postings disappear from every list, but
// the id stays allocated (tombstoned) and the object keeps counting as
// an empty document in corpus statistics.
func (idx *Index) Delete(id ObjectID, publish func(apply func())) error {
	idx.wmu.Lock()
	defer idx.wmu.Unlock()
	if idx.frozen {
		return ErrFrozen
	}
	if err := idx.checkLiveLocked(id); err != nil {
		return err
	}
	obj := idx.objects[id]
	cell, ok := idx.cellOf(obj.Point)
	if !ok {
		return fmt.Errorf("grid: delete %d: stored point %v outside bounds", id, obj.Point)
	}
	u := Update{Kind: UpdateDelete, Obj: id, Cell: cell, Point: obj.Point, Terms: obj.Doc.Terms}
	err := idx.commit(&u, publish, func() {
		idx.tombstones[id] = struct{}{}
		delete(idx.reweighted, id) // a deleted object needs no weight patch
		idx.bumpCellDir(cell, obj.Doc.Terms, -1)
	})
	if err != nil {
		return err
	}
	return idx.maybeCompactLocked()
}

// Reweight replaces an object's normalized term weights (parallel to its
// existing terms; the term set itself is fixed — changing terms is a
// Delete plus an Insert). Corpus statistics are untouched.
func (idx *Index) Reweight(id ObjectID, weights []float64, publish func(apply func())) error {
	idx.wmu.Lock()
	defer idx.wmu.Unlock()
	if idx.frozen {
		return ErrFrozen
	}
	if err := idx.checkLiveLocked(id); err != nil {
		return err
	}
	obj := &idx.objects[id]
	if len(weights) != len(obj.Doc.Terms) {
		return fmt.Errorf("grid: reweight %d: %d weights for %d terms", id, len(weights), len(obj.Doc.Terms))
	}
	cell, ok := idx.cellOf(obj.Point)
	if !ok {
		return fmt.Errorf("grid: reweight %d: stored point %v outside bounds", id, obj.Point)
	}
	w := append([]float64(nil), weights...)
	u := Update{Kind: UpdateReweight, Obj: id, Cell: cell, Point: obj.Point, Terms: obj.Doc.Terms, Weights: w}
	err := idx.commit(&u, publish, func() {
		obj.Doc.Weights = w
		if int(id) < idx.baseObjects {
			idx.reweighted[id] = struct{}{}
		}
	})
	if err != nil {
		return err
	}
	return idx.maybeCompactLocked()
}

// checkLiveLocked validates id under wmu: only writers change the object
// table and the tombstones.
func (idx *Index) checkLiveLocked(id ObjectID) error {
	if id < 0 || int(id) >= len(idx.objects) {
		return fmt.Errorf("%w: id %d of %d", ErrNoSuchObject, id, len(idx.objects))
	}
	if _, dead := idx.tombstones[id]; dead {
		return fmt.Errorf("%w: id %d is deleted", ErrNoSuchObject, id)
	}
	return nil
}

// commit logs u, then publishes it through publish (see the file
// comment): the store apply, the mutator's own in-memory effects (apply)
// and the epoch bump run together under mu. The caller holds wmu.
func (idx *Index) commit(u *Update, publish func(apply func()), apply func()) error {
	if idx.live != nil {
		if err := idx.live.logUpdate(u); err != nil {
			return err
		}
	}
	publishIndex := func() {
		idx.mu.Lock()
		defer idx.mu.Unlock()
		if idx.live != nil {
			idx.live.applyLogged(u)
		} else {
			idx.memStore.applyUpdate(u)
		}
		apply()
		idx.epoch++
	}
	if publish == nil {
		publishIndex()
	} else {
		publish(publishIndex)
	}
	idx.pending++
	return nil
}

// bumpCellDir adjusts the cell directory's posting counts for one object
// entering (delta +1) or leaving (delta -1), keeping each directory
// sorted and dropping entries (and empty cells) at count zero. A
// reweight changes no count, so it leaves the directory alone.
func (idx *Index) bumpCellDir(cell uint32, terms []textindex.TermID, delta int32) {
	dir := idx.cellDir[cell]
	for _, t := range terms {
		i := sort.Search(len(dir), func(i int) bool { return dir[i].term >= t })
		if i < len(dir) && dir[i].term == t {
			dir[i].count += delta
			if dir[i].count <= 0 {
				dir = append(dir[:i], dir[i+1:]...)
			}
			continue
		}
		if delta <= 0 {
			continue // nothing to decrement under this term
		}
		dir = append(dir, termEntry{})
		copy(dir[i+1:], dir[i:])
		dir[i] = termEntry{term: t, count: delta}
	}
	if len(dir) == 0 {
		delete(idx.cellDir, cell)
	} else {
		idx.cellDir[cell] = dir
	}
}

// setCellDirEntry pins one directory entry to the store's ground truth
// (reopen-time patching: the count is re-derived from the actual merged
// posting list, so replaying a record whose effects were already flushed
// cannot double-count).
func (idx *Index) setCellDirEntry(key CellKey, n int32) {
	dir := idx.cellDir[key.Cell]
	i := sort.Search(len(dir), func(i int) bool { return dir[i].term >= key.Term })
	found := i < len(dir) && dir[i].term == key.Term
	switch {
	case n <= 0 && found:
		dir = append(dir[:i], dir[i+1:]...)
	case n > 0 && found:
		dir[i].count = n
	case n > 0 && !found:
		dir = append(dir, termEntry{})
		copy(dir[i+1:], dir[i:])
		dir[i] = termEntry{term: key.Term, count: n}
	default:
		return
	}
	if len(dir) == 0 {
		delete(idx.cellDir, key.Cell)
	} else {
		idx.cellDir[key.Cell] = dir
	}
}

// maybeCompactLocked runs an automatic compaction once enough updates
// are pending. The caller holds wmu.
func (idx *Index) maybeCompactLocked() error {
	if idx.live == nil || idx.autoCompact <= 0 || idx.pending < idx.autoCompact {
		return nil
	}
	if err := idx.compactLocked(); err != nil {
		return fmt.Errorf("%w: %w", ErrCompaction, err)
	}
	return nil
}

// Compact flushes the memtables into the shard trees, commits a fresh
// meta snapshot and truncates the WALs — the live-update path's
// checkpoint. On a MemStore-backed index it only resets the pending
// counter (in-place edits have nothing to fold). Any error leaves the
// store recoverable: flush and meta-commit failures keep the WAL, and a
// failed truncation merely replays covered (idempotent) records on the
// next open. Searches run on throughout.
func (idx *Index) Compact() error {
	idx.wmu.Lock()
	defer idx.wmu.Unlock()
	return idx.compactLocked()
}

// compactLocked is Compact for a caller holding wmu. The flush locks one
// shard at a time, the meta body is encoded under mu's read side, and
// the meta commit and WAL resets run under no lock a search takes.
func (idx *Index) compactLocked() error {
	if idx.live == nil {
		idx.pending = 0
		return nil
	}
	if err := idx.live.Flush(); err != nil {
		return err
	}
	idx.mu.RLock()
	body := idx.encodeMetaLocked()
	idx.mu.RUnlock()
	if err := idx.live.CommitMeta(body); err != nil {
		return err
	}
	if err := idx.live.TruncateWALs(); err != nil {
		return err
	}
	idx.pending = 0
	idx.mu.Lock()
	idx.epoch++
	idx.mu.Unlock()
	return nil
}

// CloseStore compacts (sharded stores: flush + meta commit + WAL
// truncation) and closes the posting store. Compaction errors do not
// skip the close; all failures are joined.
func (idx *Index) CloseStore() error {
	idx.wmu.Lock()
	defer idx.wmu.Unlock()
	var errs []error
	if idx.live != nil {
		if err := idx.compactLocked(); err != nil {
			errs = append(errs, err)
		}
	}
	if s, ok := idx.store.(*ShardedStore); ok {
		if err := s.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// SetMetaExtra registers the callback that supplies the opaque blob
// stored in every meta snapshot (the dataset layer stores its vocabulary
// there). Call it right after NewIndex, before any update can trigger an
// automatic compaction.
func (idx *Index) SetMetaExtra(fn func() []byte) {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	idx.metaExtra = fn
}

// MetaExtra returns the opaque blob of the meta snapshot the index was
// opened from (nil when the index was built fresh or the snapshot
// carried none).
func (idx *Index) MetaExtra() []byte {
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	return idx.metaExtraBlob
}

// Replayed returns the WAL updates applied on top of the meta snapshot
// at open, in sequence order — the owner layer patches its own state
// (vocabulary statistics) from them. The slice is index-owned.
func (idx *Index) Replayed() []Update {
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	return idx.replayed
}

// ObjectsRef returns the index's object table (shared storage — callers
// must not mutate it). The dataset layer re-syncs its view from it after
// reopen and after inserts.
func (idx *Index) ObjectsRef() []Object {
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	return idx.objects
}

// Bounds returns the index's spatial bounds (fixed at construction —
// inserts outside them are rejected rather than regrowing the grid).
func (idx *Index) Bounds() geo.Rect { return idx.bounds }

// CellSize returns the grid cell size (fixed at construction).
func (idx *Index) CellSize() float64 { return idx.cellSize }

// BaseObjects returns the object count of the original batch build.
func (idx *Index) BaseObjects() int {
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	return idx.baseObjects
}

// encodeMetaLocked snapshots the index metadata into a meta body.
func (idx *Index) encodeMetaLocked() []byte {
	m := indexMeta{
		bounds:      idx.bounds,
		cellSize:    idx.cellSize,
		nx:          idx.nx,
		ny:          idx.ny,
		baseObjects: idx.baseObjects,
		cellDir:     idx.cellDir,
	}
	for id := idx.baseObjects; id < len(idx.objects); id++ {
		o := idx.objects[id]
		m.tail = append(m.tail, tailObject{
			id: ObjectID(id), point: o.Point,
			terms: o.Doc.Terms, weights: o.Doc.Weights, tf: o.Doc.TF,
		})
	}
	m.tombstones = make([]ObjectID, 0, len(idx.tombstones))
	for id := range idx.tombstones {
		m.tombstones = append(m.tombstones, id)
	}
	sort.Slice(m.tombstones, func(i, j int) bool { return m.tombstones[i] < m.tombstones[j] })
	m.patches = make([]docPatch, 0, len(idx.reweighted))
	for id := range idx.reweighted {
		m.patches = append(m.patches, docPatch{id: id, weights: idx.objects[id].Doc.Weights})
	}
	sort.Slice(m.patches, func(i, j int) bool { return m.patches[i].id < m.patches[j].id })
	if idx.metaExtra != nil {
		m.extra = idx.metaExtra()
	}
	return encodeIndexMeta(&m)
}

// openFromMeta rebuilds the index metadata from a committed meta body
// plus the store's replayed WAL records: meta state first (cell
// directory, tail objects, tombstones, weight patches — everything at or
// below the snapshot's high-water mark), then the replayed updates in
// sequence order. For every (cell, term) key a replayed record touched,
// the directory count is re-derived from the store's actual merged list
// — replay is thereby idempotent even though directory deltas are not.
func (idx *Index) openFromMeta(body []byte) error {
	m, err := decodeIndexMeta(body)
	if err != nil {
		return err
	}
	if m.bounds != idx.bounds || m.cellSize != idx.cellSize || m.nx != idx.nx || m.ny != idx.ny {
		return fmt.Errorf("%w: stored grid %dx%d cell %v bounds %v, caller %dx%d cell %v bounds %v",
			ErrMetaMismatch, m.nx, m.ny, m.cellSize, m.bounds, idx.nx, idx.ny, idx.cellSize, idx.bounds)
	}
	if m.baseObjects != len(idx.objects) {
		return fmt.Errorf("%w: store built over %d base objects, caller passed %d",
			ErrMetaMismatch, m.baseObjects, len(idx.objects))
	}
	idx.cellDir = m.cellDir
	idx.metaExtraBlob = m.extra
	for _, p := range m.patches {
		if int(p.id) >= len(idx.objects) {
			return fmt.Errorf("%w: weight patch for unknown object %d", ErrCorruptMeta, p.id)
		}
		obj := &idx.objects[p.id]
		if len(p.weights) != len(obj.Doc.Terms) {
			return fmt.Errorf("%w: weight patch arity for object %d", ErrCorruptMeta, p.id)
		}
		obj.Doc.Weights = p.weights
		idx.reweighted[p.id] = struct{}{}
	}
	for _, to := range m.tail {
		if int(to.id) != len(idx.objects) {
			return fmt.Errorf("%w: tail object %d out of order (have %d objects)", ErrCorruptMeta, to.id, len(idx.objects))
		}
		idx.objects = append(idx.objects, Object{Point: to.point,
			Doc: textindex.Doc{Terms: to.terms, Weights: to.weights, TF: to.tf}})
	}
	for _, id := range m.tombstones {
		if int(id) >= len(idx.objects) {
			return fmt.Errorf("%w: tombstone for unknown object %d", ErrCorruptMeta, id)
		}
		idx.tombstones[id] = struct{}{}
	}
	idx.replayed = idx.live.ReplayedUpdates()
	touched := make(map[CellKey]struct{})
	for i := range idx.replayed {
		u := &idx.replayed[i]
		switch u.Kind {
		case UpdateInsert:
			if int(u.Obj) != len(idx.objects) {
				return fmt.Errorf("%w: replayed insert id %d (have %d objects)", ErrCorruptMeta, u.Obj, len(idx.objects))
			}
			idx.objects = append(idx.objects, Object{Point: u.Point,
				Doc: textindex.Doc{Terms: u.Terms, Weights: u.Weights, TF: u.TF}})
		case UpdateDelete:
			if int(u.Obj) >= len(idx.objects) {
				return fmt.Errorf("%w: replayed delete of unknown object %d", ErrCorruptMeta, u.Obj)
			}
			idx.tombstones[u.Obj] = struct{}{}
			delete(idx.reweighted, u.Obj)
		case UpdateReweight:
			if int(u.Obj) >= len(idx.objects) {
				return fmt.Errorf("%w: replayed reweight of unknown object %d", ErrCorruptMeta, u.Obj)
			}
			obj := &idx.objects[u.Obj]
			if len(u.Weights) != len(obj.Doc.Terms) {
				return fmt.Errorf("%w: replayed reweight arity for object %d", ErrCorruptMeta, u.Obj)
			}
			obj.Doc.Weights = u.Weights
			if int(u.Obj) < idx.baseObjects {
				idx.reweighted[u.Obj] = struct{}{}
			}
		}
		for _, t := range u.Terms {
			touched[CellKey{Cell: u.Cell, Term: t}] = struct{}{}
		}
	}
	keys := make([]CellKey, 0, len(touched))
	for k := range touched {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Uint64() < keys[j].Uint64() })
	for _, key := range keys {
		ps, err := idx.store.Postings(key)
		if err != nil {
			return fmt.Errorf("grid: reopen count for cell %d term %d: %w", key.Cell, key.Term, err)
		}
		idx.setCellDirEntry(key, int32(len(ps)))
	}
	return nil
}
