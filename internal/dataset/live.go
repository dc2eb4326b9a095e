package dataset

import (
	"fmt"
	"math"

	"repro/internal/gen"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/roadnet"
	"repro/internal/textindex"
)

// Live dataset mutations. The four coupled views — the grid index
// (postings + cell directory + object table), the vocabulary statistics
// (|D|, df, cf), the object→road-node snapping table and the ratings —
// change together: a mutator, serialized with the others and with
// Compact by wmu, prepares its update read-only, lets the index make it
// durable under no lock a query takes, and publishes both layers in one
// short critical section under mu. The invariant the differential
// harness checks is that after any mutation sequence the dataset answers
// every query bit-identically to a fresh build of the same logical
// object set.

// Insert tokenizes text and adds the object at p to the index, interning
// any new terms. It returns the new object's dense id. The text may be
// empty (the object still counts as a document). On an update failure
// nothing changes; on ErrCompaction the insert IS applied (the error
// reports a failed background fold, retryable via Compact).
func (d *Dataset) Insert(p geo.Point, text string) (grid.ObjectID, error) {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	// Only writers change the vocabulary, so under wmu it can be read
	// without mu, and the ids DocOf drafts for new terms are the ones
	// interning assigns at publication.
	doc, strs := d.Vocab.DocOf(textindex.Tokenize(text))
	node := d.Graph.NearestNode(p)
	return d.Index.Insert(p, doc, strs, d.publish(func() {
		if err := addInsertStats(d.Vocab, doc.Terms, strs, doc.TF); err != nil {
			panic(err) // writers are serialized: the drafted ids cannot move
		}
		d.Objects = d.Index.ObjectsRef()
		d.ObjNode = append(d.ObjNode, node)
		if d.Ratings != nil {
			d.Ratings = append(d.Ratings, 1)
		}
	}))
}

// Delete tombstones an object: its postings disappear from every list
// and its terms leave the corpus statistics, but the id stays allocated
// and keeps counting as an empty document (so IDF ratios match a rebuild
// that indexes a placeholder empty document in its slot).
func (d *Dataset) Delete(id grid.ObjectID) error {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	if int(id) < 0 || int(id) >= len(d.Objects) {
		return fmt.Errorf("%w: id %d of %d", grid.ErrNoSuchObject, id, len(d.Objects))
	}
	doc := d.Objects[id].Doc
	return d.Index.Delete(id, d.publish(func() { d.Vocab.RemoveDocStats(doc) }))
}

// Reweight scales an object's term weights by factor (the term set is
// fixed; changing terms is a Delete plus an Insert). Corpus statistics
// are untouched — only scores involving the object change.
func (d *Dataset) Reweight(id grid.ObjectID, factor float64) error {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	if math.IsNaN(factor) || math.IsInf(factor, 0) || factor <= 0 {
		return fmt.Errorf("dataset: reweight factor %v out of range (want finite > 0)", factor)
	}
	if int(id) < 0 || int(id) >= len(d.Objects) {
		return fmt.Errorf("%w: id %d of %d", grid.ErrNoSuchObject, id, len(d.Objects))
	}
	old := d.Objects[id].Doc.Weights
	w := make([]float64, len(old))
	for i := range old {
		w[i] = old[i] * factor
	}
	return d.Index.Reweight(id, w, d.publish(func() {}))
}

// publish returns the index's publish hook for one mutation: the index's
// in-memory apply and the dataset's own (apply) run together under mu.
func (d *Dataset) publish(apply func()) func(func()) {
	return func(applyIndex func()) {
		d.mu.Lock()
		defer d.mu.Unlock()
		applyIndex()
		apply()
	}
}

// addInsertStats interns an inserted object's terms, checking each lands
// on the id its record carries, and adds its statistics — the one
// vocabulary apply of a live insert and of a replayed one.
func addInsertStats(v *textindex.Vocabulary, terms []textindex.TermID, strs []string, tf []int32) error {
	for i, s := range strs {
		if err := v.EnsureTerm(s, terms[i]); err != nil {
			return err
		}
	}
	v.AddDocStats(textindex.Doc{Terms: terms, TF: tf})
	return nil
}

// Compact folds pending live updates into the posting store and commits
// a metadata snapshot (vocabulary included). A no-op for memory-backed
// stores. Queries run on throughout: wmu alone keeps the vocabulary the
// snapshot encodes still.
func (d *Dataset) Compact() error {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	return d.Index.Compact()
}

// reassemble rebuilds a Dataset over a previously persisted store. The
// road network and base corpus are regenerated deterministically from the
// config seed (they are not persisted); the index state comes from the
// store's committed metadata plus WAL replay, and the vocabulary from the
// metadata's snapshot blob patched with the replayed updates' term
// statistics. A store that was populated but never carried a metadata
// snapshot (a store from before the live-update format, or a legacy
// single-file tree moved into a one-shard directory) falls back to
// deriving the index from the corpus objects — correct as long as no live
// updates were ever applied to it.
func reassemble(name string, g *roadnet.Graph, corpus *gen.Corpus, bounds geo.Rect, cfg Config) (*Dataset, error) {
	idx, err := grid.NewIndexOver(corpus.Objects, bounds, cfg.CellSize, cfg.Store)
	if err != nil {
		return nil, fmt.Errorf("dataset: reopen index: %w", err)
	}
	d := &Dataset{
		Name:    name,
		Graph:   g,
		ObjNode: corpus.ObjNode,
		Ratings: corpus.Ratings,
		Index:   idx,
	}
	blob := idx.MetaExtra()
	if blob == nil {
		// No snapshot: the index was derived from the corpus objects, so
		// the regenerated corpus vocabulary is exact.
		d.Vocab = corpus.Vocab
		d.Objects = corpus.Objects
	} else {
		vocab, err := textindex.DecodeVocabulary(blob)
		if err != nil {
			return nil, fmt.Errorf("dataset: vocabulary snapshot: %w", err)
		}
		d.Vocab = vocab
		d.Objects = idx.ObjectsRef()
		// The snapshot covers everything at or below the metadata's
		// high-water mark; replayed WAL records patch the statistics the
		// same way the live mutators did.
		for _, u := range idx.Replayed() {
			switch u.Kind {
			case grid.UpdateInsert:
				if err := addInsertStats(vocab, u.Terms, u.Strs, u.TF); err != nil {
					return nil, fmt.Errorf("dataset: replayed insert %d: %w", u.Obj, err)
				}
			case grid.UpdateDelete:
				if int(u.Obj) >= len(d.Objects) {
					return nil, fmt.Errorf("dataset: replayed delete of unknown object %d", u.Obj)
				}
				vocab.RemoveDocStats(d.Objects[u.Obj].Doc)
			}
		}
		// Tail objects (inserted live before the last close) need snapping
		// and ratings rows; base rows came with the regenerated corpus.
		for id := idx.BaseObjects(); id < len(d.Objects); id++ {
			d.ObjNode = append(d.ObjNode, g.NearestNode(d.Objects[id].Point))
			if d.Ratings != nil {
				d.Ratings = append(d.Ratings, 1)
			}
		}
	}
	vocab := d.Vocab
	idx.SetMetaExtra(func() []byte { return vocab.EncodeSnapshot() })
	return d, nil
}
