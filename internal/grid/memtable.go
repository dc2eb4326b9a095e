package grid

import "sort"

// memEntry is one object's pending state under one (cell, term) key:
// either a deletion tombstone or the object's current absolute weight
// (covering both fresh inserts and reweights — the merge does not need
// to distinguish them).
type memEntry struct {
	weight float64
	del    bool
}

// memtable holds one shard's un-flushed updates as per-key override maps
// layered over the shard's B+-tree: a merged read takes the tree's list
// and applies the overrides. Ownership: a memtable is guarded by its
// shard's mutex, exactly like the shard's tree — the query path reads it
// only inside Postings, and flush swaps it out under the same lock.
type memtable struct {
	entries map[CellKey]map[ObjectID]memEntry
}

func newMemtable() *memtable {
	return &memtable{entries: make(map[CellKey]map[ObjectID]memEntry)}
}

// apply folds one update into the overrides.
func (m *memtable) apply(u *Update) {
	for i, t := range u.Terms {
		key := CellKey{Cell: u.Cell, Term: t}
		e := m.entries[key]
		if e == nil {
			e = make(map[ObjectID]memEntry)
			m.entries[key] = e
		}
		if u.Kind == UpdateDelete {
			e[u.Obj] = memEntry{del: true}
		} else {
			e[u.Obj] = memEntry{weight: u.Weights[i]}
		}
	}
}

// overrides returns the pending entries for key (nil when none — the
// memtable-empty fast path).
func (m *memtable) overrides(key CellKey) map[ObjectID]memEntry {
	if m == nil || len(m.entries) == 0 {
		return nil
	}
	return m.entries[key]
}

// dirtyKeys returns the keys with pending entries, sorted — flush order
// must be deterministic so crash kill points replay identically.
func (m *memtable) dirtyKeys() []CellKey {
	keys := make([]CellKey, 0, len(m.entries))
	for k := range m.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Uint64() < keys[j].Uint64() })
	return keys
}

// clear resets the memtable after a successful flush.
func (m *memtable) clear() {
	m.entries = make(map[CellKey]map[ObjectID]memEntry)
}

// mergePostings overlays pending entries on a base posting list, keeping
// ascending ObjectID order. Deletions drop the posting, reweights replace
// the weight in place, and entries absent from the base (fresh inserts)
// are merged in by id. The result is exactly the list a full rebuild of
// the same logical object set would store, because per-object weights are
// order-independent and the base list is already ascending.
func mergePostings(base []Posting, over map[ObjectID]memEntry) []Posting {
	if len(over) == 0 {
		return base
	}
	// Collect entries that do not override a base posting; they splice in
	// by ObjectID (in practice they are fresh inserts with ids above every
	// base id, but the merge handles any interleaving).
	extra := make([]Posting, 0, len(over))
	for id, e := range over {
		if e.del {
			continue
		}
		if !postingListHas(base, id) {
			extra = append(extra, Posting{Obj: id, Weight: e.weight})
		}
	}
	sort.Slice(extra, func(i, j int) bool { return extra[i].Obj < extra[j].Obj })
	out := make([]Posting, 0, len(base)+len(extra))
	bi, ei := 0, 0
	for bi < len(base) || ei < len(extra) {
		if ei >= len(extra) || (bi < len(base) && base[bi].Obj < extra[ei].Obj) {
			p := base[bi]
			bi++
			if e, ok := over[p.Obj]; ok {
				if e.del {
					continue
				}
				p.Weight = e.weight
			}
			out = append(out, p)
			continue
		}
		out = append(out, extra[ei])
		ei++
	}
	return out
}

// postingListHas reports whether the ascending list contains id.
func postingListHas(ps []Posting, id ObjectID) bool {
	i := sort.Search(len(ps), func(i int) bool { return ps[i].Obj >= id })
	return i < len(ps) && ps[i].Obj == id
}
