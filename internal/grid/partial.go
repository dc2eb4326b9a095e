package grid

import (
	"sort"

	"repro/internal/geo"
	"repro/internal/textindex"
)

// This file exports the cell-range metadata a cluster routing tier needs:
// how many cells the grid has, whether a query rectangle touches a given
// cell-id range, and which terms appear anywhere in a range. Together with
// SearchRangeInto they let a coordinator split the cell space [0, NumCells)
// across node processes, route each query only to the nodes whose ranges
// intersect its rectangle, and skip nodes whose ranges cannot contain any
// query term at all (see internal/cluster).

// NumCells returns the total number of grid cells; cell ids are dense in
// [0, NumCells).
func (idx *Index) NumCells() int { return idx.nx * idx.ny }

// RangeOverlapsRect reports whether any cell with id in [cellLo, cellHi)
// intersects r. Cell ids are row-major, so a rectangle's cells form one
// id segment per row; the check walks those segments, not the cells.
func (idx *Index) RangeOverlapsRect(cellLo, cellHi uint32, r geo.Rect) bool {
	if cellLo >= cellHi {
		return false
	}
	x0, x1, y0, y1, ok := idx.cellRange(r)
	if !ok {
		return false
	}
	for cy := y0; cy <= y1; cy++ {
		rowLo := uint32(cy*idx.nx + x0)
		rowHi := uint32(cy*idx.nx + x1)
		if rowLo < cellHi && rowHi >= cellLo {
			return true
		}
	}
	return false
}

// RangeTerms returns the distinct terms present in any cell with id in
// [cellLo, cellHi), ascending. It is the node-side half of query routing:
// a node ships this summary to the coordinator once, and the coordinator
// skips the node for every query sharing no term with it — whole-node
// data skipping from metadata alone.
func (idx *Index) RangeTerms(cellLo, cellHi uint32) []textindex.TermID {
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	seen := make(map[textindex.TermID]struct{})
	for cell, dir := range idx.cellDir {
		if cell < cellLo || cell >= cellHi {
			continue
		}
		for _, e := range dir {
			seen[e.term] = struct{}{}
		}
	}
	out := make([]textindex.TermID, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// StoreCellRange returns the cell-range assignment recorded in the
// backing sharded store's MANIFEST, if the index has one and it records
// one. It is how a cluster node discovers — and is held to — the
// assignment its store was built for.
func (idx *Index) StoreCellRange() (lo, hi uint32, ok bool) {
	if s, has := idx.store.(*ShardedStore); has {
		return s.CellRange()
	}
	return 0, 0, false
}

// TombstoneCount returns the number of deleted object ids still holding
// their slots (ids are never reused; a tombstoned id scores as an empty
// document so corpus statistics stay rebuild-identical). It is the
// observable signal for the churn-scale garbage-collection item: a count
// growing without bound is the cue to schedule an epoch-based rewrite.
func (idx *Index) TombstoneCount() int {
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	return len(idx.tombstones)
}
