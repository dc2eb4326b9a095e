package grid

import (
	"repro/internal/geo"
	"repro/internal/textindex"
)

// SearchEstimate summarizes the work a search over (q, r) would perform,
// computed from the per-cell term directories alone: no posting list is
// fetched and nothing is allocated. The counts are exact for a cold
// search (a warm score cache only ever does less), so
// they upper-bound the real work — which is what a cost model wants.
type SearchEstimate struct {
	// Cells is the rectangle walk's cell count; CellsWithTerms of them
	// share at least one term with the query.
	Cells          int
	CellsWithTerms int
	// Lists is the number of posting lists the search would fetch and
	// Postings the total postings those lists hold, per the directory's
	// recorded lengths. Postings bounds the candidate-object work.
	Lists    int
	Postings int64
}

// EstimateSearch predicts the work of SearchInto(q, r) from the cell
// directories, without touching the posting store. It takes the index
// read lock (briefly — directory entries only) and allocates nothing, so
// it is cheap enough to run per request on the serving path. A cluster
// coordinator can use it too: the coordinating database keeps the full
// directory for routing, so the estimate covers the whole grid, not one
// node's range.
func (idx *Index) EstimateSearch(q textindex.Query, r geo.Rect) SearchEstimate {
	var est SearchEstimate
	if len(q.Terms) == 0 || q.Norm == 0 {
		return est
	}
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	x0, x1, y0, y1, ok := idx.cellRange(r)
	if !ok {
		return est
	}
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			cell := uint32(cy*idx.nx + cx)
			est.Cells++
			dir := idx.cellDir[cell]
			if len(dir) == 0 {
				continue
			}
			// The same merge-join SearchRangeInto plans with, minus the fetches.
			lists := 0
			qi, di := 0, 0
			for qi < len(q.Terms) && di < len(dir) {
				switch {
				case q.Terms[qi] < dir[di].term:
					qi++
				case q.Terms[qi] > dir[di].term:
					di++
				default:
					lists++
					est.Postings += int64(dir[di].count)
					qi++
					di++
				}
			}
			if lists > 0 {
				est.CellsWithTerms++
				est.Lists += lists
			}
		}
	}
	return est
}
