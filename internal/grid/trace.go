package grid

// SearchTrace counts, for one search, what the index scanned and what it
// skipped — and why. It is the observability half of the skip machinery:
// the rectangle walk, the per-cell term-directory merge-join and the
// score cache all record their decisions here, so an EXPLAIN plan can
// report them instead of leaving them to be inferred from benchmarks.
//
// Tracing is off by default: SearchScratch.Trace is nil and the search
// paths take their untraced branches, which keeps the served hot path
// allocation- and branch-identical to before. To trace, point
// SearchScratch.Trace at a caller-owned SearchTrace before searching.
// The search only ever increments counters — it never resets them — so
// one trace can aggregate several partial searches (that is how the
// cluster coordinator merges per-node fragments). Callers reset between
// queries with Clear.
//
// A SearchTrace is owned by one search at a time; like the scratch that
// carries it, it is not safe for concurrent use.
type SearchTrace struct {
	// CellsInRect counts cells visited by the rectangle's cell walk and
	// owned by the searched cell range; every such cell lands in exactly
	// one of the four buckets below.
	CellsInRect int64
	// CellsEmpty counts cells skipped because their term directory is
	// empty (no object in the cell has any term).
	CellsEmpty int64
	// CellsNoTerm counts cells skipped because the directory merge-join
	// found no term shared with the query — the term-directory miss.
	CellsNoTerm int64
	// CellsCacheHit counts interior cells replayed from the score cache
	// instead of fetching their posting lists.
	CellsCacheHit int64
	// CellsScanned counts cells whose posting lists were actually fetched
	// and accumulated.
	CellsScanned int64

	// Lists counts posting lists fetched; Postings counts the postings
	// they held, of which PostingsFiltered were rejected by the exact
	// rectangle check (boundary cells only — interior cells skip it).
	Lists            int64
	Postings         int64
	PostingsFiltered int64
	// Objects counts distinct candidate objects produced (replayed cache
	// entries included).
	Objects int64

	// Cluster routing decisions, filled by the coordinator (not by the
	// grid itself): replica groups contacted for this search, and groups
	// skipped because their cell range misses the rectangle or their term
	// summary shares no query term.
	GroupsContacted   int64
	GroupsSkippedRect int64
	GroupsSkippedTerm int64
}

// Clear zeroes every counter, readying the trace for the next query.
// (Not named Reset: the errdrop gate matches error-returning names like
// WAL.Reset by identifier, and this one deliberately has no error.)
func (t *SearchTrace) Clear() { *t = SearchTrace{} }

// Add accumulates o into t. The cluster coordinator uses it to merge the
// per-node trace fragments of one scattered search into the query's
// trace.
func (t *SearchTrace) Add(o SearchTrace) {
	t.CellsInRect += o.CellsInRect
	t.CellsEmpty += o.CellsEmpty
	t.CellsNoTerm += o.CellsNoTerm
	t.CellsCacheHit += o.CellsCacheHit
	t.CellsScanned += o.CellsScanned
	t.Lists += o.Lists
	t.Postings += o.Postings
	t.PostingsFiltered += o.PostingsFiltered
	t.Objects += o.Objects
	t.GroupsContacted += o.GroupsContacted
	t.GroupsSkippedRect += o.GroupsSkippedRect
	t.GroupsSkippedTerm += o.GroupsSkippedTerm
}

// CellsSkipped sums the skipped-cell buckets: cells the walk visited but
// whose posting lists were never fetched.
func (t *SearchTrace) CellsSkipped() int64 {
	return t.CellsEmpty + t.CellsNoTerm + t.CellsCacheHit
}
