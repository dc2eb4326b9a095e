package grid

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/btree"
	"repro/internal/geo"
	"repro/internal/textindex"
)

// ErrShardIO marks a search failure caused by the posting store — a shard
// read that still failed after one retry. The query's result is unusable,
// but the failure is contained to that query: the HTTP layer maps it to
// 503 (retryable) rather than 400/500, and the server keeps serving.
var ErrShardIO = errors.New("grid: shard I/O failure")

// fetchPostings reads one posting list with a single retry for transient
// faults (a lost read on a loaded disk succeeds on the second attempt).
// A checksum failure (btree.ErrCorrupt) is deterministic — the page is
// bad on disk and re-reading it can only double the I/O and blur the
// scrub signal — so corruption fails typed on the first attempt. Either
// way a persistent failure surfaces as ErrShardIO wrapping the cause, so
// callers can tell "this query lost its data" from "this query was bad".
func (idx *Index) fetchPostings(key CellKey) ([]Posting, error) {
	ps, err := idx.store.Postings(key)
	if err == nil {
		return ps, nil
	}
	if !errors.Is(err, btree.ErrCorrupt) {
		if ps, rerr := idx.store.Postings(key); rerr == nil {
			return ps, nil
		}
	}
	return nil, fmt.Errorf("%w: postings(%d,%d): %w", ErrShardIO, key.Cell, key.Term, err)
}

// SearchScratch is pooled accumulator state for Index.SearchInto. The zero
// value is ready to use; a scratch may be reused across indexes (its arrays
// grow to the largest object count seen). It serves one search at a time
// and is not safe for concurrent use; pool one per worker.
type SearchScratch struct {
	epoch uint32
	// stamp[o] == epoch marks object o as touched by the current search;
	// its partial score lives in score[o]. Resetting between queries is a
	// single counter increment, not an O(objects) clear.
	stamp   []uint32
	score   []float64
	touched []ObjectID
	out     []ObjScore
	// The fetch plan in deterministic accumulation order and the fetched
	// lists (parallel to plan); with a sharded store also the plan indices
	// bucketed per shard and one error slot per shard.
	plan    []fetchRef
	fetched [][]Posting
	byShard [][]int32
	errs    []error
	// Trace, when non-nil, makes the search record its scan/skip decisions
	// there (see SearchTrace). nil — the default — keeps the search on its
	// untraced branches: no counting, no extra work on the hot path. The
	// search increments, never resets; the trace's owner resets between
	// queries.
	Trace *SearchTrace
}

// fetchRef is one planned posting-list fetch: cell, the query-term index
// qi (the key's term is q.Terms[qi]), the directory's recorded list
// length, and whether the cell lies fully inside the query rectangle.
type fetchRef struct {
	cell       uint32
	qi         int32
	count      int32
	fullInside bool
}

// reset prepares the scratch for an index with n objects.
func (s *SearchScratch) reset(n int) {
	if cap(s.stamp) < n {
		s.stamp = make([]uint32, n)
		s.score = make([]float64, n)
	}
	s.stamp = s.stamp[:n]
	s.score = s.score[:n]
	s.epoch++
	if s.epoch == 0 { // wrapped after 2³² queries: stale stamps could collide
		clear(s.stamp[:cap(s.stamp)]) // full capacity: the tail may serve a larger index later
		s.epoch = 1
	}
	s.touched = s.touched[:0]
}

// SearchInto returns every object inside r with a positive relevance to
// q, computed from the cell inverted lists as in Equation (2): it reads
// the posting lists of the query keywords in the overlapping cells and
// accumulates (1/W_Q) Σ w_{Q,t}·wto(t) per object; objects in boundary
// cells but outside r are filtered by their exact location. Results are
// sorted by ascending ObjectID — downstream floating-point accumulation
// (node weights in dataset.Planner) depends on that order for the
// parallel engine's golden guarantee. Scores accumulate into s's
// epoch-stamped arrays, and the returned slice aliases s, valid only
// until the next SearchInto call on the same scratch. With a
// MemStore-backed index the steady state performs zero allocations; with
// a sharded disk store the posting fetches of one query fan out across
// the shards concurrently (the accumulation order — and therefore every
// floating-point sum — stays identical).
func (idx *Index) SearchInto(q textindex.Query, r geo.Rect, s *SearchScratch) ([]ObjScore, error) {
	return idx.SearchRangeInto(q, r, 0, ^uint32(0), s)
}

// SearchRangeInto is SearchInto restricted to the cells whose id lies in
// [cellLo, cellHi): it accumulates exactly the contributions SearchInto
// would accumulate from those cells — same per-cell accumulation order,
// same floating-point sums — and nothing else. Because every object's
// postings live entirely in its one cell, the results of SearchRangeInto
// over a partition of the cell space are disjoint per object, and their
// union (re-sorted by ObjectID) is bit-identical to one SearchInto over
// the whole grid. That property is what lets a cluster node answer a
// partial search for its owned cell range (see internal/cluster).
func (idx *Index) SearchRangeInto(q textindex.Query, r geo.Rect, cellLo, cellHi uint32, s *SearchScratch) ([]ObjScore, error) {
	if len(q.Terms) == 0 || q.Norm == 0 {
		return nil, nil
	}
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	s.reset(len(idx.objects))
	x0, x1, y0, y1, ok := idx.cellRange(r)
	if !ok {
		return s.out[:0], nil
	}
	// The walk runs in three phases: (1) plan — visit the cells in row-major
	// order and merge-join the query terms against each cell directory,
	// recording every (cell, term) posting list to read, in order; (2) fetch
	// the planned lists; (3) accumulate them serially in plan order. The
	// plan order is the one accumulation order for every store, so scores
	// are bit-identical whether the fetch ran in a loop or fanned out.
	sc := idx.scoreCache
	var sig uint64
	if sc != nil {
		sig = q.Signature()
	}
	s.plan = s.plan[:0]
	tr := s.Trace
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			cell := uint32(cy*idx.nx + cx)
			if cell < cellLo || cell >= cellHi {
				continue
			}
			if tr != nil {
				tr.CellsInRect++
			}
			dir := idx.cellDir[cell]
			if len(dir) == 0 {
				if tr != nil {
					tr.CellsEmpty++
				}
				continue
			}
			fullInside := idx.cellInside(cell, r)
			// Only interior cells are cacheable: their contribution does not
			// depend on the exact query rectangle. Cached cells replay here
			// and are excluded from the fetch plan — a hot query over a warm
			// cache plans zero posting fetches. Cell order does not affect
			// the result: every object's score comes wholly from its one
			// cell, and the touched set is sorted below.
			if sc != nil && fullInside && sc.replay(cell, q, sig, idx.epoch, s) {
				if tr != nil {
					tr.CellsCacheHit++
				}
				continue
			}
			planStart := len(s.plan)
			qi, di := 0, 0
			for qi < len(q.Terms) && di < len(dir) {
				switch {
				case q.Terms[qi] < dir[di].term:
					qi++
				case q.Terms[qi] > dir[di].term:
					di++
				default:
					s.plan = append(s.plan, fetchRef{cell: cell, qi: int32(qi), count: dir[di].count, fullInside: fullInside})
					qi++
					di++
				}
			}
			if tr != nil {
				// A merge-join that planned nothing is the term-directory
				// miss; anything else is a real scan.
				if len(s.plan) == planStart {
					tr.CellsNoTerm++
				} else {
					tr.CellsScanned++
					tr.Lists += int64(len(s.plan) - planStart)
				}
			}
			if sc != nil && fullInside && len(s.plan) == planStart {
				// The cell shares no terms with the query: cache that as an
				// empty contribution so the next repeat skips the merge-join.
				sc.fill(cell, q, sig, idx.epoch, nil, nil)
			}
		}
	}
	if err := idx.fetch(q, s); err != nil {
		clear(s.fetched) // drop the lists fetched before the failure
		return nil, err
	}
	// Accumulate in plan order, grouping the consecutive fetches of each
	// cell (the plan is cell-major) so a just-computed interior cell can be
	// cached as one entry.
	for i := 0; i < len(s.plan); {
		cell := s.plan[i].cell
		fullInside := s.plan[i].fullInside
		pre := len(s.touched)
		j := i
		for ; j < len(s.plan) && s.plan[j].cell == cell; j++ {
			ref := s.plan[j]
			// The directory records the list length, so the touched set can
			// grow once up front instead of reallocating mid-scan.
			s.touched = slices.Grow(s.touched, int(ref.count))
			idx.accumulate(r, s.fetched[j], q.IDF[ref.qi], ref.fullInside, s)
			s.fetched[j] = nil // drop the reference; the lists die with this query
		}
		if sc != nil && fullInside {
			sc.fill(cell, q, sig, idx.epoch, s.touched[pre:], s.score)
		}
		i = j
	}
	if tr != nil {
		tr.Objects += int64(len(s.touched))
	}
	slices.Sort(s.touched)
	if cap(s.out) < len(s.touched) {
		s.out = make([]ObjScore, 0, len(s.touched))
	}
	s.out = s.out[:0]
	for _, id := range s.touched {
		s.out = append(s.out, ObjScore{Obj: id, Score: s.score[id] / q.Norm})
	}
	return s.out, nil
}

// cellInside reports whether cell lies fully inside r (objects then need
// no per-point containment check).
func (idx *Index) cellInside(cell uint32, r geo.Rect) bool {
	cr := idx.cellRect(cell)
	return cr.MinX >= r.MinX && cr.MaxX <= r.MaxX && cr.MinY >= r.MinY && cr.MaxY <= r.MaxY
}

// accumulate folds one posting list into the scratch with the query-side
// weight idf. The trace counters are added once per list, after the loop,
// so the per-posting path carries no trace branch.
func (idx *Index) accumulate(r geo.Rect, ps []Posting, idf float64, fullInside bool, s *SearchScratch) {
	filtered := 0
	for _, p := range ps {
		if !fullInside && !r.Contains(idx.objects[p.Obj].Point) {
			filtered++
			continue
		}
		if s.stamp[p.Obj] != s.epoch {
			s.stamp[p.Obj] = s.epoch
			s.score[p.Obj] = 0
			s.touched = append(s.touched, p.Obj)
		}
		s.score[p.Obj] += idf * p.Weight
	}
	if tr := s.Trace; tr != nil {
		tr.Postings += int64(len(ps))
		tr.PostingsFiltered += int64(filtered)
	}
}

// fetch reads every planned posting list into s.fetched (parallel to
// s.plan). Over a sharded store the reads are bucketed by owning shard
// and each shard's lists are fetched from its own goroutine, so one
// query's cold reads load all shards concurrently and never block on a
// foreign shard's lock; any other store is read in a plain loop.
func (idx *Index) fetch(q textindex.Query, s *SearchScratch) error {
	if len(s.plan) == 0 {
		return nil // e.g. a hot query replayed wholly from the score cache
	}
	s.fetched = slices.Grow(s.fetched[:0], len(s.plan))[:len(s.plan)]
	if idx.sharded == nil {
		for i, ref := range s.plan {
			ps, err := idx.fetchPostings(CellKey{Cell: ref.cell, Term: q.Terms[ref.qi]})
			if err != nil {
				return err
			}
			s.fetched[i] = ps
		}
		return nil
	}
	n := idx.sharded.NumShards()
	if cap(s.byShard) < n {
		s.byShard = make([][]int32, n)
		s.errs = make([]error, n)
	}
	byShard := s.byShard[:n]
	errs := s.errs[:n]
	for i := range byShard {
		byShard[i] = byShard[i][:0]
		errs[i] = nil
	}
	for i, ref := range s.plan {
		sh := idx.sharded.ShardOf(CellKey{Cell: ref.cell, Term: q.Terms[ref.qi]})
		byShard[sh] = append(byShard[sh], int32(i))
	}
	var wg sync.WaitGroup
	for sh := 0; sh < n; sh++ {
		if len(byShard[sh]) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			for _, pi := range byShard[sh] {
				ref := s.plan[pi]
				ps, err := idx.fetchPostings(CellKey{Cell: ref.cell, Term: q.Terms[ref.qi]})
				if err != nil {
					errs[sh] = err
					return
				}
				s.fetched[pi] = ps
			}
		}(sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// clampCell clamps a cell coordinate to [0, hi].
func clampCell(v, hi int) int {
	if v < 0 {
		return 0
	}
	if v > hi {
		return hi
	}
	return v
}
