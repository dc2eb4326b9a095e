package grid

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/textindex"
)

// This file implements the hot-query score cache: a bounded, lock-striped
// map of (cell, query-signature) → the cell's per-object partial score
// sums, stamped with the Index update epoch that produced them. Real map
// traffic is Zipfian — everyone queries downtown — so the same (cell,
// query) multiply-accumulate is recomputed endlessly while mutations only
// occasionally invalidate it. A hit replays the stored (object, score)
// pairs into the SearchScratch instead of fetching and scanning posting
// lists; because every object lives in exactly one cell (all its postings
// are in that cell), the stored sum IS the object's complete pre-norm
// score, so a replayed query is bit-identical to a recomputed one no
// matter which cells hit.
//
// Correctness rules:
//
//   - Only cells fully inside the query rectangle are cached: their
//     contribution is rectangle-independent, while boundary cells filter
//     postings by the exact rectangle.
//   - An entry is valid only for the exact update epoch it was filled at.
//     Insert/Delete/Reweight/Compact all bump the epoch (live.go), so
//     every mutation invalidates the whole cache for free — stale entries
//     age out through the clock eviction instead of being swept.
//   - The signature is a hash, not an identity: a hit additionally
//     verifies the stored term list AND the stored query-side IDF weights
//     (IDF drifts as documents are indexed even for an unchanged term
//     set). A colliding signature therefore misses instead of serving
//     another query's scores.
//
// Ownership: the cache owns every slice in its entries; fills copy in,
// replays copy out into the caller's scratch while holding the stripe
// lock. Evicted entries keep their slices and are refilled in place, so
// the steady state — hits and even evict-refill cycles — allocates
// nothing.

// scoreCacheStripes is the number of independently locked stripes. Must
// be a power of two. 16 stripes keep a handful of query workers from
// serializing on one mutex.
const scoreCacheStripes = 16

// ScoreCacheStats are the score cache's monotonic counters plus its
// current live entry count. The JSON form is the score_cache fragment of
// the HTTP front end's GET /stats.
type ScoreCacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
}

// cacheKey addresses one entry: a cell and a query signature.
type cacheKey struct {
	cell uint32
	sig  uint64
}

// cacheEntry is one cached cell contribution. scores[i] is the complete
// pre-norm partial score Σ_t w_{Q,t}·wto(t) of objs[i] accumulated over
// the cell's posting lists in ascending-term order — exactly the value
// SearchInto computes for that object, since an object's postings never
// span cells.
type cacheEntry struct {
	key    cacheKey
	epoch  uint64
	live   bool
	used   bool // clock reference bit
	terms  []textindex.TermID
	idf    []float64
	objs   []ObjectID
	scores []float64
}

// cacheStripe is one lock domain: a fixed slot array with a key index and
// a clock hand for second-chance eviction.
type cacheStripe struct {
	mu      sync.Mutex
	index   map[cacheKey]int32
	entries []cacheEntry
	hand    int
}

// scoreCache is the sharded cache. Counters are atomics so the read path
// never takes a lock beyond its own stripe.
type scoreCache struct {
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	stripes   [scoreCacheStripes]cacheStripe
}

// newScoreCache returns a cache bounded to roughly `entries` entries
// (rounded up to a multiple of the stripe count).
func newScoreCache(entries int) *scoreCache {
	if entries < scoreCacheStripes {
		entries = scoreCacheStripes
	}
	per := (entries + scoreCacheStripes - 1) / scoreCacheStripes
	c := &scoreCache{}
	for i := range c.stripes {
		c.stripes[i].index = make(map[cacheKey]int32, per)
		c.stripes[i].entries = make([]cacheEntry, per)
	}
	return c
}

// stripeOf maps a key to its stripe by mixing the cell into the
// signature, so the many cells of one hot query spread across stripes.
func (c *scoreCache) stripeOf(k cacheKey) *cacheStripe {
	h := (k.sig ^ uint64(k.cell)) * 0x9E3779B97F4A7C15
	return &c.stripes[h>>(64-4)] // top log2(scoreCacheStripes) bits
}

// replay looks up (cell, sig) and, on a valid hit, copies the entry's
// contributions into the scratch exactly as accumulate would have. It
// reports whether the cell was served from cache.
func (c *scoreCache) replay(cell uint32, q textindex.Query, sig, epoch uint64, s *SearchScratch) bool {
	k := cacheKey{cell: cell, sig: sig}
	st := c.stripeOf(k)
	st.mu.Lock()
	i, ok := st.index[k]
	if !ok {
		st.mu.Unlock()
		c.misses.Add(1)
		return false
	}
	e := &st.entries[i]
	if e.epoch != epoch || !slices.Equal(e.terms, q.Terms) || !slices.Equal(e.idf, q.IDF) {
		// Stale epoch or a signature collision: miss. The entry stays; the
		// subsequent fill for this query overwrites it in place.
		st.mu.Unlock()
		c.misses.Add(1)
		return false
	}
	e.used = true
	s.touched = slices.Grow(s.touched, len(e.objs))
	for j, id := range e.objs {
		if s.stamp[id] != s.epoch {
			s.stamp[id] = s.epoch
			s.score[id] = e.scores[j]
			s.touched = append(s.touched, id)
		} else {
			// Unreachable while objects live in exactly one cell; folded in
			// like accumulate would for safety.
			s.score[id] += e.scores[j]
		}
	}
	st.mu.Unlock()
	c.hits.Add(1)
	return true
}

// fill stores a just-computed cell contribution: objs are the objects the
// cell touched (a segment of the scratch's touched list) and score is the
// scratch's score array they index into. Nil objs caches an empty cell —
// a hit that skips the merge-join entirely.
func (c *scoreCache) fill(cell uint32, q textindex.Query, sig, epoch uint64, objs []ObjectID, score []float64) {
	k := cacheKey{cell: cell, sig: sig}
	st := c.stripeOf(k)
	st.mu.Lock()
	defer st.mu.Unlock()
	var e *cacheEntry
	if i, ok := st.index[k]; ok {
		e = &st.entries[i]
	} else {
		i := st.evictSlotLocked()
		e = &st.entries[i]
		if e.live {
			delete(st.index, e.key)
			c.evictions.Add(1)
		}
		st.index[k] = i
	}
	e.key = k
	e.epoch = epoch
	e.live = true
	e.used = true
	e.terms = append(e.terms[:0], q.Terms...)
	e.idf = append(e.idf[:0], q.IDF...)
	e.objs = e.objs[:0]
	e.scores = e.scores[:0]
	for _, id := range objs {
		e.objs = append(e.objs, id)
		e.scores = append(e.scores, score[id])
	}
}

// evictSlotLocked returns the slot the next fill may overwrite: the first
// dead slot, else the first slot the clock hand finds with its reference
// bit clear (clearing bits as it sweeps — second chance).
func (st *cacheStripe) evictSlotLocked() int32 {
	for {
		i := st.hand
		st.hand++
		if st.hand == len(st.entries) {
			st.hand = 0
		}
		e := &st.entries[i]
		if !e.live || !e.used {
			return int32(i)
		}
		e.used = false
	}
}

// stats snapshots the counters and live entry count.
func (c *scoreCache) stats() ScoreCacheStats {
	out := ScoreCacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
	for i := range c.stripes {
		st := &c.stripes[i]
		st.mu.Lock()
		out.Entries += len(st.index)
		st.mu.Unlock()
	}
	return out
}

// SetScoreCache enables a bounded score cache of roughly `entries`
// cached (cell, query) contributions, or disables caching when entries
// <= 0 (the default — the cache costs a signature hash plus a striped
// lookup per interior cell, which only pays off under repeated queries).
// Safe to call on a serving index; the previous cache is dropped whole.
func (idx *Index) SetScoreCache(entries int) {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	if entries <= 0 {
		idx.scoreCache = nil
		return
	}
	idx.scoreCache = newScoreCache(entries)
}

// ScoreCacheStats reports the score cache's counters; ok is false when
// no cache is configured.
func (idx *Index) ScoreCacheStats() (stats ScoreCacheStats, ok bool) {
	idx.mu.RLock()
	sc := idx.scoreCache
	idx.mu.RUnlock()
	if sc == nil {
		return ScoreCacheStats{}, false
	}
	return sc.stats(), true
}
