package core

import (
	"context"
	"math/bits"
	"slices"

	"repro/internal/cancel"
	"repro/internal/container"
	"repro/internal/kmst"
	"repro/internal/pcst"
)

// SolveScratch is the pooled per-worker working state of the solve phase:
// epoch-stamped sets for every per-query boolean the solvers track (TGEN's
// processed/enqueued/edgeDone, Greedy's region membership), a free-list
// Region arena behind the tuple machinery, the tuple arrays of Definitions
// 5/6 in their two layouts (tupleSlot for TGEN, tupleEntry for
// findOptTree), the pooled kmst/pcst solver state APP drives, and the top-k
// sub-instance. A warm scratch answers queries with zero steady-state
// allocations.
//
// Ownership rules: a SolveScratch serves one goroutine; pool one per
// worker (dataset.Planner embeds one). The *Region returned by a SolveX
// call aliases the scratch's arenas and is valid only until the next
// solve on the same scratch — copy it out to retain it.
type SolveScratch struct {
	pool    regionPool
	scaling Scaling
	best    *poolRegion
	cancel  cancel.Check

	// Tuple arrays: TGEN's are graph-indexed and direct-indexed by scaled
	// weight, findOptTree's are tree-local indexed and sorted.
	arrays     [][]tupleSlot
	treeArrays [][]tupleEntry

	// TGEN traversal state.
	processed stampSet // nodes whose tuple array has been dropped
	enqueued  stampSet
	edgeDone  stampSet
	marks     stampSet // combineAcross: the nodes of the current outer tuple
	queue     []int32
	newTuples []*poolRegion
	order     []int32 // OrderAscLength edge order
	remaining []int32 // OrderAscLength per-node unprocessed-edge counts

	// Greedy state.
	inRegion stampSet
	noBan    []bool // all-false banned slice (nothing ever writes true)
	gRegion  Region

	// APP state.
	pcstEdges []pcst.Edge
	tcEdges   []int32 // kmst.Result.Edges converted to int32
	garg      *kmst.GargSolver
	spt       *kmst.SPTSolver

	// findOptTree state (local tree indices via pos remap).
	pos      []int32
	deg      []int32
	removed  []bool
	adjOffs  []int32
	adjTo    []int32
	adjEdge  []int32
	cursor   []int32
	foQueue  []int32
	snapshot []tupleEntry

	topk topKState
}

// NewSolveScratch returns an empty scratch; it warms up as it serves.
func NewSolveScratch() *SolveScratch { return &SolveScratch{} }

// begin starts a new query: all regions handed out by the previous query
// die and their storage is recycled, and the cancellation checkpoint is
// re-armed on ctx. Because every solve starts from this full reset, a
// solve abandoned mid-way by cancellation leaves the scratch safe to
// reuse: the next begin reclaims every region and re-stamps every set.
func (s *SolveScratch) begin(ctx context.Context) {
	s.pool.reset()
	s.best = nil
	s.cancel.Reset(ctx)
}

// resetArrays sizes arrays to n empty tuple arrays, keeping the entry
// capacity grown by earlier queries.
func resetArrays[T any](arrays [][]T, n int) [][]T {
	if cap(arrays) < n {
		arrays = append(arrays[:cap(arrays)], make([][]T, n-cap(arrays))...)
	}
	arrays = arrays[:n]
	for i := range arrays {
		arrays[i] = arrays[i][:0]
	}
	return arrays
}

// considerScore offers r as the query answer under betterScore (original
// weights), taking a reference when it wins.
func (s *SolveScratch) considerScore(r *poolRegion) {
	var cur *Region
	if s.best != nil {
		cur = &s.best.Region
	}
	if r.Region.betterScore(cur) {
		if s.best != nil {
			s.pool.deref(s.best)
		}
		s.pool.ref(r)
		s.best = r
	}
}

// considerFeasible is considerScore gated on the length budget (the
// findOptTree consider).
func (s *SolveScratch) considerFeasible(r *poolRegion, delta float64) {
	if r.Length <= delta {
		s.considerScore(r)
	}
}

// bestRegion returns the tracked best as a plain *Region (nil when none).
// This is the answer boundary: combine leaves node lists in concatenation
// order, so the one region that leaves the solver is sorted here to restore
// the ascending order Region documents.
func (s *SolveScratch) bestRegion() *Region {
	if s.best == nil {
		return nil
	}
	slices.Sort(s.best.Nodes)
	return &s.best.Region
}

// singleton builds the one-node region {v} in the arena (scaled weight
// from the scratch's current scaling).
func (s *SolveScratch) singleton(in *Instance, v NodeID) *poolRegion {
	r := s.pool.newRegion()
	nodes := s.pool.allocInts(1)
	nodes[0] = v
	r.Region = Region{Score: in.Weights[v], Scaled: s.scaling.Scaled[v], Nodes: nodes}
	return r
}

// combine joins two node-disjoint regions through the edge with index
// edgeIdx, producing a new region per the tuple-generation rule of §5. The
// caller guarantees disjointness (Lemma 9) and that the edge connects a node
// of a to a node of b. Edges are a's, b's, then the joining edge (the order
// the goldens record); nodes are concatenated, not merged — nothing inside
// the solvers reads node order (the cycle test uses marks, per-node updates
// are independent), and bestRegion sorts the answer.
func (s *SolveScratch) combine(in *Instance, a, b *poolRegion, edgeIdx int32) *poolRegion {
	e := in.Edges[edgeIdx]
	out := s.pool.newRegion()
	nodes := s.pool.allocInts(len(a.Nodes) + len(b.Nodes))
	copy(nodes, a.Nodes)
	copy(nodes[len(a.Nodes):], b.Nodes)
	edges := s.pool.allocInts(len(a.Edges) + len(b.Edges) + 1)
	copy(edges, a.Edges)
	copy(edges[len(a.Edges):], b.Edges)
	edges[len(edges)-1] = edgeIdx
	out.Region = Region{
		Length: a.Length + b.Length + e.Length,
		Score:  a.Score + b.Score,
		Scaled: a.Scaled + b.Scaled,
		Nodes:  nodes,
		Edges:  edges,
	}
	return out
}

// combineAcross is the TGEN pair kernel, shared by both edge orders: it
// joins every tuple of node vi's array with every tuple of vj's through
// edge edgeIdx and collects the results installNew would keep in
// s.newTuples, in (vi outer, vj inner) ascending-key order. Rejections run
// cheapest first and nothing is built that installNew would discard: the
// length sum — the very expression combine stores, so a pair survives iff
// its region is feasible — is three floats from the slots; the Lemma 9
// cycle test is an early-exit scan of t2's nodes against marks of t1's,
// made once per outer row; the keep-check (keeps) is installNew's accept
// rule; only survivors are materialised. A row whose t1 alone busts the
// budget is skipped whole (lengths are non-negative and float addition is
// monotone, so every pair of the row would fail). One cancellation tick per
// outer row: a single edge can run to ~10⁵ pairs, so per-edge ticks alone
// would not bound the post-cancel work. On cancel the partial s.newTuples
// is left for the next begin to reclaim.
func (s *SolveScratch) combineAcross(in *Instance, vi, vj, edgeIdx int32, delta float64) {
	eLen := in.Edges[edgeIdx].Length
	viArr, vjArr := s.arrays[vi], s.arrays[vj]
	newTuples := s.newTuples[:0]
	for k1 := range viArr {
		t1 := &viArr[k1]
		if t1.r == nil {
			continue // hole
		}
		if s.cancel.Tick() {
			break
		}
		if t1.length+eLen > delta {
			continue
		}
		s.marks.begin(in.NumNodes)
		for _, v := range t1.r.Nodes {
			s.marks.add(v)
		}
		for k2 := range vjArr {
			t2 := &vjArr[k2]
			if t2.r == nil {
				continue
			}
			length := t1.length + t2.length + eLen
			if length > delta {
				continue
			}
			if s.marks.hasAny(t2.r.Nodes) {
				continue // Lemma 9: would close a cycle
			}
			if !s.keeps(t1.r, t2.r, int64(k1+k2), length) {
				continue
			}
			newTuples = append(newTuples, s.combine(in, t1.r, t2.r, edgeIdx))
		}
	}
	s.newTuples = newTuples
}

// keeps reports whether installNew would keep the region combine(a, b)
// builds, of scaled weight k and length length: as the answer under
// betterScore, or in the array of some undropped node of a or b. Checked
// before installNew runs, it can only say keep too often, never too
// seldom: until then the best only improves, stored lengths only shrink,
// and the set of dropped nodes only grows.
func (s *SolveScratch) keeps(a, b *poolRegion, k int64, length float64) bool {
	if beats(a.Score+b.Score, length, &s.best.Region) { // the singletons set a best
		return true
	}
	return s.admitsAny(a.Nodes, k, length) || s.admitsAny(b.Nodes, k, length)
}

// admitsAny reports whether the array of some undropped node of nodes
// admits a region of scaled weight k and length length.
func (s *SolveScratch) admitsAny(nodes []int32, k int64, length float64) bool {
	for _, v := range nodes {
		if !s.processed.has(v) && s.admits(v, k, length) {
			return true
		}
	}
	return false
}

// installNew offers the tuples combineAcross collected as the answer and
// installs each into the array of every node it contains whose array has not
// been dropped (s.processed). Tuples stored nowhere are recycled at once.
func (s *SolveScratch) installNew() {
	for _, nr := range s.newTuples {
		s.considerScore(nr)
		for _, v := range nr.Nodes {
			if s.processed.has(v) {
				continue // discarded arrays stay discarded
			}
			s.update(v, nr)
		}
		if nr.refs == 0 {
			s.pool.free(nr) // stored nowhere and not the best
		}
	}
}

// admits reports whether update would store a region of scaled weight k
// and length length in the TGEN array at idx: per scaled weight the array
// keeps the shortest region seen, replacing only on a strictly shorter one.
// The keep-check of combineAcross applies the same rule.
func (s *SolveScratch) admits(idx int32, k int64, length float64) bool {
	ta := s.arrays[idx]
	return k >= int64(len(ta)) || ta[k].r == nil || length < ta[k].length
}

// update installs r into the TGEN tuple array at idx (Definitions 5/6) if
// admits allows, growing the array to r's key on demand.
func (s *SolveScratch) update(idx int32, r *poolRegion) {
	k := r.Scaled
	if !s.admits(idx, k, r.Length) {
		return
	}
	ta := s.arrays[idx]
	if n := int64(len(ta)); k >= n {
		ta = slices.Grow(ta, int(k+1-n))[:k+1]
		clear(ta[n:]) // capacity kept from an earlier query holds stale slots
		s.arrays[idx] = ta
	}
	if old := ta[k].r; old != nil {
		s.pool.deref(old)
	}
	s.pool.ref(r)
	ta[k] = tupleSlot{length: r.Length, r: r}
}

// dropArray releases every tuple of the TGEN array at idx (the §5 memory
// optimization: a finished node's array is discarded).
func (s *SolveScratch) dropArray(idx int32) {
	ta := s.arrays[idx]
	for k := range ta {
		if ta[k].r != nil {
			s.pool.deref(ta[k].r)
			ta[k].r = nil
		}
	}
	s.arrays[idx] = ta[:0]
}

// updateTree is update for findOptTree's sorted arrays: a binary search
// for r's key, then a replace on a strictly shorter region or an insert.
func (s *SolveScratch) updateTree(idx int32, r *poolRegion) bool {
	ta := s.treeArrays[idx]
	lo, hi := 0, len(ta)
	for lo < hi {
		mid := (lo + hi) / 2
		if ta[mid].scaled < r.Scaled {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ta) && ta[lo].scaled == r.Scaled {
		if r.Length < ta[lo].length {
			s.pool.deref(ta[lo].r)
			s.pool.ref(r)
			ta[lo].length, ta[lo].r = r.Length, r
			return true
		}
		return false
	}
	ta = append(ta, tupleEntry{})
	copy(ta[lo+1:], ta[lo:])
	ta[lo] = tupleEntry{scaled: r.Scaled, length: r.Length, r: r}
	s.pool.ref(r)
	s.treeArrays[idx] = ta
	return true
}

// dropTreeArray releases every tuple of findOptTree's array at idx.
func (s *SolveScratch) dropTreeArray(idx int32) {
	ta := s.treeArrays[idx]
	for i := range ta {
		s.pool.deref(ta[i].r)
		ta[i].r = nil
	}
	s.treeArrays[idx] = ta[:0]
}

// The tuple arrays have one layout per algorithm, because their keys differ
// in density. TGEN's are dense: on ~290-node viewports at the served
// σ̂max ≈ 9, a node's array holds 59–63 regions over a key width of 62–66
// (93–95 %; 84–89 % at σ̂max 72). So tupleSlot is indexed directly by
// scaled weight, and a probe is one load. findOptTree's keys are ~1 %
// dense (18–32 entries over a width of ~2,600 at APP's α = 0.5), so
// tupleEntry stays sorted: prototypes that indexed them directly grew
// solve_app's live heap by 11.8 %, and by hash 6.3 % with APP p50 3–4 %
// slower.

// tupleSlot is slot k of a TGEN tuple array: the shortest region of
// scaled weight k seen at the node, with r == nil marking a hole. It
// carries the region's length inline so the pair loop and the keep-check
// read contiguous slots without dereferencing r.
type tupleSlot struct {
	length float64 // == r.Length
	r      *poolRegion
}

// tupleEntry is one entry of a findOptTree tuple array, sorted by scaled
// weight, with the key and length inline like tupleSlot's.
type tupleEntry struct {
	scaled int64
	length float64 // == r.Length
	r      *poolRegion
}

// poolRegion is a Region plus the reference count of the free-list arena:
// how many tuple arrays (and possibly the best-answer slot) point at it.
type poolRegion struct {
	Region
	refs int32
}

// regionPool is the free-list Region arena: region structs come from
// chunked storage so pointers stay stable, node/edge lists come from
// power-of-two size classes, and both are recycled the moment a region's
// last reference drops. reset reclaims everything at once between queries.
type regionPool struct {
	chunks   [][]poolRegion
	ci, off  int
	freeRegs []*poolRegion

	ints      container.Arena[int32]
	freeSlice [32][][]int32 // by log2(capacity)
}

const regionChunk = 512

// reset recycles every region and slice handed out since the last reset.
func (p *regionPool) reset() {
	p.ci, p.off = 0, 0
	p.freeRegs = p.freeRegs[:0]
	for c := range p.freeSlice {
		p.freeSlice[c] = p.freeSlice[c][:0]
	}
	p.ints.Reset()
}

// newRegion returns a region with refs == 0; the caller sets every field.
func (p *regionPool) newRegion() *poolRegion {
	if n := len(p.freeRegs); n > 0 {
		r := p.freeRegs[n-1]
		p.freeRegs = p.freeRegs[:n-1]
		r.refs = 0
		return r
	}
	for {
		if p.ci == len(p.chunks) {
			p.chunks = append(p.chunks, make([]poolRegion, regionChunk))
		}
		if p.off < len(p.chunks[p.ci]) {
			r := &p.chunks[p.ci][p.off]
			p.off++
			r.refs = 0
			return r
		}
		p.ci++
		p.off = 0
	}
}

// allocInts returns a slice of length n whose capacity is the n's
// power-of-two size class, recycled from the class free list when
// possible. n == 0 returns nil (singleton regions have nil edge lists).
func (p *regionPool) allocInts(n int) []int32 {
	if n == 0 {
		return nil
	}
	c := sizeClass(n)
	if l := len(p.freeSlice[c]); l > 0 {
		s := p.freeSlice[c][l-1]
		p.freeSlice[c] = p.freeSlice[c][:l-1]
		return s[:n]
	}
	return p.ints.Alloc(1 << c)[:n]
}

// sizeClass returns ceil(log2(n)) for n >= 1.
func sizeClass(n int) int {
	return bits.Len(uint(n - 1))
}

// ref takes a reference on r.
func (p *regionPool) ref(r *poolRegion) { r.refs++ }

// deref drops a reference, recycling r when it was the last one.
func (p *regionPool) deref(r *poolRegion) {
	r.refs--
	if r.refs == 0 {
		p.free(r)
	}
}

// free recycles an unreferenced region: its node/edge lists return to
// their size-class free lists and the struct to the region free list.
// The caller guarantees no live pointer to r remains.
func (p *regionPool) free(r *poolRegion) {
	if cap(r.Nodes) > 0 {
		p.freeSlice[sizeClass(cap(r.Nodes))] = append(p.freeSlice[sizeClass(cap(r.Nodes))], r.Nodes[:cap(r.Nodes)])
	}
	if cap(r.Edges) > 0 {
		p.freeSlice[sizeClass(cap(r.Edges))] = append(p.freeSlice[sizeClass(cap(r.Edges))], r.Edges[:cap(r.Edges)])
	}
	r.Region = Region{}
	p.freeRegs = append(p.freeRegs, r)
}

// stampSet is an epoch-stamped boolean array: begin starts a new
// generation in O(1), membership is stamp[i] == epoch.
type stampSet struct {
	stamp []uint32
	epoch uint32
}

// begin resets the set to empty over the domain [0, n).
func (s *stampSet) begin(n int) {
	if cap(s.stamp) < n {
		s.stamp = make([]uint32, n)
	}
	s.stamp = s.stamp[:n]
	s.epoch++
	if s.epoch == 0 { // uint32 wrap: stale stamps would alias the new epoch
		full := s.stamp[:cap(s.stamp)] // clear the whole capacity, not just [0,n)
		for i := range full {
			full[i] = 0
		}
		s.epoch = 1
	}
}

// has reports membership of i.
func (s *stampSet) has(i int32) bool { return s.stamp[i] == s.epoch }

// hasAny reports whether any of ids is a member.
func (s *stampSet) hasAny(ids []int32) bool {
	for _, i := range ids {
		if s.stamp[i] == s.epoch {
			return true
		}
	}
	return false
}

// add inserts i.
func (s *stampSet) add(i int32) { s.stamp[i] = s.epoch }
