package dataset

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/roadnet"
	"repro/internal/textindex"
)

// WeightMode selects how object scores become node weights, per §2:
// "Our proposal is open to different definitions of an object's weight:
// popularity as measured by numbers of check-ins, user ratings, degree of
// relevance to the query keywords, etc."
type WeightMode int

const (
	// WeightRelevance scores each matching object by its text relevance
	// σ(o.ψ, Q.ψ) (the default, used throughout the paper's evaluation).
	WeightRelevance WeightMode = iota
	// WeightRating scores each matching object by its rating/popularity
	// ("its score will be the object's rating or popularity if it matches
	// the query keywords and zero otherwise").
	WeightRating
	// WeightLanguageModel scores each matching object with the Dirichlet-
	// smoothed language model (§3: "other models can also be used, e.g.,
	// the language model").
	WeightLanguageModel
)

// Query is a full LCMSR query Q = ⟨ψ, ∆, Λ⟩ (Definition 3).
type Query struct {
	Keywords []string
	Delta    float64  // length constraint, metres
	Lambda   geo.Rect // region of interest
	Mode     WeightMode
	// Trace asks the planner to record the grid search's scan/skip
	// decisions (see grid.SearchTrace); the result surfaces as
	// QueryInstance.SearchTrace. Off by default: the untraced search path
	// is unchanged and allocation-free.
	Trace bool
}

// GenQueries generates a workload as §7.1 does: each query's rectangle has
// the given area, centred at the location of a randomly chosen object (so
// query regions follow the network distribution), clamped inside the data
// bounds; keywords are sampled from the terms appearing on objects inside
// the rectangle, weighted by their in-region frequency.
func (d *Dataset) GenQueries(rng *rand.Rand, count, numKeywords int, areaM2, delta float64) ([]Query, error) {
	if count < 1 || numKeywords < 1 {
		return nil, fmt.Errorf("dataset: need positive count and keywords, got %d, %d", count, numKeywords)
	}
	if areaM2 <= 0 || delta <= 0 {
		return nil, fmt.Errorf("dataset: need positive area and ∆, got %v, %v", areaM2, delta)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if len(d.Objects) == 0 {
		return nil, fmt.Errorf("dataset: no objects to anchor queries")
	}
	bbox := d.Graph.BBox()
	out := make([]Query, 0, count)
	for attempts := 0; len(out) < count && attempts < count*50; attempts++ {
		anchor := d.Objects[rng.Intn(len(d.Objects))].Point
		rect := clampRect(geo.RectAround(anchor, areaM2), bbox)
		// In-region term frequencies.
		freq := make(map[textindex.TermID]int)
		for _, o := range d.Objects {
			if !rect.Contains(o.Point) {
				continue
			}
			for _, t := range o.Doc.Terms {
				freq[t]++
			}
		}
		kws := sampleTerms(d.Vocab, freq, numKeywords, rng)
		if len(kws) < numKeywords {
			continue // too few distinct terms in this region; redraw
		}
		out = append(out, Query{Keywords: kws, Delta: delta, Lambda: rect})
	}
	if len(out) < count {
		return nil, fmt.Errorf("dataset: could only generate %d of %d queries (regions too sparse)", len(out), count)
	}
	return out, nil
}

// clampRect translates r so it fits inside bounds (shrinking if larger).
func clampRect(r, bounds geo.Rect) geo.Rect {
	if r.Width() > bounds.Width() {
		r.MinX, r.MaxX = bounds.MinX, bounds.MaxX
	} else {
		if r.MinX < bounds.MinX {
			d := bounds.MinX - r.MinX
			r.MinX += d
			r.MaxX += d
		}
		if r.MaxX > bounds.MaxX {
			d := r.MaxX - bounds.MaxX
			r.MinX -= d
			r.MaxX -= d
		}
	}
	if r.Height() > bounds.Height() {
		r.MinY, r.MaxY = bounds.MinY, bounds.MaxY
	} else {
		if r.MinY < bounds.MinY {
			d := bounds.MinY - r.MinY
			r.MinY += d
			r.MaxY += d
		}
		if r.MaxY > bounds.MaxY {
			d := r.MaxY - bounds.MaxY
			r.MinY -= d
			r.MaxY -= d
		}
	}
	return r
}

// sampleTerms draws distinct terms proportionally to their frequency.
func sampleTerms(v *textindex.Vocabulary, freq map[textindex.TermID]int, n int, rng *rand.Rand) []string {
	type tf struct {
		t textindex.TermID
		f int
	}
	pool := make([]tf, 0, len(freq))
	total := 0
	for t, f := range freq {
		pool = append(pool, tf{t, f})
		total += f
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i].t < pool[j].t }) // determinism
	var out []string
	for len(out) < n && len(pool) > 0 && total > 0 {
		r := rng.Intn(total)
		idx := 0
		for acc := 0; idx < len(pool); idx++ {
			acc += pool[idx].f
			if r < acc {
				break
			}
		}
		if idx >= len(pool) {
			idx = len(pool) - 1
		}
		out = append(out, v.Term(pool[idx].t))
		total -= pool[idx].f
		pool = append(pool[:idx], pool[idx+1:]...)
	}
	return out
}

// QueryInstance is the materialized per-query working graph handed to the
// core algorithms, plus the bookkeeping needed to interpret results.
type QueryInstance struct {
	In  *core.Instance
	Sub *roadnet.Subgraph
	// NodeObjects[v] lists the relevant objects (positive σ) snapped to
	// local node v.
	NodeObjects [][]grid.ObjectID
	// Prepared is the IR-model view of the keywords.
	Prepared textindex.Query
	// Scratch is the owning planner's pooled solver state. Solvers run
	// through it (queryengine.Solve does) reuse per-query working memory;
	// their result regions are valid only until the next solve on the same
	// planner. Always set by Planner.Instantiate.
	Scratch *core.SolveScratch
	// SearchTrace records the grid search's scan/skip decisions when the
	// query set Trace (nil otherwise). Like the rest of the instance it
	// aliases the owning planner's pooled state: read it before the next
	// Instantiate on the same planner, copy it to keep it.
	SearchTrace *grid.SearchTrace
}

// Detach returns a self-contained deep copy of qi: the subgraph is
// compact-copied (roadnet.Subgraph.Compact — no parent-sized remap
// arrays, no aliasing of extractor scratch), the instance, object lists,
// and prepared query get fresh right-sized storage, and the solver
// scratch is its own. The copy stays valid across later Instantiate
// calls on the owning planner and retains O(subgraph) memory, so a
// driver can pin one instance per query of a workload (see
// internal/experiments) while still instantiating through one pooled
// planner.
func (qi *QueryInstance) Detach() (*QueryInstance, error) {
	in, err := core.NewInstance(qi.In.NumNodes,
		append([]core.Edge(nil), qi.In.Edges...),
		append([]float64(nil), qi.In.Weights...))
	if err != nil {
		return nil, fmt.Errorf("dataset: detach: %w", err)
	}
	nodeObjs := make([][]grid.ObjectID, len(qi.NodeObjects))
	for i, objs := range qi.NodeObjects {
		if len(objs) > 0 {
			nodeObjs[i] = append([]grid.ObjectID(nil), objs...)
		}
	}
	prepared := qi.Prepared
	prepared.Terms = append([]textindex.TermID(nil), qi.Prepared.Terms...)
	prepared.IDF = append([]float64(nil), qi.Prepared.IDF...)
	var trace *grid.SearchTrace
	if qi.SearchTrace != nil {
		t := *qi.SearchTrace
		trace = &t
	}
	return &QueryInstance{
		In:          in,
		Sub:         qi.Sub.Compact(),
		NodeObjects: nodeObjs,
		Prepared:    prepared,
		Scratch:     &core.SolveScratch{},
		SearchTrace: trace,
	}, nil
}

// rating returns the object's popularity score (1 when none recorded).
func (d *Dataset) rating(id grid.ObjectID) float64 {
	if int(id) >= len(d.Ratings) {
		return 1
	}
	return d.Ratings[id]
}

// RegionObjects counts and lists the relevant objects inside a region
// returned by the core algorithms (local node IDs).
func (qi *QueryInstance) RegionObjects(r *core.Region) []grid.ObjectID {
	var out []grid.ObjectID
	if r == nil {
		return nil
	}
	for _, v := range r.Nodes {
		out = append(out, qi.NodeObjects[v]...)
	}
	return out
}
