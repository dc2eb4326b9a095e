package dataset

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/roadnet"
	"repro/internal/textindex"
)

// Planner materializes query working graphs with pooled per-query scratch
// state: a roadnet.Extractor for zero-allocation subgraph extraction, a
// core.Instance whose CSR adjacency is rebuilt in place, reusable
// weight/edge/object buffers, and a core.SolveScratch so the solve phase
// (SolveTGEN/SolveAPP/SolveGreedy) runs allocation-free too. One planner
// serves one query at a time: the QueryInstance returned by Instantiate
// aliases the planner's buffers and is valid only until the next
// Instantiate call on the same planner; a region produced through the
// planner's SolveScratch is valid only until the next solve on it.
//
// A Planner is not safe for concurrent use. Request paths borrow one per
// query from the dataset's pool (Dataset.Visit); NewPlanner is for
// single-goroutine drivers that instantiate in a loop.
type Planner struct {
	d  *Dataset
	ex *roadnet.Extractor

	inst     core.Instance
	weights  []float64
	edges    []core.Edge
	nodeObjs [][]grid.ObjectID
	qscratch textindex.QueryScratch
	sscratch grid.SearchScratch
	strace   grid.SearchTrace
	solve    core.SolveScratch
	qi       QueryInstance
}

// NewPlanner returns a planner with empty scratch state for d.
func (d *Dataset) NewPlanner() *Planner {
	return &Planner{d: d, ex: roadnet.NewExtractor(d.Graph)}
}

// Visit answers one query on a planner borrowed from d's pool: it
// instantiates q (ctx carries the request deadline down to an installed
// SearchFunc), runs fn on the instance, and gives the planner back. The
// instance is valid only for the duration of fn. A planner a panic in fn
// unwinds through is dropped, not returned, so no later query sees its
// possibly inconsistent scratch. Visit is safe for concurrent use; the
// pool keeps as many planners as queries were ever in flight at once,
// each with its solver scratch at the size its largest query grew it to.
func (d *Dataset) Visit(ctx context.Context, q Query, fn func(*QueryInstance) error) error {
	d.poolMu.Lock()
	var p *Planner
	if n := len(d.free); n > 0 {
		p, d.free = d.free[n-1], d.free[:n-1]
	}
	d.poolMu.Unlock()
	if p == nil {
		p = d.NewPlanner()
	}
	qi, err := p.instantiate(ctx, q)
	if err == nil {
		err = fn(qi)
	}
	// Not deferred: a panic must skip the return below.
	d.poolMu.Lock()
	d.free = append(d.free, p)
	d.poolMu.Unlock()
	return err
}

// Instantiate restricts the road network to Q.Λ, scores the objects inside
// it against the keywords through the grid index (Equation 2), and
// aggregates object scores onto their road nodes: a node's weight σv is
// the summed relevance of the objects mapped to it, zero for junctions and
// irrelevant objects. The result aliases the planner's pooled buffers.
func (p *Planner) Instantiate(q Query) (*QueryInstance, error) {
	return p.instantiate(context.Background(), q)
}

// instantiate is Instantiate with a request context: when the dataset has
// a SearchFunc installed (distributed serving), ctx carries the request
// deadline down to the remote scatter. The local search path ignores ctx.
func (p *Planner) instantiate(ctx context.Context, q Query) (*QueryInstance, error) {
	d := p.d
	// Reads of Vocab/Objects/ObjNode/Ratings race with live mutators;
	// hold the dataset read lock for the whole materialization.
	d.mu.RLock()
	defer d.mu.RUnlock()
	sub := p.ex.ExtractRect(q.Lambda)
	prepared := d.Vocab.PrepareQueryInto(q.Keywords, &p.qscratch)
	// The grid index finds the matching objects (an object matches iff it
	// shares a term with the query, identically under all weight modes);
	// the mode then decides the weight each match contributes. The pooled
	// SearchInto/PrepareQueryInto variants keep the steady-state relevance
	// path allocation-free (the language-model side path still allocates
	// its LMQuery).
	// Tracing points the pooled scratch at the planner's own trace for
	// this one search; untraced queries get a nil Trace so the search
	// stays on its hot branches. The trace is reset here, not by the
	// search, because a distributed search merges several partials into it.
	if q.Trace {
		p.strace.Clear()
		p.sscratch.Trace = &p.strace
	} else {
		p.sscratch.Trace = nil
	}
	var scores []grid.ObjScore
	var err error
	if d.searchFn != nil {
		scores, err = d.searchFn(ctx, prepared, q.Lambda, &p.sscratch)
	} else {
		scores, err = d.Index.SearchInto(prepared, q.Lambda, &p.sscratch)
	}
	if err != nil {
		return nil, fmt.Errorf("dataset: index search: %w", err)
	}
	var lm textindex.LMQuery
	if q.Mode == WeightLanguageModel {
		lm = d.Vocab.PrepareLMQuery(q.Keywords, 0)
	}
	n := len(sub.ToParent)
	p.weights = growTo(p.weights, n)
	for i := range p.weights {
		p.weights[i] = 0
	}
	if cap(p.nodeObjs) < n {
		p.nodeObjs = append(p.nodeObjs[:cap(p.nodeObjs)], make([][]grid.ObjectID, n-cap(p.nodeObjs))...)
	}
	p.nodeObjs = p.nodeObjs[:n]
	for i := range p.nodeObjs {
		p.nodeObjs[i] = p.nodeObjs[i][:0]
	}
	for _, os := range scores {
		parent := d.ObjNode[os.Obj]
		local := sub.Local(parent)
		if local < 0 {
			continue // object inside Λ but its node is outside
		}
		w := os.Score
		switch q.Mode {
		case WeightRating:
			w = d.rating(os.Obj)
		case WeightLanguageModel:
			w = lm.Score(&d.Objects[os.Obj].Doc)
		}
		p.weights[local] += w
		p.nodeObjs[local] = append(p.nodeObjs[local], os.Obj)
	}
	p.edges = p.edges[:0]
	for _, e := range sub.Edges {
		p.edges = append(p.edges, core.Edge{U: int32(e.U), V: int32(e.V), Length: e.Length})
	}
	if err := p.inst.Reset(n, p.edges, p.weights); err != nil {
		return nil, fmt.Errorf("dataset: instance: %w", err)
	}
	p.qi = QueryInstance{In: &p.inst, Sub: sub, NodeObjects: p.nodeObjs, Prepared: prepared, Scratch: &p.solve}
	if q.Trace {
		p.qi.SearchTrace = &p.strace
	}
	return &p.qi, nil
}

// growTo returns s with length n, reusing its backing array when possible.
func growTo[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
