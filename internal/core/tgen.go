package core

// EdgeOrder selects the order in which TGEN processes edges. §5 discusses
// alternatives: "We can process the edges in other orders (e.g., the edges
// can be processed in ascending order of their lengths). However, ... the
// accuracy only varies slightly while the order we adopt yields better
// efficiency."
type EdgeOrder int

const (
	// OrderBFS visits nodes breadth-first and processes each node's
	// unvisited incident edges (the paper's choice: no sorting cost, and
	// finished nodes drop their tuple arrays).
	OrderBFS EdgeOrder = iota
	// OrderAscLength processes all edges in ascending length order
	// (the alternative §5 mentions; used by the ablation benchmarks).
	OrderAscLength
)

// TGENOptions configures the tuple-generation heuristic of §5.
type TGENOptions struct {
	// Alpha is the scaling parameter. TGEN needs a much coarser scale
	// than APP — the paper tunes α = 400 on NY and α = 300 on USANW so
	// that tuples collide on few scaled-weight values. Zero sizes α to the
	// instance, max(n/9, 1) for n nodes, so σ̂max ≈ 9: the regime the
	// paper's fixed α inhabits at its data scale. The tuple arrays are
	// indexed by scaled weight, so their memory grows as α shrinks.
	Alpha float64
	// Order picks the edge processing order (default OrderBFS).
	Order EdgeOrder
}

// withDefaults resolves a zero α for an instance of n nodes.
func (o TGENOptions) withDefaults(n int) TGENOptions {
	if o.Alpha == 0 {
		o.Alpha = max(float64(n)/9, 1)
	}
	return o
}
