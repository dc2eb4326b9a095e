package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// AblationKMST compares APP's quota solvers (experiment ablation-kmst):
// the GW/Garg primal–dual solver the paper prescribes against the cheap
// shortest-path-tree heuristic, on identical NY queries.
func (e *Env) AblationKMST() (Table, error) {
	d, err := e.NY()
	if err != nil {
		return Table{}, err
	}
	p := e.params(d)
	qs, err := e.queries(d, p.Keywords, p.LambdaM2, p.DeltaM)
	if err != nil {
		return Table{}, err
	}
	table := Table{
		Title:  "Ablation A1: APP quota solver — GW/Garg vs SPT heuristic (NY)",
		Header: []string{"solver", "runtime_ms", "region_weight"},
	}
	for _, s := range []struct {
		name   string
		solver core.SolverKind
	}{
		{"garg-gw", core.SolverGarg},
		{"spt", core.SolverSPT},
	} {
		var total time.Duration
		var weight float64
		for _, q := range qs {
			qi, err := e.instantiate(d, q)
			if err != nil {
				return Table{}, err
			}
			var r *core.Region
			dur, err := runTimed(func() error {
				var err error
				r, err = e.solveAPP(qi.In, q.Delta, core.APPOptions{
					Alpha: p.APPAlpha, Beta: p.APPBeta, Solver: s.solver,
				})
				return err
			})
			if err != nil {
				return Table{}, err
			}
			total += dur
			weight += scoreOf(r)
		}
		n := float64(len(qs))
		table.Rows = append(table.Rows, []string{
			s.name,
			fmtDur(time.Duration(float64(total) / n)),
			fmtF(weight / n),
		})
	}
	return table, nil
}

// AblationOrder compares TGEN's edge processing orders (ablation-order;
// §5: "we can process the edges in other orders … the accuracy only
// varies slightly while the order we adopt yields better efficiency").
func (e *Env) AblationOrder() (Table, error) {
	d, err := e.NY()
	if err != nil {
		return Table{}, err
	}
	p := e.params(d)
	qs, err := e.queries(d, p.Keywords, p.LambdaM2, p.DeltaM)
	if err != nil {
		return Table{}, err
	}
	table := Table{
		Title:  "Ablation A2: TGEN edge order — BFS vs ascending length (NY)",
		Header: []string{"order", "runtime_ms", "region_weight"},
	}
	for _, s := range []struct {
		name  string
		order core.EdgeOrder
	}{
		{"bfs", core.OrderBFS},
		{"asc-length", core.OrderAscLength},
	} {
		var total time.Duration
		var weight float64
		for _, q := range qs {
			qi, err := e.instantiate(d, q)
			if err != nil {
				return Table{}, err
			}
			var r *core.Region
			dur, err := runTimed(func() error {
				var err error
				r, err = e.solveTGEN(qi.In, q.Delta, core.TGENOptions{
					Alpha: tgenAlphaFor(qi.In, p.TGENSigma), Order: s.order,
				})
				return err
			})
			if err != nil {
				return Table{}, err
			}
			total += dur
			weight += scoreOf(r)
		}
		n := float64(len(qs))
		table.Rows = append(table.Rows, []string{
			s.name,
			fmtDur(time.Duration(float64(total) / n)),
			fmtF(weight / n),
		})
	}
	return table, nil
}

// AblationWeighting compares the three object-weight definitions of §2
// (text relevance, rating-if-match, language model) on identical NY
// queries. Scores are not comparable across modes; the shape to check is
// that matching is identical (similar region object counts) while the
// weight definition changes which region wins.
func (e *Env) AblationWeighting() (Table, error) {
	d, err := e.NY()
	if err != nil {
		return Table{}, err
	}
	p := e.params(d)
	qs, err := e.queries(d, p.Keywords, p.LambdaM2, p.DeltaM)
	if err != nil {
		return Table{}, err
	}
	table := Table{
		Title:  "Ablation A3: object weightings (§2) — TGEN regions on NY",
		Header: []string{"weighting", "avg_objects", "avg_nodes", "runtime_ms"},
	}
	for _, m := range []struct {
		name string
		mode dataset.WeightMode
	}{
		{"relevance", dataset.WeightRelevance},
		{"rating", dataset.WeightRating},
		{"language-model", dataset.WeightLanguageModel},
	} {
		var objs, nodes int
		var total time.Duration
		for _, q := range qs {
			q.Mode = m.mode
			qi, err := e.instantiate(d, q)
			if err != nil {
				return Table{}, err
			}
			var r *core.Region
			dur, err := runTimed(func() error {
				var err error
				r, err = e.solveTGEN(qi.In, q.Delta, core.TGENOptions{Alpha: tgenAlphaFor(qi.In, p.TGENSigma)})
				return err
			})
			if err != nil {
				return Table{}, err
			}
			total += dur
			if r != nil {
				objs += len(qi.RegionObjects(r))
				nodes += len(r.Nodes)
			}
		}
		n := float64(len(qs))
		table.Rows = append(table.Rows, []string{
			m.name,
			fmt.Sprintf("%.1f", float64(objs)/n),
			fmt.Sprintf("%.1f", float64(nodes)/n),
			fmtDur(time.Duration(float64(total) / n)),
		})
	}
	return table, nil
}

// Named runs one experiment by its id (the -exp flag of cmd/benchfig).
func (e *Env) Named(id string) (Table, bool, error) {
	m := map[string]func() (Table, error){
		"table1":             e.Table1,
		"fig7":               e.Fig7And8,
		"fig9":               e.Fig9And10,
		"fig11":              e.Fig11And12,
		"fig13":              e.Fig13And14,
		"fig15kw":            func() (Table, error) { return e.Fig15(SweepKeywords) },
		"fig15delta":         func() (Table, error) { return e.Fig15(SweepDelta) },
		"fig15lambda":        func() (Table, error) { return e.Fig15(SweepLambda) },
		"fig16kw":            func() (Table, error) { return e.Fig16(SweepKeywords) },
		"fig16delta":         func() (Table, error) { return e.Fig16(SweepDelta) },
		"fig16lambda":        func() (Table, error) { return e.Fig16(SweepLambda) },
		"examples":           e.Examples,
		"maxrs":              e.MaxRSComparison,
		"fig21":              func() (Table, error) { return e.TopK("NY") },
		"fig22":              func() (Table, error) { return e.TopK("USANW") },
		"ablation-kmst":      e.AblationKMST,
		"ablation-order":     e.AblationOrder,
		"ablation-weighting": e.AblationWeighting,
	}
	fn, ok := m[id]
	if !ok {
		return Table{}, false, nil
	}
	t, err := fn()
	return t, true, err
}

// ExperimentIDs lists the ids Named accepts, in paper order.
func ExperimentIDs() []string {
	return []string{
		"table1", "fig7", "fig9", "fig11", "fig13",
		"fig15kw", "fig15delta", "fig15lambda",
		"fig16kw", "fig16delta", "fig16lambda",
		"examples", "maxrs", "fig21", "fig22",
		"ablation-kmst", "ablation-order", "ablation-weighting",
	}
}
