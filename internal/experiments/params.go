package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// Fig7And8 sweeps APP's scaling parameter α on NY (paper Figures 7 and 8):
// runtime falls as α grows; region weight is nearly flat.
func (e *Env) Fig7And8() (Table, error) {
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
		Title:  "Fig 7+8: APP runtime and region weight vs α (NY)",
		Header: []string{"alpha", "runtime_ms", "region_weight"},
	}
	for _, alpha := range []float64{0.01, 0.1, 0.3, 0.5, 0.7, 0.9} {
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
				r, err = e.solveAPP(qi.In, q.Delta, core.APPOptions{Alpha: alpha, Beta: p.APPBeta})
				return err
			})
			if err != nil {
				return Table{}, err
			}
			total += dur
			if r != nil {
				weight += r.Score
			}
		}
		n := float64(len(qs))
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%.2f", alpha),
			fmtDur(time.Duration(float64(total) / n)),
			fmtF(weight / n),
		})
	}
	return table, nil
}

// Fig9And10 sweeps TGEN's scaling parameter on NY (paper Figures 9, 10).
// The paper's x-axis α ∈ {50..1600} is calibrated to its |VQ| (thousands);
// the dimensionless knob is σ̂max = ⌊|VQ|/α⌋, so the sweep here targets
// the equivalent σ̂max values and reports the α actually used.
func (e *Env) Fig9And10() (Table, error) {
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
		Title:  "Fig 9+10: TGEN runtime and region weight vs α (NY; α recalibrated to σ̂max)",
		Header: []string{"paper_alpha", "sigma_hat_max", "runtime_ms", "region_weight"},
	}
	// paper α {50,100,200,400,800,1600} ↔ σ̂max roughly {72,36,18,9,4,2}.
	paperAlphas := []int{50, 100, 200, 400, 800, 1600}
	sigmas := []int{72, 36, 18, 9, 4, 2}
	for i, sigma := range sigmas {
		var total time.Duration
		var weight float64
		for _, q := range qs {
			qi, err := e.instantiate(d, q)
			if err != nil {
				return Table{}, err
			}
			alpha := tgenAlphaFor(qi.In, sigma)
			var r *core.Region
			dur, err := runTimed(func() error {
				var err error
				r, err = e.solveTGEN(qi.In, q.Delta, core.TGENOptions{Alpha: alpha})
				return err
			})
			if err != nil {
				return Table{}, err
			}
			total += dur
			if r != nil {
				weight += r.Score
			}
		}
		n := float64(len(qs))
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%d", paperAlphas[i]),
			fmt.Sprintf("%d", sigma),
			fmtDur(time.Duration(float64(total) / n)),
			fmtF(weight / n),
		})
	}
	return table, nil
}

// Fig11And12 sweeps APP's binary-search slack β on NY (Figures 11, 12):
// both runtime and weight drop as β grows.
func (e *Env) Fig11And12() (Table, error) {
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
		Title:  "Fig 11+12: APP runtime and region weight vs β (NY)",
		Header: []string{"beta", "runtime_ms", "region_weight"},
	}
	for _, beta := range []float64{0.001, 0.01, 0.1, 0.3, 0.9} {
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
				r, err = e.solveAPP(qi.In, q.Delta, core.APPOptions{Alpha: p.APPAlpha, Beta: beta})
				return err
			})
			if err != nil {
				return Table{}, err
			}
			total += dur
			if r != nil {
				weight += r.Score
			}
		}
		n := float64(len(qs))
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%.3f", beta),
			fmtDur(time.Duration(float64(total) / n)),
			fmtF(weight / n),
		})
	}
	return table, nil
}

// Fig13And14 sweeps Greedy's µ on NY (Figures 13, 14): runtime is flat;
// weight peaks at an interior µ (both node weights and edge lengths count).
func (e *Env) Fig13And14() (Table, error) {
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
		Title:  "Fig 13+14: Greedy runtime and region weight vs µ (NY)",
		Header: []string{"mu", "runtime_ms", "region_weight"},
	}
	for _, mu := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0} {
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
				r, err = e.solveGreedy(qi.In, q.Delta, core.GreedyOptions{Mu: mu, MuSet: true})
				return err
			})
			if err != nil {
				return Table{}, err
			}
			total += dur
			if r != nil {
				weight += r.Score
			}
		}
		n := float64(len(qs))
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%.1f", mu),
			fmtDur(time.Duration(float64(total) / n)),
			fmtF(weight / n),
		})
	}
	return table, nil
}

// Table1 reproduces the binary-search illustration (paper Table 1): the
// per-step L, U, X, TC length and (1+β)X probe of one APP run on NY.
func (e *Env) Table1() (Table, error) {
	d, err := e.NY()
	if err != nil {
		return Table{}, err
	}
	p := e.params(d)
	qs, err := e.queries(d, p.Keywords, p.LambdaM2, p.DeltaM)
	if err != nil {
		return Table{}, err
	}
	qi, err := e.instantiate(d, qs[0])
	if err != nil {
		return Table{}, err
	}
	var trace []core.TraceStep
	if _, err := e.solveAPP(qi.In, qs[0].Delta, core.APPOptions{
		Alpha: p.APPAlpha, Beta: p.APPBeta, Trace: &trace,
	}); err != nil {
		return Table{}, err
	}
	table := Table{
		Title:  "Table 1: APP binary-search trace (NY, one query; lengths in metres)",
		Header: []string{"step", "L", "U", "X", "TC.l", "(1+b)X", "T'C.l"},
	}
	for i, s := range trace {
		x2, l2 := "*", "*"
		if s.X2 != 0 {
			x2 = fmt.Sprintf("%.0f", s.X2)
			l2 = fmt.Sprintf("%.0f", s.TC2Len)
		}
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%d", i+1),
			fmt.Sprintf("%.0f", s.L),
			fmt.Sprintf("%.0f", s.U),
			fmt.Sprintf("%.0f", s.X),
			fmt.Sprintf("%.0f", s.TCLen),
			x2, l2,
		})
	}
	return table, nil
}

// instantiateAll materializes instances for a query slice through the
// Env's planner for d, detaching each instance so pinning the whole
// workload costs O(Σ subgraph) — not one parent-sized planner per query.
func (e *Env) instantiateAll(d *dataset.Dataset, qs []dataset.Query) ([]*dataset.QueryInstance, error) {
	out := make([]*dataset.QueryInstance, len(qs))
	for i, q := range qs {
		qi, err := e.instantiate(d, q)
		if err != nil {
			return nil, err
		}
		if out[i], err = qi.Detach(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
