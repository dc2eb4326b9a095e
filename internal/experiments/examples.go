package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// Examples reproduces the qualitative comparison of Figures 17–19: one
// fixed two-keyword query ("cafe restaurant" in the Bronx in the paper)
// answered by the three algorithms, reporting the number of relevant
// objects, the region weight, and the region length. The paper reports
// 15 objects/5.9 for TGEN, 11/4.8 for APP, 7/3.6 for Greedy — i.e. the
// object-count and weight order TGEN ≥ APP ≥ Greedy, which is the shape
// this table should reproduce.
func (e *Env) Examples() (Table, error) {
	d, err := e.NY()
	if err != nil {
		return Table{}, err
	}
	p := e.params(d)
	// The paper's example uses a ∆ of 8 km and two keywords.
	qs, err := e.queries(d, 2, p.LambdaM2, 8000)
	if err != nil {
		return Table{}, err
	}
	q := qs[0]
	qi, err := e.instantiate(d, q)
	if err != nil {
		return Table{}, err
	}
	table := Table{
		Title:  fmt.Sprintf("Fig 17-19: example regions for keywords %v, ∆=8km (NY)", q.Keywords),
		Header: []string{"algorithm", "objects", "weight", "length_km", "nodes"},
	}
	type namedRun struct {
		name string
		run  func() (*core.Region, error)
	}
	runs := []namedRun{
		{"TGEN", func() (*core.Region, error) {
			return e.solveTGEN(qi.In, q.Delta, core.TGENOptions{Alpha: tgenAlphaFor(qi.In, p.TGENSigma)})
		}},
		{"APP", func() (*core.Region, error) {
			return e.solveAPP(qi.In, q.Delta, core.APPOptions{Alpha: p.APPAlpha, Beta: p.APPBeta})
		}},
		{"Greedy", func() (*core.Region, error) {
			return e.solveGreedy(qi.In, q.Delta, core.GreedyOptions{Mu: p.GreedyMu, MuSet: true})
		}},
	}
	for _, nr := range runs {
		r, err := nr.run()
		if err != nil {
			return Table{}, err
		}
		objs := len(qi.RegionObjects(r))
		table.Rows = append(table.Rows, []string{
			nr.name,
			fmt.Sprintf("%d", objs),
			fmtF(scoreOf(r)),
			fmt.Sprintf("%.2f", lengthOf(r)/1000),
			fmt.Sprintf("%d", nodesOf(r)),
		})
	}
	return table, nil
}

func lengthOf(r *core.Region) float64 {
	if r == nil {
		return 0
	}
	return r.Length
}

func nodesOf(r *core.Region) int {
	if r == nil {
		return 0
	}
	return len(r.Nodes)
}

// TopK measures the top-k LCMSR query runtimes (Figures 21 and 22):
// k ∈ 1..5 on the named dataset ("NY" or "USANW") with the paper's
// defaults.
func (e *Env) TopK(name string) (Table, error) {
	ds, err := e.datasetByName(name)
	if err != nil {
		return Table{}, err
	}
	p := e.params(ds)
	qs, err := e.queries(ds, p.Keywords, p.LambdaM2, p.DeltaM)
	if err != nil {
		return Table{}, err
	}
	qis, err := e.instantiateAll(ds, qs)
	if err != nil {
		return Table{}, err
	}
	fig := "Fig 21"
	if name == "USANW" {
		fig = "Fig 22"
	}
	table := Table{
		Title:  fmt.Sprintf("%s: top-k runtime (ms) vs k (%s)", fig, name),
		Header: []string{"k", "APP_ms", "TGEN_ms", "Greedy_ms"},
	}
	for k := 1; k <= 5; k++ {
		var app, tgen, greedy time.Duration
		for i, qi := range qis {
			delta := qs[i].Delta
			dur, err := runTimed(func() error {
				_, err := core.SolveTopK(context.Background(), &e.scratch, qi.In, delta, k, core.APPOptions{Alpha: p.APPAlpha, Beta: p.APPBeta})
				return err
			})
			if err != nil {
				return Table{}, err
			}
			app += dur
			dur, err = runTimed(func() error {
				_, err := core.SolveTopK(context.Background(), &e.scratch, qi.In, delta, k, core.TGENOptions{Alpha: tgenAlphaFor(qi.In, p.TGENSigma)})
				return err
			})
			if err != nil {
				return Table{}, err
			}
			tgen += dur
			dur, err = runTimed(func() error {
				_, err := core.SolveTopK(context.Background(), &e.scratch, qi.In, delta, k, core.GreedyOptions{Mu: p.GreedyMu, MuSet: true})
				return err
			})
			if err != nil {
				return Table{}, err
			}
			greedy += dur
		}
		n := float64(len(qis))
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%d", k),
			fmtDur(time.Duration(float64(app) / n)),
			fmtDur(time.Duration(float64(tgen) / n)),
			fmtDur(time.Duration(float64(greedy) / n)),
		})
	}
	return table, nil
}

func (e *Env) datasetByName(name string) (*dataset.Dataset, error) {
	if name == "USANW" {
		return e.USANW()
	}
	return e.NY()
}
