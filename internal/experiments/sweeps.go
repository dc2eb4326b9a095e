package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// SweepKind selects which query argument Fig15/Fig16 vary.
type SweepKind int

const (
	// SweepKeywords varies |Q.ψ| (Fig 15a/b, 16a/b).
	SweepKeywords SweepKind = iota
	// SweepDelta varies Q.∆ (Fig 15c/d, 16c/d).
	SweepDelta
	// SweepLambda varies Q.Λ (Fig 15e/f, 16e/f).
	SweepLambda
)

// String implements fmt.Stringer.
func (k SweepKind) String() string {
	switch k {
	case SweepKeywords:
		return "keywords"
	case SweepDelta:
		return "delta"
	case SweepLambda:
		return "lambda"
	default:
		return fmt.Sprintf("SweepKind(%d)", int(k))
	}
}

// sweepPoints returns the x-axis values for a dataset and sweep kind,
// following §7.2.2 and §7.3.
func sweepPoints(name string, kind SweepKind) []float64 {
	switch kind {
	case SweepKeywords:
		return []float64{1, 2, 3, 4, 5}
	case SweepDelta:
		if name == "USANW" {
			return []float64{13000, 14000, 15000, 16000, 17000}
		}
		return []float64{8000, 9000, 10000, 11000, 12000}
	case SweepLambda:
		if name == "USANW" {
			return []float64{100e6, 125e6, 150e6, 175e6, 200e6}
		}
		return []float64{80e6, 90e6, 100e6, 110e6, 120e6}
	}
	return nil
}

// algoResult aggregates one algorithm's performance at a sweep point.
type algoResult struct {
	time   time.Duration
	weight float64
}

// Fig15 runs the query-argument sweep on NY (Figures 15a–f); Fig16 the
// same on USANW (Figures 16a–f). Each row reports the three algorithms'
// average runtime and their accuracy ratio relative to TGEN — the paper's
// measure ("we compute the ratio of an algorithm over TGEN, which always
// has the best accuracy").
func (e *Env) Fig15(kind SweepKind) (Table, error) {
	d, err := e.NY()
	if err != nil {
		return Table{}, err
	}
	return e.querySweep(d, kind, "Fig 15")
}

// Fig16 is the USANW counterpart of Fig15.
func (e *Env) Fig16(kind SweepKind) (Table, error) {
	d, err := e.USANW()
	if err != nil {
		return Table{}, err
	}
	return e.querySweep(d, kind, "Fig 16")
}

func (e *Env) querySweep(d *dataset.Dataset, kind SweepKind, figure string) (Table, error) {
	p := e.params(d)
	table := Table{
		Title: fmt.Sprintf("%s (%s): vary %s — runtime (ms) and ratio vs TGEN", figure, d.Name, kind),
		Header: []string{kind.String(),
			"APP_ms", "TGEN_ms", "Greedy_ms",
			"APP_ratio", "Greedy_ratio"},
	}
	for _, x := range sweepPoints(d.Name, kind) {
		kw, delta, lambda := p.Keywords, p.DeltaM, p.LambdaM2
		switch kind {
		case SweepKeywords:
			kw = int(x)
		case SweepDelta:
			delta = x
		case SweepLambda:
			lambda = x
		}
		qs, err := e.queries(d, kw, lambda, delta)
		if err != nil {
			return Table{}, err
		}
		qis, err := e.instantiateAll(d, qs)
		if err != nil {
			return Table{}, err
		}
		var app, tgen, greedy algoResult
		var appRatio, greedyRatio float64
		counted := 0
		for i, qi := range qis {
			delta := qs[i].Delta
			// Scores are read inside each timed call: the next solve
			// recycles the scratch the region lives in.
			var wAPP, wTGEN, wGreedy float64
			dur, err := runTimed(func() error {
				r, err := e.solveAPP(qi.In, delta, core.APPOptions{Alpha: p.APPAlpha, Beta: p.APPBeta})
				wAPP = scoreOf(r)
				return err
			})
			if err != nil {
				return Table{}, err
			}
			app.time += dur
			dur, err = runTimed(func() error {
				r, err := e.solveTGEN(qi.In, delta, core.TGENOptions{Alpha: tgenAlphaFor(qi.In, p.TGENSigma)})
				wTGEN = scoreOf(r)
				return err
			})
			if err != nil {
				return Table{}, err
			}
			tgen.time += dur
			dur, err = runTimed(func() error {
				r, err := e.solveGreedy(qi.In, delta, core.GreedyOptions{Mu: p.GreedyMu, MuSet: true})
				wGreedy = scoreOf(r)
				return err
			})
			if err != nil {
				return Table{}, err
			}
			greedy.time += dur
			if wTGEN <= 0 {
				continue // no relevant object: skip ratio accounting
			}
			counted++
			app.weight += wAPP
			tgen.weight += wTGEN
			greedy.weight += wGreedy
			appRatio += wAPP / wTGEN
			greedyRatio += wGreedy / wTGEN
		}
		n := float64(len(qis))
		cn := float64(counted)
		if cn == 0 {
			cn = 1
		}
		table.Rows = append(table.Rows, []string{
			sweepLabel(kind, x),
			fmtDur(time.Duration(float64(app.time) / n)),
			fmtDur(time.Duration(float64(tgen.time) / n)),
			fmtDur(time.Duration(float64(greedy.time) / n)),
			fmtPct(appRatio / cn),
			fmtPct(greedyRatio / cn),
		})
	}
	return table, nil
}

func scoreOf(r *core.Region) float64 {
	if r == nil {
		return 0
	}
	return r.Score
}

func sweepLabel(kind SweepKind, x float64) string {
	switch kind {
	case SweepKeywords:
		return fmt.Sprintf("%d", int(x))
	case SweepDelta:
		return fmt.Sprintf("%.0fkm", x/1000)
	case SweepLambda:
		return fmt.Sprintf("%.0fkm2", x/1e6)
	}
	return fmt.Sprintf("%v", x)
}
