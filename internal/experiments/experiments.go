// Package experiments regenerates every table and figure of the paper's
// evaluation (§7) against the synthetic NY-like and USANW-like datasets.
// Each exported runner returns one or more Tables whose rows mirror the
// series the paper plots.
//
// Absolute runtimes and weights differ from the paper (different hardware,
// language, and density-scaled synthetic data); what is reproduced is the
// shape: orderings between algorithms, growth directions, and ratio bands.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// Config sizes the experimental environment.
type Config struct {
	// Scale multiplies dataset sizes (default 1.0; smaller = faster).
	Scale float64
	// Queries per measurement point (paper: 50; default here 8 to keep
	// the whole suite minutes-scale).
	Queries int
	// Seed fixes all randomness.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Queries == 0 {
		c.Queries = 8
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// Defaults per dataset, following §7.2/§7.3: number of keywords 3;
// NY ∆ = 10 km, Λ = 100 km²; USANW ∆ = 15 km, Λ = 150 km².
type datasetParams struct {
	Keywords  int
	DeltaM    float64
	LambdaM2  float64
	APPAlpha  float64 // paper: 0.5 NY, 0.1 USANW
	APPBeta   float64 // paper: 0.1 both
	GreedyMu  float64 // paper: 0.2 NY, 0.4 USANW
	TGENSigma int     // target σ̂max for TGEN's α (see nyParams)
}

// TGENSigma is the σ̂max granularity TGEN's α is resolved against per
// query region (α = |VQ|/σ̂max); σ̂max ≈ 12 is the regime the paper's
// α = 400/300 inhabit at their data scale. Finer scales were measured to
// change TGEN's answers negligibly on both datasets (Fig9And10 sweeps it).
var nyParams = datasetParams{
	Keywords: 3, DeltaM: 10000, LambdaM2: 100e6,
	APPAlpha: 0.5, APPBeta: 0.1, GreedyMu: 0.2, TGENSigma: 12,
}

// USANW uses α = 0.3 instead of the paper's 0.1: the dimensionless
// scaled range is σ̂max = |VQ|/α, and at our |VQ| the paper's value blows
// up the findOptTree tuple arrays without measurable accuracy gain
// (Fig 8's flat curve shows APP's weight is insensitive to α).
var usanwParams = datasetParams{
	Keywords: 3, DeltaM: 15000, LambdaM2: 150e6,
	APPAlpha: 0.3, APPBeta: 0.1, GreedyMu: 0.4, TGENSigma: 12,
}

// Env holds lazily built datasets, one planner per dataset that every
// instantiate goes through, and the one solver scratch every sweep runs
// on, so pinning a workload's instances (instantiateAll) stays
// O(Σ subgraph) instead of warming a scratch per instance. An Env serves
// one goroutine.
type Env struct {
	cfg      Config
	ny       *dataset.Dataset
	usanw    *dataset.Dataset
	planners map[*dataset.Dataset]*dataset.Planner
	scratch  core.SolveScratch
}

// instantiate materializes q on the Env's planner for d. The instance is
// valid until the next instantiate on d; Detach it to keep it longer.
func (e *Env) instantiate(d *dataset.Dataset, q dataset.Query) (*dataset.QueryInstance, error) {
	p := e.planners[d]
	if p == nil {
		p = d.NewPlanner()
		e.planners[d] = p
	}
	return p.Instantiate(q)
}

// solveAPP, solveTGEN and solveGreedy answer on the Env's scratch: the
// returned region is valid only until the next solve, so sweeps read what
// they report from it first.
func (e *Env) solveAPP(in *core.Instance, delta float64, opts core.APPOptions) (*core.Region, error) {
	return core.SolveAPP(context.Background(), &e.scratch, in, delta, opts)
}

func (e *Env) solveTGEN(in *core.Instance, delta float64, opts core.TGENOptions) (*core.Region, error) {
	return core.SolveTGEN(context.Background(), &e.scratch, in, delta, opts)
}

func (e *Env) solveGreedy(in *core.Instance, delta float64, opts core.GreedyOptions) (*core.Region, error) {
	return core.SolveGreedy(context.Background(), &e.scratch, in, delta, opts)
}

// NewEnv prepares an environment (datasets build lazily on first use).
func NewEnv(cfg Config) *Env {
	return &Env{cfg: cfg.withDefaults(), planners: map[*dataset.Dataset]*dataset.Planner{}}
}

// NY returns the NY-like dataset, building it on first call.
func (e *Env) NY() (*dataset.Dataset, error) {
	if e.ny == nil {
		d, err := dataset.NYLike(dataset.Config{Seed: e.cfg.Seed, Scale: e.cfg.Scale})
		if err != nil {
			return nil, err
		}
		e.ny = d
	}
	return e.ny, nil
}

// USANW returns the USANW-like dataset, building it on first call.
func (e *Env) USANW() (*dataset.Dataset, error) {
	if e.usanw == nil {
		d, err := dataset.USANWLike(dataset.Config{Seed: e.cfg.Seed, Scale: e.cfg.Scale})
		if err != nil {
			return nil, err
		}
		e.usanw = d
	}
	return e.usanw, nil
}

func (e *Env) params(d *dataset.Dataset) datasetParams {
	if d.Name == "USANW" {
		return usanwParams
	}
	return nyParams
}

// queries generates a deterministic workload for a dataset and settings.
func (e *Env) queries(d *dataset.Dataset, keywords int, lambdaM2, deltaM float64) ([]dataset.Query, error) {
	rng := rand.New(rand.NewSource(e.cfg.Seed * 7919))
	return d.GenQueries(rng, e.cfg.Queries, keywords, lambdaM2, deltaM)
}

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Format renders the table as aligned plain text.
func (t Table) Format() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// tgenAlphaFor sizes TGEN's α for a query instance so σ̂max ≈ target.
func tgenAlphaFor(in *core.Instance, target int) float64 {
	a := float64(in.NumNodes) / float64(target)
	if a < 1 {
		a = 1
	}
	return a
}

// runTimed runs fn and returns its duration.
func runTimed(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// fmtDur renders a duration in milliseconds with 3 digits.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000.0)
}

func fmtF(x float64) string { return fmt.Sprintf("%.4f", x) }

func fmtPct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
