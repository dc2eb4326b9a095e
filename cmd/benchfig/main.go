// Command benchfig regenerates the paper's tables and figures as plain
// text tables, one per experiment id (-list prints them in paper order).
//
// Usage:
//
//	benchfig -exp all                 # every experiment, paper order
//	benchfig -exp fig15kw             # one experiment
//	benchfig -exp fig7 -queries 20    # more queries per point
//	benchfig -list                    # show experiment ids
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id or 'all'")
		queries = flag.Int("queries", 8, "queries per measurement point (paper uses 50)")
		scale   = flag.Float64("scale", 1.0, "dataset size multiplier")
		seed    = flag.Int64("seed", 42, "random seed")
		list    = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.ExperimentIDs(), "\n"))
		return
	}
	env := experiments.NewEnv(experiments.Config{
		Scale:   *scale,
		Queries: *queries,
		Seed:    *seed,
	})
	if *exp == "all" {
		// Stream each table as it completes rather than batching at the
		// end, so long runs show progress.
		for _, id := range experiments.ExperimentIDs() {
			t, ok, err := env.Named(id)
			if !ok {
				continue
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchfig:", id, err)
				os.Exit(1)
			}
			fmt.Println(t.Format())
		}
		return
	}
	t, ok, err := env.Named(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchfig: unknown experiment %q; try -list\n", *exp)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchfig:", err)
		os.Exit(1)
	}
	fmt.Println(t.Format())
}
