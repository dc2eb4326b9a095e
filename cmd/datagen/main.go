// Command datagen generates a synthetic dataset and writes its road
// network and objects to a file in the dataset text format (loadable by
// cmd/lcmsr -load), optionally building the
// disk-based B+-tree posting store alongside it.
//
// Usage:
//
//	datagen -dataset ny -scale 1.0 -out ny.graph -postings ny.store
//	datagen -dataset ny -out ny.graph -postings ny.store -shards 8
//
// The posting store is a directory of -shards independent B+-tree shards
// (see grid.ShardedStore), written with an index metadata checkpoint
// (META.0/META.1), so it can later be reopened without a rebuild —
// `lcmsr -open -postings DIR` with the matching -seed/-scale, or
// grid.NewIndexOver from the library — and absorb live updates.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/dataset"
	"repro/internal/grid"
)

func main() {
	var (
		dsName   = flag.String("dataset", "ny", "ny or usanw")
		scale    = flag.Float64("scale", 1.0, "dataset size multiplier")
		seed     = flag.Int64("seed", 1, "random seed")
		out      = flag.String("out", "", "output path for the road network (required)")
		postings = flag.String("postings", "", "optional directory for the B+-tree posting store")
		shards   = flag.Int("shards", 1, "number of posting-store shards (requires -postings)")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "datagen: -out is required")
		os.Exit(2)
	}
	if *shards > 1 && *postings == "" {
		fmt.Fprintln(os.Stderr, "datagen: -shards needs -postings (nowhere to put the shards)")
		os.Exit(2)
	}
	cfg := dataset.Config{Seed: *seed, Scale: *scale}
	if *postings != "" {
		store, err := grid.CreateShardedStore(*postings, grid.ShardedOptions{Shards: max(*shards, 1)})
		if err != nil {
			fatal(err)
		}
		// Close on the fatal path (fatal's os.Exit skips defers; an
		// unflushed store would look valid but open empty) and explicitly
		// before the success message below — the store is only "persisted"
		// once the flush succeeded. On the fatal path the partial store is
		// removed too, so a corrected rerun isn't blocked by create-fresh.
		storeClose = store.Close
		fatalCleanups = append(fatalCleanups, func() {
			store.Close()
			grid.RemoveStore(*postings)
		})
		cfg.Store = store
	}
	var (
		d   *dataset.Dataset
		err error
	)
	switch strings.ToLower(*dsName) {
	case "ny":
		d, err = dataset.NYLike(cfg)
	case "usanw":
		d, err = dataset.USANWLike(cfg)
	default:
		fmt.Fprintf(os.Stderr, "datagen: unknown dataset %q\n", *dsName)
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if _, err := d.WriteTo(f); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s: %d nodes, %d edges, %d objects, %d vocabulary terms\n",
		*out, d.Graph.NumNodes(), d.Graph.NumEdges(), len(d.Objects), d.Vocab.NumTerms())
	if *postings != "" {
		if err := storeClose(); err != nil {
			fatal(fmt.Errorf("flushing posting store: %w", err))
		}
		fatalCleanups = nil // store closed and valid; nothing to undo
		fmt.Printf("posting lists persisted to %s (%d shard(s))\n", *postings, max(*shards, 1))
	}
}

// storeClose flushes the posting store; the success path calls it
// explicitly so a failed flush can't hide behind a defer.
var storeClose func() error

// fatalCleanups run before a fatal exit (os.Exit skips defers) — same
// mechanism as cmd/lcmsr. Here they discard the partial store: Close is
// idempotent via the nil-out on the success path.
var fatalCleanups []func()

func fatal(err error) {
	for i := len(fatalCleanups) - 1; i >= 0; i-- {
		fatalCleanups[i]()
	}
	fmt.Fprintln(os.Stderr, "datagen:", err)
	os.Exit(1)
}
