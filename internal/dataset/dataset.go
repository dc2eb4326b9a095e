// Package dataset assembles the full experimental setting of §7.1: a road
// network, a corpus of geo-textual objects snapped to their nearest road
// nodes, the grid index with per-cell inverted lists over them, and the
// query workload generator (random query rectangles following the network
// distribution, keywords sampled by in-region frequency).
//
// Two ready-made builds mirror the paper's datasets at laptop scale:
// NYLike (Manhattan-style grid + business-category-style Zipf text) and
// USANWLike (random geometric network + tag-style Zipf text). The package
// comment of internal/gen says what stands in for the real data and how
// sizes scale.
package dataset

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/gen"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/roadnet"
	"repro/internal/textindex"
)

// Dataset bundles a road network with its indexed geo-textual objects.
//
// A Dataset accepts live mutations (Insert, Delete, Reweight) concurrent
// with queries: mutators publish under the internal write lock, the query
// paths (Visit and Planner.Instantiate, GenQueries, and result
// materialization via RLock/RUnlock) take the read side. The exported
// fields are owned by the dataset once it is assembled — read them under
// RLock when updates may be running.
type Dataset struct {
	// wmu serializes writers: mutators, Compact and Close. Their disk
	// work runs under wmu alone.
	wmu sync.Mutex
	// mu guards query-side reads of Vocab, Objects, ObjNode and Ratings;
	// writers take its write side only to publish an update in memory.
	// Lock ordering: wmu, then mu, then grid.Index's locks.
	mu      sync.RWMutex
	Name    string
	Graph   *roadnet.Graph
	Vocab   *textindex.Vocabulary
	Objects []grid.Object
	ObjNode []roadnet.NodeID // nearest road node per object (§7.1 snapping)
	// Ratings holds per-object popularity scores for WeightRating mode;
	// nil means every object rates 1.
	Ratings []float64
	Index   *grid.Index
	// searchFn, when non-nil, replaces Index.SearchInto in the planners
	// (distributed serving routes the search through a coordinator).
	// Guarded by mu like the other query-visible state.
	searchFn SearchFunc
	// free is the planner pool Visit borrows from, most recently returned
	// last so a warm planner is reused first. Guarded by poolMu.
	poolMu sync.Mutex
	free   []*Planner
}

// RLock takes the dataset's read lock; callers reading Objects, Vocab,
// ObjNode or Ratings while updates may be running must hold it.
func (d *Dataset) RLock() { d.mu.RLock() }

// RUnlock releases RLock.
func (d *Dataset) RUnlock() { d.mu.RUnlock() }

// SearchFunc is a replacement for the planner's object-relevance search.
// It must return exactly what Index.SearchInto would: every matching
// object in the rectangle with its final score, ascending by object id,
// bit-identical — distributed serving (internal/cluster) installs one
// that scatters the search across node processes. ctx carries the
// request's deadline.
type SearchFunc func(ctx context.Context, q textindex.Query, r geo.Rect, s *grid.SearchScratch) ([]grid.ObjScore, error)

// SetSearchFunc installs fn as the search the planners use (nil restores
// the local index search). Set it before serving begins; it applies to
// planners created before or after the call.
func (d *Dataset) SetSearchFunc(fn SearchFunc) {
	d.mu.Lock()
	d.searchFn = fn
	d.mu.Unlock()
}

// Config controls synthetic dataset construction.
type Config struct {
	// Seed drives all randomness; equal seeds give equal datasets.
	Seed int64
	// Scale multiplies the default node/object counts (1.0 = defaults;
	// benchmarks may use <1 for speed, studies >1 for fidelity).
	Scale float64
	// CellSize is the grid-index cell size in metres (default 500).
	CellSize float64
	// Store, when non-nil, persists posting lists — a grid.ShardedStore
	// (cells striped across N B+-trees, so concurrent cold reads from the
	// query-engine workers don't contend on one tree lock). nil keeps them
	// in memory.
	Store grid.Store
	// Reopen treats Store as a previously persisted store: instead of
	// rebuilding postings from the regenerated corpus, the index comes
	// from the store's committed metadata plus WAL replay
	// (grid.NewIndexOver) and the vocabulary statistics from the metadata
	// snapshot, so live updates applied before the last close — including
	// ones that never reached a compaction — are preserved.
	Reopen bool
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.CellSize == 0 {
		c.CellSize = 500
	}
	return c
}

// NYLike builds the Manhattan-style dataset: a ~20×20 km perturbed grid
// network (paper: NY, 264k nodes over the city; here density-scaled), with
// ~1.9 objects per node and a business-category-style vocabulary.
func NYLike(cfg Config) (*Dataset, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	side := int(60 * sqrtScale(cfg.Scale))
	if side < 10 {
		side = 10
	}
	g, err := gen.ManhattanGrid(gen.GridConfig{
		Rows: side, Cols: side,
		Spacing:     20000.0 / float64(side-1), // ~20 km across regardless of scale
		Jitter:      0.15,
		RemoveEdge:  0.06,
		DeadEndFrac: 0.25,
	}, rng)
	if err != nil {
		return nil, fmt.Errorf("dataset: NY network: %w", err)
	}
	corpus, err := gen.PlaceObjects(g, gen.TextConfig{
		VocabSize:  1500,
		ZipfS:      1.15,
		MinTerms:   1,
		MaxTerms:   4,
		Objects:    int(float64(g.NumNodes()) * 1.9),
		SnapJitter: 30,
	}, rng)
	if err != nil {
		return nil, fmt.Errorf("dataset: NY objects: %w", err)
	}
	return assemble("NY", g, corpus, cfg)
}

// USANWLike builds the northwest-USA-style dataset: a sparser random
// geometric network over ~30×30 km with one object per node (the paper
// generates exactly |V| objects) and a larger tag-style vocabulary.
func USANWLike(cfg Config) (*Dataset, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	nodes := int(5000 * cfg.Scale)
	if nodes < 100 {
		nodes = 100
	}
	g, err := gen.GeometricNetwork(gen.GeometricConfig{
		Nodes:     nodes,
		Width:     30000,
		Height:    30000,
		Neighbors: 2,
	}, rng)
	if err != nil {
		return nil, fmt.Errorf("dataset: USANW network: %w", err)
	}
	corpus, err := gen.PlaceObjects(g, gen.TextConfig{
		VocabSize:  2500,
		ZipfS:      1.1,
		MinTerms:   1,
		MaxTerms:   6, // tag sets are longer than business categories
		Objects:    g.NumNodes(),
		SnapJitter: 50,
	}, rng)
	if err != nil {
		return nil, fmt.Errorf("dataset: USANW objects: %w", err)
	}
	return assemble("USANW", g, corpus, cfg)
}

func assemble(name string, g *roadnet.Graph, corpus *gen.Corpus, cfg Config) (*Dataset, error) {
	bounds := corpus.Bounds(g, 100)
	if cfg.Reopen {
		return reassemble(name, g, corpus, bounds, cfg)
	}
	idx, err := grid.NewIndex(corpus.Objects, bounds, cfg.CellSize, cfg.Store)
	if err != nil {
		return nil, fmt.Errorf("dataset: index: %w", err)
	}
	d := &Dataset{
		Name:    name,
		Graph:   g,
		Vocab:   corpus.Vocab,
		Objects: corpus.Objects,
		ObjNode: corpus.ObjNode,
		Ratings: corpus.Ratings,
		Index:   idx,
	}
	// Persist the vocabulary alongside the index metadata so an update-only
	// store can be reopened without re-deriving term statistics, then commit
	// a first metadata snapshot (a no-op for memory-backed stores).
	vocab := d.Vocab
	idx.SetMetaExtra(func() []byte { return vocab.EncodeSnapshot() })
	if err := idx.Compact(); err != nil {
		return nil, fmt.Errorf("dataset: initial meta commit: %w", err)
	}
	return d, nil
}

// Close compacts any pending live updates into the posting store and
// releases it when it is disk-backed (a no-op for the in-memory store).
// The dataset must not be queried afterwards.
func (d *Dataset) Close() error {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	return d.Index.CloseStore()
}

// sqrtScale converts a count multiplier into a grid-side multiplier.
func sqrtScale(s float64) float64 {
	if s <= 0 {
		return 1
	}
	return math.Sqrt(s)
}
