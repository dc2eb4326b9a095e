package repro

// TestLiveUpdateGolden is the differential harness behind the live-update
// path: random interleavings of Insert/Delete/Reweight batches run
// against a live Database, and after every batch the live database must
// answer a fixed query workload bit-identically — same regions, same
// float64 scores, same objects — to a Database REBUILT from scratch over
// the same logical object set. The rebuild goes through the ordinary
// batch constructor (fresh vocabulary, fresh grid index, fresh posting
// lists), so any drift in vocabulary statistics, cell directories,
// postings, or tombstone accounting shows up as a response mismatch.
// The harness runs over both store backends (in-memory, and on disk with
// four shards and with one), covers all three algorithms, and finishes by closing and
// reopening the disk store to prove the persisted form serves the same
// answers.

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/roadnet"
	"repro/internal/textindex"
)

// shadowObj is the logical history of one object id: where it is, the
// token multiset it was indexed with, whether it is alive, and the
// reweight factors applied to it in order.
type shadowObj struct {
	x, y    float64
	tokens  []string
	alive   bool
	factors []float64
}

// expandTokens reconstructs an object's token multiset from its indexed
// Doc: terms in ascending TermID order, each repeated tf times. Feeding
// these to a fresh vocabulary in id order reproduces the exact interning
// order, document statistics and normalized weights of the original.
func expandTokens(v *textindex.Vocabulary, d *textindex.Doc) []string {
	var out []string
	for i, t := range d.Terms {
		for n := int32(0); n < d.TF[i]; n++ {
			out = append(out, v.Term(t))
		}
	}
	return out
}

// snapshotShadow captures the current state of object id from the live
// dataset (under its read lock).
func snapshotShadow(db *Database, id int) shadowObj {
	db.ds.RLock()
	defer db.ds.RUnlock()
	o := db.ds.Objects[id]
	return shadowObj{
		x: o.Point.X, y: o.Point.Y,
		tokens: expandTokens(db.ds.Vocab, &o.Doc),
		alive:  true,
	}
}

// rebuildDatabase constructs a fresh Database over the shadow's logical
// object set: a new vocabulary indexed in id order (deleted objects
// contribute their statistics and then leave them, exactly like a live
// Delete), a new grid index with the same geometry, and the reweight
// factor chains replayed as the same sequence of multiplications.
func rebuildDatabase(t *testing.T, live *Database, shadow []shadowObj) *Database {
	t.Helper()
	vocab := textindex.NewVocabulary()
	docs := make([]textindex.Doc, len(shadow))
	for i, s := range shadow {
		docs[i] = vocab.IndexDoc(s.tokens)
	}
	objs := make([]grid.Object, len(shadow))
	for i, s := range shadow {
		doc := docs[i]
		if !s.alive {
			vocab.RemoveDocStats(doc)
			doc = textindex.Doc{}
		} else if len(s.factors) > 0 {
			w := append([]float64(nil), doc.Weights...)
			for _, f := range s.factors {
				for j := range w {
					w[j] *= f
				}
			}
			doc.Weights = w
		}
		objs[i] = grid.Object{Point: geo.Point{X: s.x, Y: s.y}, Doc: doc}
	}
	liveIdx := live.ds.Index
	idx, err := grid.NewIndex(objs, liveIdx.Bounds(), liveIdx.CellSize(), nil)
	if err != nil {
		t.Fatalf("rebuild index: %v", err)
	}
	ds := &dataset.Dataset{
		Name:    live.ds.Name,
		Graph:   live.ds.Graph,
		Vocab:   vocab,
		Objects: objs,
		ObjNode: append([]roadnet.NodeID(nil), live.ds.ObjNode...),
		Index:   idx,
	}
	if live.ds.Ratings != nil {
		ds.Ratings = append([]float64(nil), live.ds.Ratings...)
	}
	return &Database{ds: ds}
}

// assertSameResponses runs the workload on both databases across all
// three methods (plus one top-K case) and requires bit-identical
// responses.
func assertSameResponses(t *testing.T, liveDB, rebuilt *Database, queries []Query, tag string) {
	t.Helper()
	ctx := context.Background()
	methods := []struct {
		name string
		opts SearchOptions
	}{
		{"TGEN", SearchOptions{Method: MethodTGEN}},
		{"APP", SearchOptions{Method: MethodAPP}},
		{"Greedy", SearchOptions{Method: MethodGreedy}},
	}
	for qi, q := range queries {
		for _, m := range methods {
			got := liveDB.Do(ctx, Request{Query: q, Search: m.opts})
			want := rebuilt.Do(ctx, Request{Query: q, Search: m.opts})
			if (got.Err == nil) != (want.Err == nil) {
				t.Fatalf("%s: query %d %s: live err %v, rebuild err %v", tag, qi, m.name, got.Err, want.Err)
			}
			if !reflect.DeepEqual(got.Results, want.Results) {
				t.Fatalf("%s: query %d %s: live response diverges from rebuild\n live: %+v\nwant: %+v",
					tag, qi, m.name, first(got.Results), first(want.Results))
			}
		}
		if qi == 0 {
			got := liveDB.Do(ctx, Request{Query: q, K: 3, Search: SearchOptions{Method: MethodTGEN}})
			want := rebuilt.Do(ctx, Request{Query: q, K: 3, Search: SearchOptions{Method: MethodTGEN}})
			if !reflect.DeepEqual(got.Results, want.Results) {
				t.Fatalf("%s: query %d top-3: live response diverges from rebuild", tag, qi)
			}
		}
	}
}

func first(rs []*Result) *Result {
	if len(rs) == 0 {
		return nil
	}
	return rs[0]
}

// liveGoldenWords is the insert-text vocabulary: mostly words the base
// corpus already uses (so inserts collide with existing postings), plus
// fresh words that must be interned live and survive reopen.
func liveGoldenWords(db *Database) []string {
	words := []string{}
	db.ds.RLock()
	for t := 0; t < db.ds.Vocab.NumTerms() && t < 30; t++ {
		words = append(words, db.ds.Vocab.Term(textindex.TermID(t)))
	}
	db.ds.RUnlock()
	for i := 0; i < 6; i++ {
		words = append(words, fmt.Sprintf("neologism%d", i))
	}
	return words
}

func runLiveUpdateGolden(t *testing.T, db *Database, closeReopen func() *Database) {
	rng := rand.New(rand.NewSource(1407))
	words := liveGoldenWords(db)
	bounds := db.Bounds()

	// Shadow the base corpus.
	n := db.NumObjects()
	shadow := make([]shadowObj, n)
	for i := 0; i < n; i++ {
		shadow[i] = snapshotShadow(db, i)
	}
	var alive []int
	for i := range shadow {
		alive = append(alive, i)
	}

	// Fixed workload: generated once from the base corpus so live and
	// rebuilt answer the identical queries throughout.
	queries, err := db.GenQueries(rand.New(rand.NewSource(2)), 4, 2, 4e6, 3000)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	// One query pinned to the full extent so inserted objects anywhere
	// (including fresh "neologism" terms) influence answers.
	queries = append(queries, Query{
		Keywords: []string{words[0], words[len(words)-6]},
		Delta:    4000,
		Region:   bounds,
	})

	assertSameResponses(t, db, rebuildDatabase(t, db, shadow), queries, "baseline")

	for round := 0; round < 4; round++ {
		batch := 8 + rng.Intn(6)
		for b := 0; b < batch; b++ {
			switch op := rng.Intn(10); {
			case op < 4: // insert
				nw := 1 + rng.Intn(3)
				text := ""
				for w := 0; w < nw; w++ {
					text += words[rng.Intn(len(words))] + " "
				}
				p := geo.Point{
					X: bounds.MinX + rng.Float64()*(bounds.MaxX-bounds.MinX),
					Y: bounds.MinY + rng.Float64()*(bounds.MaxY-bounds.MinY),
				}
				id, err := db.Insert(ObjectSpec{X: p.X, Y: p.Y, Text: text})
				if err != nil {
					t.Fatalf("round %d insert: %v", round, err)
				}
				if id != len(shadow) {
					t.Fatalf("round %d: insert assigned id %d, want %d", round, id, len(shadow))
				}
				shadow = append(shadow, snapshotShadow(db, id))
				alive = append(alive, id)
			case op < 7 && len(alive) > 10: // delete
				i := rng.Intn(len(alive))
				id := alive[i]
				alive = append(alive[:i], alive[i+1:]...)
				if err := db.Delete(id); err != nil {
					t.Fatalf("round %d delete %d: %v", round, id, err)
				}
				shadow[id].alive = false
			default: // reweight
				id := alive[rng.Intn(len(alive))]
				f := 0.25 + rng.Float64()*2
				if err := db.Reweight(id, f); err != nil {
					t.Fatalf("round %d reweight %d: %v", round, id, err)
				}
				shadow[id].factors = append(shadow[id].factors, f)
			}
		}
		if round == 2 {
			if err := db.Compact(); err != nil {
				t.Fatalf("mid-run compact: %v", err)
			}
		}
		assertSameResponses(t, db, rebuildDatabase(t, db, shadow), queries,
			fmt.Sprintf("round %d", round))
	}

	if closeReopen != nil {
		db = closeReopen()
		assertSameResponses(t, db, rebuildDatabase(t, db, shadow), queries, "reopened")
		if err := db.Close(); err != nil {
			t.Fatalf("final close: %v", err)
		}
	}
}

func TestLiveUpdateGolden(t *testing.T) {
	t.Run("MemStore", func(t *testing.T) {
		db, err := NYLike(5, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		runLiveUpdateGolden(t, db, nil)
	})
	for _, tc := range []struct {
		name   string
		shards int
	}{{"Sharded", 4}, {"OneShard", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "store")
			db, err := NYLikeWithStore(5, 0.05, StoreConfig{Path: path, Shards: tc.shards})
			if err != nil {
				t.Fatal(err)
			}
			runLiveUpdateGolden(t, db, func() *Database {
				if err := db.Close(); err != nil {
					t.Fatalf("close before reopen: %v", err)
				}
				re, err := NYLikeWithStore(5, 0.05, StoreConfig{Path: path, OpenExisting: true})
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				return re
			})
		})
	}
}

// TestReopenPreservesUncompacted proves the WAL carries updates across a
// close that never compacted: updates are applied, the raw store is
// closed underneath (no checkpoint), and a reopened database still
// serves them — recovered purely from the log.
func TestReopenPreservesUncompacted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store")
	db, err := NYLikeWithStore(3, 0.04, StoreConfig{Path: path, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	id, err := db.Insert(ObjectSpec{X: 100, Y: 100, Text: "walword survives"})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(0); err != nil {
		t.Fatal(err)
	}
	bounds := db.Bounds()
	q := Query{Keywords: []string{"walword"}, Delta: 3000, Region: bounds}
	want := db.Do(context.Background(), Request{Query: q})
	if want.Err != nil {
		t.Fatal(want.Err)
	}
	// Close the store WITHOUT the database-level compaction path.
	if c, ok := db.ds.Index.Store().(interface{ Close() error }); ok {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	re, err := NYLikeWithStore(3, 0.04, StoreConfig{Path: path, OpenExisting: true})
	if err != nil {
		t.Fatalf("reopen after uncompacted close: %v", err)
	}
	defer re.Close()
	if re.NumObjects() != id+1 {
		t.Fatalf("reopened database has %d objects, want %d", re.NumObjects(), id+1)
	}
	got := re.Do(context.Background(), Request{Query: q})
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	if !reflect.DeepEqual(got.Results, want.Results) {
		t.Fatalf("uncompacted updates lost across reopen:\n got %+v\nwant %+v",
			first(got.Results), first(want.Results))
	}
}
