package grid

// Crash-replay suite for the live-update path: replay a scripted stream
// of inserts, deletes, reweights and compactions against a sharded store
// on a fault-injected in-memory switchboard, cut the run at randomized
// write boundaries (plain kill, torn final write, or fsyncs silently
// dropped before power loss), reboot the frozen disk image, and require
// that reopening recovers a provably valid state or fails with a typed
// error. The strong contract for an honest disk is exact: every update
// acknowledged before the crash survives bit-identically (the WAL is
// synced per append), and nothing that wasn't acknowledged appears. For
// a lying disk (dropped fsyncs) the contract is the btree crash suite's:
// any surviving posting must carry a weight that was really written for
// that (object, term) at some point — a fabricated or silently wrong
// answer is the one outcome that must never happen.

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"repro/internal/btree"
	"repro/internal/geo"
	"repro/internal/iofault"
	"repro/internal/textindex"
)

const (
	crashShards   = 3
	crashCell     = 100.0
	crashBaseObjs = 60
)

var crashBounds = geo.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}

// liveOp is one scripted logical operation.
type liveOp struct {
	kind    int // 0 insert, 1 delete, 2 reweight, 3 compact
	point   geo.Point
	doc     textindex.Doc
	strs    []string
	id      ObjectID
	weights []float64
}

// liveScript generates the deterministic op stream every crash run
// replays, tracking liveness so deletes and reweights always address
// alive objects.
func liveScript(vocab []string, base []Object) []liveOp {
	rng := rand.New(rand.NewSource(2026))
	alive := make([]ObjectID, len(base))
	nTermsOf := make(map[ObjectID]int)
	for i := range base {
		alive[i] = ObjectID(i)
		nTermsOf[ObjectID(i)] = len(base[i].Doc.Terms)
	}
	next := ObjectID(len(base))
	var ops []liveOp
	for len(ops) < 70 {
		switch r := rng.Intn(10); {
		case r < 4: // insert
			k := 1 + rng.Intn(3)
			seen := map[int]bool{}
			var terms []textindex.TermID
			for len(terms) < k {
				t := rng.Intn(len(vocab))
				if !seen[t] {
					seen[t] = true
					terms = append(terms, textindex.TermID(t))
				}
			}
			sort.Slice(terms, func(i, j int) bool { return terms[i] < terms[j] })
			w := make([]float64, k)
			tf := make([]int32, k)
			strs := make([]string, k)
			for i := range w {
				w[i] = 0.05 + rng.Float64()
				tf[i] = 1
				strs[i] = vocab[terms[i]]
			}
			ops = append(ops, liveOp{kind: 0,
				point: geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
				doc:   textindex.Doc{Terms: terms, Weights: w, TF: tf},
				strs:  strs})
			alive = append(alive, next)
			nTermsOf[next] = k
			next++
		case r < 6 && len(alive) > 5: // delete
			i := rng.Intn(len(alive))
			id := alive[i]
			alive = append(alive[:i], alive[i+1:]...)
			ops = append(ops, liveOp{kind: 1, id: id})
		case r < 9 && len(alive) > 0: // reweight
			id := alive[rng.Intn(len(alive))]
			w := make([]float64, nTermsOf[id])
			for i := range w {
				w[i] = 0.05 + rng.Float64()
			}
			ops = append(ops, liveOp{kind: 2, id: id, weights: w})
		default:
			ops = append(ops, liveOp{kind: 3})
		}
	}
	return ops
}

// copyObjs shallow-copies the object table: mutators only swap weight
// slice pointers, so element copies keep the pristine base reusable
// across runs.
func copyObjs(objs []Object) []Object {
	return append([]Object(nil), objs...)
}

// applyLiveOps replays ops until the first error, returning how many
// were acknowledged and the error that stopped the run (nil = all ran).
func applyLiveOps(idx *Index, ops []liveOp, after func(i int)) (int, error) {
	for i, op := range ops {
		var err error
		switch op.kind {
		case 0:
			_, err = idx.Insert(op.point, op.doc, op.strs, nil)
		case 1:
			err = idx.Delete(op.id, nil)
		case 2:
			err = idx.Reweight(op.id, op.weights, nil)
		case 3:
			err = idx.Compact()
		}
		if err != nil {
			return i, err
		}
		if after != nil {
			after(i)
		}
	}
	return len(ops), nil
}

// liveState is a complete logical fingerprint of an index: the object
// count, the tombstone set, and per term the full (object, weight) list
// recovered through real searches (IDF 1, norm 1, full bounds — so each
// object's score is exactly its stored posting weight).
type liveState struct {
	nObjs   int
	tombs   []ObjectID
	perTerm [][]ObjScore
}

func fingerprintLive(idx *Index, nTerms int) (liveState, error) {
	st := liveState{nObjs: len(idx.ObjectsRef())}
	idx.mu.RLock()
	for id := range idx.tombstones {
		st.tombs = append(st.tombs, id)
	}
	idx.mu.RUnlock()
	sort.Slice(st.tombs, func(i, j int) bool { return st.tombs[i] < st.tombs[j] })
	for tid := 0; tid < nTerms; tid++ {
		q := textindex.Query{Terms: []textindex.TermID{textindex.TermID(tid)}, IDF: []float64{1}, Norm: 1}
		res, err := idx.Search(q, crashBounds)
		if err != nil {
			return st, err
		}
		st.perTerm = append(st.perTerm, res)
	}
	return st, nil
}

// buildLiveBoard builds the base index on a fresh fault-free board and
// returns board and index; the caller installs a fault plan afterwards
// (SetPlan resets the write counters, so kill-point indices count from
// the start of the update phase, not the bulk build).
func buildLiveBoard(t *testing.T, base []Object) (*iofault.Switchboard, *Index) {
	t.Helper()
	sb := iofault.NewSwitchboard()
	store, err := CreateShardedStoreOn(sb, ShardedOptions{Shards: crashShards})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := NewIndex(copyObjs(base), crashBounds, crashCell, store)
	if err != nil {
		t.Fatal(err)
	}
	return sb, idx
}

// crashTyped reports whether a recovery failure is one of the typed
// corruption outcomes the contract allows.
func crashTyped(err error) bool {
	return errors.Is(err, ErrCorruptMeta) || errors.Is(err, ErrMetaMismatch) ||
		errors.Is(err, ErrCorruptUpdate) || errors.Is(err, ErrBadManifest) ||
		errors.Is(err, btree.ErrCorrupt) || errors.Is(err, ErrShardIO)
}

// reopenLive reboots a disk image: reopen the sharded store and rebuild
// the index over the same base objects from the committed meta + WAL.
func reopenLive(img *iofault.Switchboard, base []Object) (*Index, error) {
	store, err := OpenShardedStoreOn(img, ShardedOptions{})
	if err != nil {
		return nil, err
	}
	idx, err := NewIndexOver(copyObjs(base), crashBounds, crashCell, store)
	if err != nil {
		store.Close()
		return nil, err
	}
	return idx, nil
}

// crashBaseline replays the script fault-free and returns the vocabulary
// size, the per-prefix fingerprints (states[i] = after i acked ops) and
// the total number of update-phase writes (the kill-point space, close
// included).
func crashBaseline(t *testing.T) (base []Object, vocab []string, ops []liveOp, states []liveState, totalWrites int) {
	t.Helper()
	v, vocabT, objs := randomCorpus(t, crashBaseObjs, 99)
	nTerms := v.NumTerms()
	ops = liveScript(vocabT, objs)
	sb, idx := buildLiveBoard(t, objs)
	sb.SetPlan(iofault.Plan{})
	snap := func() liveState {
		st, err := fingerprintLive(idx, nTerms)
		if err != nil {
			t.Fatalf("fault-free fingerprint failed: %v", err)
		}
		return st
	}
	states = append(states, snap())
	if _, err := applyLiveOps(idx, ops, func(i int) {
		states = append(states, snap())
	}); err != nil {
		t.Fatalf("fault-free replay failed: %v", err)
	}
	if err := idx.CloseStore(); err != nil {
		t.Fatalf("fault-free close failed: %v", err)
	}
	_, w, _ := sb.Counts()
	if w < 100 {
		t.Fatalf("update phase produced only %d writes; the kill-point space is too small", w)
	}
	return objs, vocabT, ops, states, w
}

// assertExactState requires the recovered index to be bit-identical to
// the baseline state after exactly `acked` acknowledged operations.
func assertExactState(t *testing.T, idx *Index, want liveState, nTerms int, tag string) {
	t.Helper()
	got, err := fingerprintLive(idx, nTerms)
	if err != nil {
		t.Errorf("%s: recovered index failed to serve: %v", tag, err)
		return
	}
	if got.nObjs != want.nObjs {
		t.Errorf("%s: recovered %d objects, want %d", tag, got.nObjs, want.nObjs)
		return
	}
	if !reflect.DeepEqual(got.tombs, want.tombs) {
		t.Errorf("%s: tombstones %v, want %v", tag, got.tombs, want.tombs)
		return
	}
	for tid := range want.perTerm {
		if !reflect.DeepEqual(got.perTerm[tid], want.perTerm[tid]) {
			t.Errorf("%s: term %d postings diverge after recovery:\n got %v\nwant %v",
				tag, tid, got.perTerm[tid], want.perTerm[tid])
			return
		}
	}
}

// TestCrashLiveKillPoints cuts the update stream after exactly N writes
// for a sweep of N and requires, for both reboot modes (process kill
// with the page cache intact, and power loss keeping only synced bytes),
// that the reopened index equals the state after the acknowledged prefix
// — every acked op is durable, nothing unacked surfaces.
func TestCrashLiveKillPoints(t *testing.T) {
	base, _, ops, states, total := crashBaseline(t)
	nTerms := len(states[0].perTerm)
	rng := rand.New(rand.NewSource(31))
	pts := map[int]bool{}
	for n := 1; n <= 12 && n < total; n++ {
		pts[n] = true
	}
	for n := total - 12; n < total; n++ {
		if n >= 1 {
			pts[n] = true
		}
	}
	for len(pts) < 90 {
		pts[1+rng.Intn(total-1)] = true
	}
	var sorted []int
	for n := range pts {
		sorted = append(sorted, n)
	}
	sort.Ints(sorted)
	for _, n := range sorted {
		sb, idx := buildLiveBoard(t, base)
		sb.SetPlan(iofault.Plan{CrashAfterWrites: n})
		acked, err := applyLiveOps(idx, ops, nil)
		if err == nil {
			if err = idx.CloseStore(); err == nil {
				t.Fatalf("kill@%d: run finished despite crash plan (total %d)", n, total)
			}
		}
		if !sb.Crashed() {
			t.Fatalf("kill@%d: run errored (%v) without the board crashing", n, err)
		}
		for _, durable := range []bool{false, true} {
			tag := "kill@" + strconv.Itoa(n) + "/kill"
			if durable {
				tag = "kill@" + strconv.Itoa(n) + "/powerloss"
			}
			rec, rerr := reopenLive(sb.Fork(durable), base)
			if rerr != nil {
				// An honest disk plus a per-append fsync discipline must
				// always recover; any refusal here — typed or not — is a
				// durability bug, not an acceptable detection.
				t.Errorf("%s: reopen failed (acked %d, typed %v): %v", tag, acked, crashTyped(rerr), rerr)
				continue
			}
			assertExactState(t, rec, states[acked], nTerms, tag)
			rec.CloseStore()
		}
	}
}

// TestCrashLiveTornWrites tears one write mid-stream (a partial WAL
// frame, tree page, meta slot or manifest) and requires recovery to the
// acknowledged prefix or a typed corruption error — never a silently
// different state.
func TestCrashLiveTornWrites(t *testing.T) {
	base, _, ops, states, total := crashBaseline(t)
	nTerms := len(states[0].perTerm)
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 40; i++ {
		n := 1 + rng.Intn(total-1)
		tornBytes := 1 + rng.Intn(512)
		sb, idx := buildLiveBoard(t, base)
		sb.SetPlan(iofault.Plan{TornWrite: n, TornBytes: tornBytes})
		acked, err := applyLiveOps(idx, ops, nil)
		if err == nil {
			if err = idx.CloseStore(); err == nil {
				t.Fatalf("torn@%d: run finished despite torn-write plan", n)
			}
		}
		tag := "torn@" + strconv.Itoa(n) + "+" + strconv.Itoa(tornBytes)
		rec, rerr := reopenLive(sb.Fork(false), base)
		if rerr != nil {
			if !crashTyped(rerr) {
				t.Errorf("%s: reopen failed untyped: %v", tag, rerr)
			}
			continue
		}
		assertExactState(t, rec, states[acked], nTerms, tag)
		rec.CloseStore()
	}
}

// TestCrashLiveDroppedFsyncs models a lying disk: fsyncs silently
// succeed without persisting, then the power fails. Acknowledged
// updates may legitimately be lost (the disk lied), so exact recovery
// cannot be demanded; what must still hold is that nothing fabricated
// survives — the store opens typed-or-clean, and every posting the
// recovered index serves carries a weight that was really written for
// that (object, term) pair at some point in the run.
func TestCrashLiveDroppedFsyncs(t *testing.T) {
	base, _, ops, states, total := crashBaseline(t)
	nTerms := len(states[0].perTerm)
	// allowed[term][obj] = every weight that (obj, term) ever carried.
	allowed := make([]map[ObjectID]map[float64]bool, nTerms)
	for tid := 0; tid < nTerms; tid++ {
		allowed[tid] = make(map[ObjectID]map[float64]bool)
		for _, st := range states {
			for _, os := range st.perTerm[tid] {
				if allowed[tid][os.Obj] == nil {
					allowed[tid][os.Obj] = make(map[float64]bool)
				}
				allowed[tid][os.Obj][os.Score] = true
			}
		}
	}
	rng := rand.New(rand.NewSource(71))
	for i := 0; i < 40; i++ {
		n := 1 + rng.Intn(total-1)
		keep := rng.Intn(16)
		sb, idx := buildLiveBoard(t, base)
		sb.SetPlan(iofault.Plan{CrashAfterWrites: n, DropSyncAfter: keep, DropAllSyncs: keep == 0})
		_, err := applyLiveOps(idx, ops, nil)
		if err == nil {
			if err = idx.CloseStore(); err == nil {
				t.Fatalf("fsync-drop@%d: run finished despite crash plan", n)
			}
		}
		tag := "fsync-drop@" + strconv.Itoa(n) + "/keep" + strconv.Itoa(keep)
		rec, rerr := reopenLive(sb.Fork(true), base)
		if rerr != nil {
			if !crashTyped(rerr) {
				t.Errorf("%s: reopen failed untyped: %v", tag, rerr)
			}
			continue
		}
		got, gerr := fingerprintLive(rec, nTerms)
		if gerr != nil {
			if !crashTyped(gerr) {
				t.Errorf("%s: recovered index failed untyped while serving: %v", tag, gerr)
			}
			rec.CloseStore()
			continue
		}
		for tid := range got.perTerm {
			for _, os := range got.perTerm[tid] {
				if !allowed[tid][os.Obj][os.Score] {
					t.Errorf("%s: term %d serves object %d with weight %v never written for it — silent wrong answer",
						tag, tid, os.Obj, os.Score)
				}
			}
		}
		rec.CloseStore()
	}
}

// TestCrashLiveCloseLosesNothing is the positive durability claim: after
// a clean CloseStore, power loss (only synced bytes survive) recovers
// the final state bit-identically.
func TestCrashLiveCloseLosesNothing(t *testing.T) {
	base, _, ops, states, _ := crashBaseline(t)
	nTerms := len(states[0].perTerm)
	sb, idx := buildLiveBoard(t, base)
	if _, err := applyLiveOps(idx, ops, nil); err != nil {
		t.Fatal(err)
	}
	if err := idx.CloseStore(); err != nil {
		t.Fatal(err)
	}
	rec, err := reopenLive(sb.Fork(true), base)
	if err != nil {
		t.Fatalf("reopen after clean close + power loss: %v", err)
	}
	defer rec.CloseStore()
	assertExactState(t, rec, states[len(ops)], nTerms, "post-close powerloss")
	if rep := rec.Store().(*ShardedStore).Scrub(); rep.Err() != nil {
		t.Fatalf("post-close store failed scrub: %v", rep.Err())
	}
}
