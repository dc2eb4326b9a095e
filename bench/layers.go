package main

// This file holds every call the benchmark makes into repro/internal/…;
// README.md lists the pinned symbols. The traced pass replays a workload's
// queries single-threaded on a dataset.Dataset built from the same seed,
// calling each layer's public function in request order with a span around
// it and reading counts at the same boundaries.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http/httptest"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/httpapi"
	"repro/internal/kmst"
	"repro/internal/pcst"
	"repro/internal/plan"
	"repro/internal/queryengine"
	"repro/internal/roadnet"
	"repro/internal/textindex"
)

// tracedUpdates bounds the update stream the traced pass applies: enough
// for several compaction cycles, few enough to stay a side show.
const tracedUpdates = 2048

// waitProbe is how much of the open-loop schedule is replayed against a
// bare queryengine.Server to read Task.Wait.
const waitProbe = 2 * time.Second

// stubBackend answers every HTTP query with a pre-built response, so the
// handler's span holds the codec and nothing else.
type stubBackend struct{ resp *httpapi.QueryResponse }

func (b stubBackend) Query(context.Context, httpapi.QueryRequest) (httpapi.QueryResponse, error) {
	return *b.resp, nil
}
func (b stubBackend) Stats() httpapi.Stats { return httpapi.Stats{} }

func wireResponse(r *repro.Result, explain bool) httpapi.QueryResponse {
	var out httpapi.QueryResponse
	if r != nil {
		reg := httpapi.Region{Score: r.Score, Length: r.Length, Nodes: r.Nodes}
		for _, e := range r.Edges {
			reg.Edges = append(reg.Edges, httpapi.Edge{U: e.U, V: e.V, Length: e.Length})
		}
		for _, o := range r.Objects {
			reg.Objects = append(reg.Objects, httpapi.Object{ID: o.ID, X: o.X, Y: o.Y, Score: o.Score})
		}
		out.Matched, out.Regions = true, []httpapi.Region{reg}
	}
	if explain {
		out.Plan = &httpapi.Plan{Method: "Greedy", Reason: "method requested by client"}
	}
	return out
}

// solverSpan names the solver's span: core.tgen, core.app or core.greedy.
func solverSpan(m repro.Method) string { return "core." + strings.ToLower(m.String()) }

// engineMethod maps the public method onto the engine's enum.
var engineMethod = map[repro.Method]queryengine.Method{
	repro.MethodTGEN:   queryengine.MethodTGEN,
	repro.MethodAPP:    queryengine.MethodAPP,
	repro.MethodGreedy: queryengine.MethodGreedy,
}

// solve runs the workload's solver on the planner's instance and pooled
// scratch, with the defaults the serving path resolves to.
func solve(ctx context.Context, m repro.Method, qi *dataset.QueryInstance, delta float64) (*core.Region, error) {
	switch m {
	case repro.MethodAPP:
		return core.SolveAPP(ctx, qi.Scratch, qi.In, delta, core.APPOptions{})
	case repro.MethodGreedy:
		return core.SolveGreedy(ctx, qi.Scratch, qi.In, delta, core.GreedyOptions{})
	default:
		return core.SolveTGEN(ctx, qi.Scratch, qi.In, delta, core.TGENOptions{Alpha: math.Max(1, float64(qi.In.NumNodes)/9)})
	}
}

// layerPass is the traced pass of one workload. e is the set-up system of
// the untraced run: it supplies the query set, the sequence replayed, the
// quiescent answers, and the public Server.Do timed as the whole request.
// It returns the per-layer metrics it can measure (the caller adds those
// read off the untraced run) and the recorder holding the spans.
func layerPass(w *workload, seed int64, e *env, outDir string) (map[string]float64, *recorder, error) {
	ctx := context.Background()
	vals := map[string]float64{}

	// The dataset the layer functions run on: same seed, same store shape.
	var store grid.Store
	var storeDir string
	if w.disk {
		dir, err := freshStoreDir(outDir, "layers-"+w.name+"-")
		if err != nil {
			return nil, nil, err
		}
		defer os.RemoveAll(dir)
		st, err := grid.CreateShardedStore(dir, grid.ShardedOptions{Shards: shards, CachePages: cachePages, NoSync: false})
		if err != nil {
			return nil, nil, err
		}
		store, storeDir = st, dir
	}
	ds, err := dataset.NYLike(dataset.Config{Seed: seed, Scale: w.scale, Store: store})
	if err != nil {
		return nil, nil, err
	}
	defer ds.Close()
	if w.scoreCache > 0 {
		ds.Index.SetScoreCache(w.scoreCache)
	}
	dqs, err := ds.GenQueries(rand.New(rand.NewSource(querySeed(seed))), w.nQueries, w.keywords, w.area, w.delta)
	if err != nil {
		return nil, nil, err
	}
	for i, dq := range dqs {
		q := e.queries[i]
		if !reflect.DeepEqual(dq.Keywords, q.Keywords) || dq.Lambda != (geo.Rect{MinX: q.Region.MinX, MinY: q.Region.MinY, MaxX: q.Region.MaxX, MaxY: q.Region.MaxY}) {
			return nil, nil, fmt.Errorf("layer dataset drew a different query %d than the served database", i)
		}
	}
	rec := newRecorder(w.name, seed)

	// Cluster: two node listeners over a second dataset, a coordinator over
	// ds, and the planner's search routed through it as OpenCluster does.
	var coord *cluster.Coordinator
	var nodeDS *dataset.Dataset
	var ranges [][2]uint32
	if w.kind == kindCluster {
		if nodeDS, err = dataset.NYLike(dataset.Config{Seed: seed, Scale: w.scale}); err != nil {
			return nil, nil, err
		}
		cells := uint32(nodeDS.Index.NumCells())
		ranges = [][2]uint32{{0, cells / 2}, {cells / 2, cells}}
		var addrs []string
		for _, rg := range ranges {
			node, err := cluster.NewNode(cluster.NodeConfig{Index: nodeDS.Index, CellLo: rg[0], CellHi: rg[1], Objects: len(nodeDS.Objects)})
			if err != nil {
				return nil, nil, err
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, nil, err
			}
			node.Serve(ln)
			defer node.Close()
			addrs = append(addrs, node.Addr().String())
		}
		if coord, err = cluster.NewCoordinator(cluster.CoordinatorConfig{Addrs: addrs, Index: ds.Index, Objects: len(ds.Objects)}); err != nil {
			return nil, nil, err
		}
		defer coord.Close()
		ds.SetSearchFunc(func(ctx context.Context, q textindex.Query, r geo.Rect, s *grid.SearchScratch) ([]grid.ObjScore, error) {
			return coord.SearchTrace(ctx, q, r, s.Trace)
		})
	}

	if w.kind == kindIngest {
		if err := tracedIngest(w, e, ds, storeDir, rec, vals); err != nil {
			return nil, nil, err
		}
	}
	if w.disk {
		vals["grid.store_bytes_per_object"] = ratio(float64(storeFileBytes(storeDir, "shard-*.bt")), float64(len(ds.Objects)))
	}

	planner := ds.NewPlanner()
	extractor := roadnet.NewExtractor(ds.Graph)
	var qscratch textindex.QueryScratch
	var sscratch grid.SearchScratch
	model := plan.Default()
	garg, pcstSolver := kmst.NewGargSolver(), pcst.NewSolver()
	var scaling core.Scaling
	var pcstEdges []pcst.Edge
	var prizes []float64
	gargResets := 0

	qsrv := queryengine.NewServer(ds, queryengine.ServerOptions{Workers: 1})
	defer qsrv.Close()
	var waits []time.Duration
	var dispatch []float64
	var task queryengine.Task
	var visited time.Time
	task.Visit = func(*dataset.QueryInstance) error {
		visited = time.Now()
		return nil
	}

	stub := stubBackend{resp: new(httpapi.QueryResponse)}
	handler := httpapi.NewHandler(stub, httpapi.Options{})

	seq := e.seq[:min(w.traced, len(e.seq))]
	quiescentTwin := w.kind != kindIngest // the layer dataset holds the same objects as the served one
	var chosen [3]float64                 // indexed by queryengine.Method
	var planErr, respBytes, nodeCounts, served []float64
	var tracedReq, untracedReq, clusterWire, clusterNode []float64

	// Request k is query seq[k]; its spans share Req = k. ids remembers the
	// spans that a later step's span becomes the parent of.
	type ids struct {
		parts                        [3]int
		inst, est, plan, solve, noop int
	}
	spans := make([]ids, len(seq))
	dSearch := make([]time.Duration, len(seq))

	// parts: the pieces of Planner.Instantiate, alone, on the same inputs.
	parts := func(k int) error {
		dq := dqs[seq[k]]
		rect := dq.Lambda
		var prepared textindex.Query
		_, spans[k].parts[0] = rec.timed("textindex.prepare", -1, k, true, func() {
			prepared = ds.Vocab.PrepareQueryInto(dq.Keywords, &qscratch)
		})
		_, spans[k].parts[1] = rec.timed("roadnet.extract", -1, k, true, func() { extractor.ExtractRect(rect) })
		var err error
		if coord == nil {
			dSearch[k], spans[k].parts[2] = rec.timed("grid.search", -1, k, true, func() { _, err = ds.Index.SearchInto(prepared, rect, &sscratch) })
			return err
		}
		dSearch[k], spans[k].parts[2] = rec.timed("cluster.search", -1, k, true, func() { _, err = coord.Search(ctx, prepared, rect) })
		var slowest time.Duration
		for _, rg := range ranges {
			d, _ := rec.timed("cluster.node_search", spans[k].parts[2], k, true, func() {
				if _, e := nodeDS.Index.SearchRangeInto(prepared, rect, rg[0], rg[1], &sscratch); e != nil {
					err = e
				}
			})
			slowest = max(slowest, d)
		}
		clusterNode = append(clusterNode, us(slowest))
		clusterWire = append(clusterWire, us(dSearch[k]-slowest))
		return err
	}

	// pooled: the pooled request path — instantiate, what the planner would
	// estimate and choose, the workload's solver — and APP's two lower
	// storeys alone on the instance APP just solved.
	pooled := func(k int) error {
		qi := seq[k]
		dq := dqs[qi]
		dq.Trace = true
		rect := dq.Lambda
		var inst *dataset.QueryInstance
		var err error
		var dInst, dSolve time.Duration
		dInst, spans[k].inst = rec.timed("dataset.instantiate", -1, k, true, func() { inst, err = planner.Instantiate(dq) })
		if err != nil {
			return err
		}
		for _, id := range spans[k].parts {
			rec.reparent(id, spans[k].inst)
		}
		tr := inst.SearchTrace
		rec.count(k, "grid.cells_scanned", tr.CellsScanned)
		rec.count(k, "grid.cells_skipped", tr.CellsSkipped())
		rec.count(k, "grid.lists", tr.Lists)
		rec.count(k, "grid.postings", tr.Postings)
		rec.count(k, "grid.postings_filtered", tr.PostingsFiltered)
		rec.count(k, "grid.objects", tr.Objects)
		rec.count(k, "cluster.groups_contacted", tr.GroupsContacted)
		rec.count(k, "cluster.groups_skipped", tr.GroupsSkippedRect+tr.GroupsSkippedTerm)
		nodeCounts = append(nodeCounts, float64(inst.In.NumNodes))

		var est plan.Estimate
		var se grid.SearchEstimate
		_, spans[k].est = rec.timed("grid.estimate", -1, k, true, func() { se = ds.Index.EstimateSearch(inst.Prepared, rect) })
		_, spans[k].plan = rec.timed("plan.choose", -1, k, true, func() {
			est = model.Estimate(se, inst.In.NumNodes)
			chosen[plan.Choose(est, httpTimeoutMs*time.Millisecond, 0).Method]++
		})

		var region *core.Region
		dSolve, spans[k].solve = rec.timed(solverSpan(w.method), -1, k, true, func() { region, err = solve(ctx, w.method, inst, dq.Delta) })
		if err != nil {
			return err
		}
		if quiescentTwin {
			var got, want float64
			if region != nil {
				got = region.Score
			}
			if e.ref[qi] != nil {
				want = e.ref[qi].Score
			}
			if got != want {
				return fmt.Errorf("layer replay found weight %v, the served answer has %v", got, want)
			}
		}
		planErr = append(planErr, math.Abs(math.Log2(float64(dSearch[k]+dSolve)/float64(est.Of(engineMethod[w.method])))))
		tracedReq = append(tracedReq, us(dInst+dSolve))

		if w.method != repro.MethodAPP || core.ScaleInto(inst.In, 0.5, &scaling) != nil {
			return nil
		}
		pcstEdges, prizes = pcstEdges[:0], prizes[:0]
		for _, ed := range inst.In.Edges {
			pcstEdges = append(pcstEdges, pcst.Edge{U: ed.U, V: ed.V, Cost: ed.Length})
		}
		for _, s := range scaling.Scaled {
			prizes = append(prizes, float64(s))
		}
		rec.timed("kmst.garg_tree", -1, k, false, func() {
			if err = garg.Reset(inst.In.NumNodes, pcstEdges, scaling.Scaled); err == nil {
				_, _, err = garg.Tree(scaling.SumHat / 2)
			}
		})
		gargResets++
		if err != nil {
			return err
		}
		rec.timed("pcst.solve", -1, k, false, func() {
			pcstSolver.Reset()
			_, err = pcstSolver.Solve(&pcst.Graph{N: inst.In.NumNodes, Edges: pcstEdges, Prizes: prizes})
		})
		return err
	}

	// twin: pooled's instantiate + solve with no spans and the search trace
	// off. The ratio of the two is the tracing overhead.
	twin := func(k int) error {
		dq := dqs[seq[k]]
		t0 := time.Now()
		inst, err := planner.Instantiate(dq)
		if err == nil {
			_, err = solve(ctx, w.method, inst, dq.Delta)
		}
		untracedReq = append(untracedReq, us(time.Since(t0)))
		return err
	}

	// noop: admission, queue hand-off and instantiate, without a solve. The
	// engine's own cost is read inside the one request — the wait before a
	// worker picked it up plus the hand-back after Visit returned — rather
	// than as the difference of this span and a separately timed instantiate.
	noop := func(k int) error {
		var err error
		task.Query = dqs[seq[k]]
		_, spans[k].noop = rec.timed("queryengine.do_noop", -1, k, true, func() { err = qsrv.Do(&task) })
		waits = append(waits, task.Wait)
		dispatch = append(dispatch, us(task.Wait+time.Since(visited)))
		rec.reparent(spans[k].inst, spans[k].noop)
		return err
	}

	// codec: the HTTP handler around a pre-built answer.
	codec := func(k int) error {
		if w.kind != kindHTTP {
			return nil
		}
		qi := seq[k]
		*stub.resp = wireResponse(e.ref[qi], w.explain)
		rr := httptest.NewRecorder()
		hreq := httptest.NewRequest("POST", "/query", bytes.NewReader(e.bodies[qi]))
		rec.timed("httpapi.codec", -1, k, false, func() { handler.ServeHTTP(rr, hreq) })
		if rr.Code != 200 {
			return fmt.Errorf("handler answered %d: %s", rr.Code, rr.Body.String())
		}
		respBytes = append(respBytes, float64(rr.Body.Len()))
		return nil
	}

	// serve: the whole served request through the public API, one client.
	// What the spans attributed to it do not cover is repro's own glue:
	// option resolution, the plan annotation, materializing the Result.
	serve := func(k int) error {
		var resp repro.Response
		req := repro.Request{Query: e.queries[seq[k]], Explain: w.explain}
		_, id := rec.timed("repro.serve", -1, k, false, func() {
			if e.cluster != nil {
				resp = e.cluster.Do(ctx, req)
			} else {
				resp = e.srv.Do(ctx, req)
			}
		})
		rec.reparent(spans[k].noop, id)
		rec.reparent(spans[k].solve, id)
		if w.explain { // estimate and plan run on the live path only for EXPLAIN/Auto requests
			rec.reparent(spans[k].est, id)
			rec.reparent(spans[k].plan, id)
		}
		return resp.Err
	}

	// entry: the request through the workload's own serving surface,
	// untraced, one client: what the spans should add up to.
	entry := func(k int) error {
		t0 := time.Now()
		_, err := e.do(seq[k])
		served = append(served, us(time.Since(t0)))
		return err
	}

	// The steps run in blocks of a few requests: step by step within a
	// block, so a query's data has been displaced from the CPU and page
	// caches by the block's other queries before its next step touches it
	// (as in a served replay), yet all steps of a request run within a
	// fraction of a second of each other — this sandbox's CPUs switch
	// between two speeds a quarter apart every few seconds, and spans that
	// are subtracted from each other must see the same one.
	const block = 4
	steps := []struct {
		name string
		fn   func(k int) error
	}{{"parts", parts}, {"pooled", pooled}, {"twin", twin}, {"noop", noop}, {"codec", codec}, {"serve", serve}, {"entry", entry}}
	for lo := 0; lo < len(seq); lo += block {
		for _, st := range steps {
			for k := lo; k < min(lo+block, len(seq)); k++ {
				if err := st.fn(k); err != nil {
					return nil, nil, fmt.Errorf("request %d (query %d), step %s: %w", k, seq[k], st.name, err)
				}
			}
		}
	}

	if w.kind == kindHTTP {
		w95, err := probeQueueWait(w, e, ds, dqs)
		if err != nil {
			return nil, nil, err
		}
		vals["queryengine.wait_p95_us"] = w95
	} else {
		slices.Sort(waits)
		vals["queryengine.wait_p95_us"] = us(percentile(waits, 0.95))
	}

	sum := func(name string, self bool) float64 {
		var s float64
		for _, v := range rec.perRequest(name, self) {
			s += v
		}
		return s
	}
	med := func(name string, self bool) float64 { return median(rec.perRequest(name, self)) }
	doSum := sum("repro.serve", false)
	solver := solverSpan(w.method)
	vals[solver+"_us"] = med(solver, false)
	vals[solver+"_share"] = ratio(sum(solver, false), doSum)
	vals["kmst.garg_tree_us"] = med("kmst.garg_tree", false)
	vals["kmst.lam_cache_reuse_ratio"] = ratio(float64(garg.LamCacheReuses()), float64(gargResets))
	vals["pcst.solve_us"] = med("pcst.solve", false)
	vals["textindex.prepare_us"] = med("textindex.prepare", false)
	vals["grid.search_us"] = med("grid.search", false)
	vals["grid.search_share"] = ratio(sum("grid.search", false), doSum)
	for _, c := range []string{"grid.cells_scanned", "grid.cells_skipped", "grid.lists", "grid.postings", "grid.postings_filtered", "grid.objects", "cluster.groups_contacted", "cluster.groups_skipped"} {
		vals[c] = mean(rec.counts(c))
	}
	vals["grid.estimate_us"] = med("grid.estimate", false)
	vals["roadnet.extract_us"] = med("roadnet.extract", false)
	vals["roadnet.nodes_per_query"] = mean(nodeCounts)
	vals["dataset.instantiate_us"] = med("dataset.instantiate", false)
	vals["dataset.build_us"] = med("dataset.instantiate", true)
	vals["plan.choose_us"] = med("plan.choose", false)
	n := float64(len(seq))
	vals["plan.greedy_share"] = chosen[queryengine.MethodGreedy] / n
	vals["plan.tgen_share"] = chosen[queryengine.MethodTGEN] / n
	vals["plan.app_share"] = chosen[queryengine.MethodAPP] / n
	vals["plan.log2_err_p50"] = median(planErr)
	vals["queryengine.dispatch_us"] = median(dispatch)
	vals["httpapi.codec_us"] = med("httpapi.codec", false)
	vals["httpapi.resp_bytes"] = median(respBytes)
	vals["repro.materialize_us"] = med("repro.serve", true)
	vals["cluster.search_us"] = med("cluster.search", false)
	vals["cluster.node_search_us"] = median(clusterNode)
	vals["cluster.wire_us"] = median(clusterWire)
	vals["cluster.wire_share"] = ratio(mean(clusterWire)*n, doSum)
	// Coverage adds up only what was timed on its own, outside the served
	// request: dispatch + instantiate (the no-op engine request), the
	// solver, estimate + plan where requests ask for EXPLAIN, and the HTTP
	// codec. The denominator is the same sequence through the workload's
	// serving surface, untraced. What the sum misses is repro's own glue
	// (repro.materialize_us, a residual nothing here can time directly)
	// and, over HTTP, the transport; what it double-counts shows above 1.
	layered := sum("queryengine.do_noop", false) + sum(solver, false) + sum("httpapi.codec", false)
	if w.explain {
		layered += sum("grid.estimate", false) + sum("plan.choose", false)
	}
	vals["trace.coverage"] = ratio(layered, mean(served)*n)
	vals["trace.overhead"] = ratio(mean(tracedReq), mean(untracedReq))
	return vals, rec, nil
}

// tracedIngest applies the head of the workload's update stream to ds, one
// span per Insert/Delete/Reweight and per Compact (their request ids are
// negative, apart from the queries'), and reads the WAL size before each
// compaction truncates it.
func tracedIngest(w *workload, e *env, ds *dataset.Dataset, storeDir string, rec *recorder, vals map[string]float64) error {
	updates := e.updates[:min(len(e.updates), tracedUpdates)]
	var walBytes int64
	var err error
	compact := func(req int) {
		walBytes += storeFileBytes(storeDir, "wal-*.log")
		rec.timed("grid.compact", -1, req, false, func() { err = ds.Compact() })
	}
	for i, u := range updates {
		req := -(i + 1)
		rec.timed("grid.update", -1, req, false, func() {
			switch u.kind {
			case 'i':
				_, err = ds.Insert(geo.Point{X: u.obj.X, Y: u.obj.Y}, u.obj.Text)
			case 'r':
				err = ds.Reweight(grid.ObjectID(u.id), u.factor)
			default:
				err = ds.Delete(grid.ObjectID(u.id))
			}
		})
		if err == nil && w.compactDue(i) {
			compact(req)
		}
		if err != nil {
			return fmt.Errorf("traced update %d: %w", i, err)
		}
	}
	if compact(-len(updates) - 1); err != nil {
		return fmt.Errorf("traced final compaction: %w", err)
	}
	vals["grid.update_us"] = median(rec.perRequest("grid.update", false))
	compacts := rec.perRequest("grid.compact", false)
	for i := range compacts {
		compacts[i] /= 1000
	}
	vals["grid.compact_ms"] = median(compacts)
	vals["grid.wal_bytes_per_update"] = ratio(float64(walBytes), float64(len(updates)))
	return nil
}

// probeQueueWait replays the head of the open-loop schedule against a bare
// queryengine.Server over ds and returns the p95 of Task.Wait in µs: the
// time requests spent admitted but not yet picked up by a worker.
func probeQueueWait(w *workload, e *env, ds *dataset.Dataset, dqs []dataset.Query) (float64, error) {
	ctx := context.Background()
	opts := queryengine.Options{Method: engineMethod[w.method]}
	srv := queryengine.NewServer(ds, queryengine.ServerOptions{
		Workers: orNproc(w.workers), Options: opts, MaxQueueAge: httpTimeoutMs * time.Millisecond,
	})
	defer srv.Close()
	due := e.due
	for i, d := range due {
		if d > waitProbe {
			due = due[:i]
			break
		}
	}
	var mu sync.Mutex
	var waits []time.Duration
	var firstErr error
	extraPs(1, func() {
		openLoop(due, openLoopClients(), func(i int, _ time.Time) {
			dq := dqs[e.seq[i]]
			t := queryengine.Task{Ctx: ctx, Query: dq}
			t.Visit = func(qi *dataset.QueryInstance) error {
				_, err := queryengine.Solve(ctx, qi, dq.Delta, opts)
				return err
			}
			err := srv.Do(&t)
			mu.Lock()
			waits = append(waits, t.Wait)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		})
	})
	slices.Sort(waits)
	return us(percentile(waits, 0.95)), firstErr
}
