// Command lcmsr answers LCMSR queries interactively against a built-in
// synthetic dataset, and serves them over HTTP or as a cluster.
//
// Usage:
//
//	lcmsr -dataset ny -keywords "t0001,t0002" -delta 10000 -area 100 -method tgen
//	lcmsr -dataset usanw -k 3 -explain       # generate a query, top-3 regions, EXPLAIN plan
//	lcmsr -http :8080 -timeout 500ms -cache 4096  # HTTP mode: POST /query, GET /stats
//	lcmsr -shards 4 -postings /data/store -updates 500   # mutate, compact, persist
//	lcmsr -open -postings /data/store        # reopen the same store
//	lcmsr -scrub /data/store                 # verify a posting store offline
//	lcmsr -node -cells 0:800 -listen :7070   # cluster node: serve cells [0, 800)
//	lcmsr -coord -nodes :7070,:7071 -http :8080          # coordinator over the nodes
//
// -area is the Q.Λ area in km²; -delta the length budget in metres. With
// an empty -keywords the query's keywords and region are drawn by the
// workload generator. -cpuprofile and -memprofile write pprof profiles of
// the query phase. To drive load, use the bench/ harness or Server.Do.
//
// With -http ADDR the command exposes the streaming query server over HTTP
// as JSON (POST /query, GET /stats) until SIGINT/SIGTERM, honoring client
// disconnects and per-request timeouts end to end. -timeout bounds each
// request with a context deadline and -max-queue-age sheds requests that
// out-wait the queue. -cache M enables the hot-query score cache (M cached
// (cell, query) entries, invalidated wholesale by every live update); its
// counters are printed at exit and exposed on /stats.
//
// With -shards N the posting lists live on disk instead of in memory: a
// directory of N independent B+-tree shards (cells striped cell mod N;
// each shard has its own page cache and lock, so concurrent cold reads
// scale with cores). -postings picks the directory; without it a
// temporary store is built and removed on exit. Cache counters are
// printed at exit.
//
// With -updates N the command first applies N random live updates — a mix
// of inserts, deletes and reweights through the mutable index (each one
// WAL-durable before it returns on a disk store) — and compacts, so the
// query phase measures a mutated store on its memtable-empty fast path.
//
// With -open the store at -postings is reopened instead of rebuilt: the
// index comes from the committed metadata checkpoint plus WAL replay, so
// updates persisted by an earlier run — compacted or not — are served
// again. The road network and corpus are regenerated from -seed/-scale,
// which must therefore match the run that created the store (a mismatch
// is refused with a typed error, not served wrong).
//
// With -scrub PATH the command verifies a previously persisted posting
// store offline — every page checksum, the tree shape, and the free list
// of each shard — prints a per-shard report, and exits 1 if any shard is
// corrupt. Run it after a crash (or on a restore) before trusting the
// store.
//
// With -node the command serves this process's cells of the grid over a
// narrow TCP protocol for a coordinator: -cells A:B assigns the half-open
// cell range (recorded in a disk store's MANIFEST so a reopen can omit
// it), -listen picks the address. With -coord -nodes a,b,... -http ADDR
// the command fronts those nodes with the JSON API instead of searching
// locally: the node cell ranges must tile the grid (replicas share a
// range), answers are bit-identical to single-process serving, and
// -quota-rate/-quota-burst enable per-client admission control.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro"
)

func main() {
	var (
		dsName     = flag.String("dataset", "ny", "ny or usanw")
		load       = flag.String("load", "", "load a dataset file written by datagen instead")
		scale      = flag.Float64("scale", 0.5, "dataset size multiplier")
		seed       = flag.Int64("seed", 1, "random seed")
		keywords   = flag.String("keywords", "", "comma-separated query keywords")
		delta      = flag.Float64("delta", 10000, "length constraint Q.∆ in metres")
		areaKm2    = flag.Float64("area", 100, "query region Q.Λ area in km²")
		method     = flag.String("method", "tgen", "tgen, app, greedy, or auto (cost-based per-query choice)")
		k          = flag.Int("k", 1, "number of regions (top-k)")
		explain    = flag.Bool("explain", false, "single-query mode: print the EXPLAIN plan (method choice, estimated vs actual cost, cells scanned vs skipped)")
		shards     = flag.Int("shards", 0, "disk-backed posting store: this many cell-striped B+-tree shards (cell mod N); 0 keeps postings in memory")
		postings   = flag.String("postings", "", "posting store directory; default: a temporary directory removed on exit")
		open       = flag.Bool("open", false, "reopen the persisted posting store at -postings (committed meta + WAL replay) instead of rebuilding it; -seed/-scale must match the run that created it")
		updates    = flag.Int("updates", 0, "apply this many random live updates (insert/delete/reweight mix) before the query phase, then compact")
		cacheSize  = flag.Int("cache", 0, "enable the hot-query score cache with this many (cell, query) entries (0 = off)")
		parallel   = flag.Int("parallel", 0, "server workers (-http, -coord)")
		httpAddr   = flag.String("http", "", "listen on this address (e.g. :8080) and answer POST /query, GET /stats as JSON")
		timeout    = flag.Duration("timeout", 0, "-http/-coord: per-request timeout (0 = unbounded)")
		queueAge   = flag.Duration("max-queue-age", 0, "-http/-coord: shed requests queued longer than this (0 = no shedding)")
		node       = flag.Bool("node", false, "cluster node mode: serve this database's cells over TCP for a coordinator (see -cells, -listen)")
		cells      = flag.String("cells", "", "node mode: owned cell range as A:B (half-open); empty adopts the range recorded in the store's MANIFEST")
		listen     = flag.String("listen", ":7070", "node mode: TCP listen address")
		coord      = flag.Bool("coord", false, "coordinator mode: serve -http by scattering queries to the cluster nodes at -nodes")
		nodesFlag  = flag.String("nodes", "", "coordinator mode: comma-separated node addresses (host:port); their cell ranges must tile the grid")
		quotaRate  = flag.Float64("quota-rate", 0, "coordinator mode: per-client sustained request rate (token bucket); 0 disables quotas")
		quotaBurst = flag.Float64("quota-burst", 0, "coordinator mode: per-client burst capacity; 0 = max(1, quota-rate)")
		scrub      = flag.String("scrub", "", "verify the posting store at this path (every page checksum, tree shape, free list) and exit; non-zero exit on corruption")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the query phase to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile after the query phase to this file")
	)
	flag.Parse()

	m, err := repro.ParseMethod(*method)
	if err != nil {
		usage(err.Error())
	}
	opts := repro.SearchOptions{Method: m}
	if *coord && (*nodesFlag == "" || *httpAddr == "") {
		usage("-coord needs -nodes host:port,... and -http ADDR")
	}
	if *scrub != "" {
		runScrub(*scrub)
		return
	}

	var db *repro.Database
	if *load != "" {
		if *shards > 0 || *postings != "" {
			usage("-shards/-postings apply to the built-in datasets, not -load")
		}
		db, err = repro.Load(*load)
	} else {
		if *open && *postings == "" {
			usage("-open needs -postings (there is no store to reopen)")
		}
		if *postings != "" && *shards <= 0 && !*open {
			usage("-postings needs -shards >= 1 (without it the store would stay in memory)")
		}
		sc, cleanup, scErr := storeConfig(*shards, *postings, *open)
		if scErr != nil {
			fatal(scErr)
		}
		// fatal exits without unwinding defers, so register the temp-store
		// cleanup on both paths (RemoveAll is idempotent).
		defer cleanup()
		fatalCleanups = append(fatalCleanups, cleanup)
		switch strings.ToLower(*dsName) {
		case "ny":
			db, err = repro.NYLikeWithStore(*seed, *scale, sc)
		case "usanw":
			db, err = repro.USANWLikeWithStore(*seed, *scale, sc)
		default:
			usage(fmt.Sprintf("unknown dataset %q", *dsName))
		}
	}
	if err != nil {
		fatal(err)
	}
	// Close on the fatal path too (fatal exits without unwinding defers):
	// a persisted -postings store is only valid once its tree headers are
	// flushed by Close. The deferred close reports flush errors — silently
	// dropping one would leave a store that looks persisted but opens
	// stale.
	defer func() {
		if cerr := db.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "lcmsr: closing store:", cerr)
		}
	}()
	fatalCleanups = append(fatalCleanups, func() { db.Close() })
	fmt.Printf("dataset %s: %d nodes, %d edges, %d objects\n",
		*dsName, db.NumNodes(), db.NumEdges(), db.NumObjects())
	if *cacheSize > 0 {
		db.SetScoreCache(*cacheSize)
		fmt.Printf("score cache: enabled, ~%d entries\n", *cacheSize)
		defer func() {
			if st, ok := db.StoreStats(); ok && st.ScoreCache != nil {
				sc := st.ScoreCache
				fmt.Printf("score cache: %d hits, %d misses, %d evictions, %d live entries\n",
					sc.Hits, sc.Misses, sc.Evictions, sc.Entries)
			}
		}()
	}
	if st, ok := db.StoreStats(); ok && st.Shards > 0 {
		fmt.Printf("store: %d shard(s), disk-backed posting lists\n", st.Shards)
		defer func() {
			if st, ok := db.StoreStats(); ok && st.Shards > 0 {
				fmt.Printf("store cache: %d hits, %d misses, %d evictions, %d resident pages\n",
					st.CacheHits, st.CacheMisses, st.CacheEvictions, st.CachedPages)
			}
		}()
	}

	if *updates > 0 {
		if err := runUpdates(db, *updates, *seed); err != nil {
			fatal(err)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	switch {
	case *node:
		runNode(db, *cells, *listen)
	case *coord:
		runCoord(db, opts, *nodesFlag, *httpAddr, *parallel, *timeout, *queueAge, *quotaRate, *quotaBurst)
	case *httpAddr != "":
		runHTTP(db, opts, *httpAddr, *parallel, *timeout, *queueAge)
	default:
		runSingle(db, oneQuery(db, *keywords, *areaKm2, *delta, *seed), opts, *k, *explain)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC() // materialize the steady-state heap before snapshotting
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}

// runUpdates applies n random live updates — a 2:1:1 mix of reweights,
// inserts, and deletes — then compacts, so the query phase runs against a
// mutated store with an empty memtable. Inserted objects reuse keywords
// already in the corpus, so generated queries can match them.
func runUpdates(db *repro.Database, n int, seed int64) error {
	rng := rand.New(rand.NewSource(seed + 7))
	bounds := db.Bounds()
	var inserted, deleted, reweighted int
	start := time.Now()
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			p := repro.ObjectSpec{
				X:    bounds.MinX + rng.Float64()*(bounds.MaxX-bounds.MinX),
				Y:    bounds.MinY + rng.Float64()*(bounds.MaxY-bounds.MinY),
				Text: fmt.Sprintf("t%04d t%04d", 1+rng.Intn(40), 1+rng.Intn(40)),
			}
			if _, err := db.Insert(p); err != nil {
				return fmt.Errorf("live insert: %w", err)
			}
			inserted++
		case 1:
			// Hitting an already-deleted id just skips the turn.
			switch err := db.Delete(rng.Intn(db.NumObjects())); {
			case err == nil:
				deleted++
			case !errors.Is(err, repro.ErrNoSuchObject):
				return fmt.Errorf("live delete: %w", err)
			}
		default:
			switch err := db.Reweight(rng.Intn(db.NumObjects()), 0.5+rng.Float64()); {
			case err == nil:
				reweighted++
			case !errors.Is(err, repro.ErrNoSuchObject):
				return fmt.Errorf("live reweight: %w", err)
			}
		}
	}
	if err := db.Compact(); err != nil {
		return fmt.Errorf("compact after updates: %w", err)
	}
	elapsed := time.Since(start)
	fmt.Printf("updates: %d applied in %.3fs (%.0f updates/s): %d inserted, %d deleted, %d reweighted; compacted\n",
		n, elapsed.Seconds(), float64(n)/elapsed.Seconds(), inserted, deleted, reweighted)
	return nil
}

// runScrub verifies the posting store at path and exits non-zero on any
// corruption, printing the per-shard report either way.
func runScrub(path string) {
	rep, err := repro.ScrubStore(path)
	if err != nil {
		fatal(err)
	}
	fmt.Print(rep)
	if rerr := rep.Err(); rerr != nil {
		fatal(fmt.Errorf("scrub %s: store is corrupt: %w", path, rerr))
	}
	fmt.Printf("scrub %s: ok (%d shard(s))\n", path, len(rep.Shards))
}

// oneQuery builds the single query: an explicit -keywords list over a
// centred square of the given area, or one drawn by the workload generator
// when the list is empty.
func oneQuery(db *repro.Database, keywords string, areaKm2, delta float64, seed int64) repro.Query {
	if keywords == "" {
		qs, err := db.GenQueries(rand.New(rand.NewSource(seed+100)), 1, 3, areaKm2*1e6, delta)
		if err != nil {
			fatal(err)
		}
		return qs[0]
	}
	bounds := db.Bounds()
	cx := (bounds.MinX + bounds.MaxX) / 2
	cy := (bounds.MinY + bounds.MaxY) / 2
	half := 0.5 * math.Sqrt(areaKm2*1e6)
	return repro.Query{
		Keywords: strings.Split(keywords, ","),
		Delta:    delta,
		Region:   repro.Rect{MinX: cx - half, MinY: cy - half, MaxX: cx + half, MaxY: cy + half},
	}
}

// runSingle answers one query and prints its regions in full detail,
// plus the EXPLAIN plan when asked.
func runSingle(db *repro.Database, q repro.Query, opts repro.SearchOptions, k int, explain bool) {
	fmt.Printf("query: keywords=%v ∆=%.0fm Λ=%.0fkm² method=%v\n",
		q.Keywords, q.Delta, (q.Region.MaxX-q.Region.MinX)*(q.Region.MaxY-q.Region.MinY)/1e6, opts.Method)
	resp := db.Do(context.Background(), repro.Request{Query: q, Search: opts, K: k, Explain: explain})
	if resp.Err != nil {
		fatal(resp.Err)
	}
	printPlan(resp.Plan)
	if len(resp.Results) == 0 {
		fmt.Println("no region matches the keywords inside Q.Λ")
		return
	}
	for i, r := range resp.Results {
		fmt.Printf("region %d: weight=%.4f length=%.0fm nodes=%d objects=%d\n",
			i+1, r.Score, r.Length, len(r.Nodes), len(r.Objects))
		for _, o := range r.Objects {
			fmt.Printf("  object %d at (%.0f, %.0f) relevance %.4f\n", o.ID, o.X, o.Y, o.Score)
		}
	}
}

// printPlan renders an EXPLAIN plan in the human-readable form (-explain).
func printPlan(p *repro.Plan) {
	if p == nil {
		return
	}
	how := "requested by client"
	if p.Auto {
		how = "chosen by planner"
	}
	fmt.Printf("plan: method=%v (%s)\n", p.Method, how)
	fmt.Printf("  reason: %s\n", p.Reason)
	fmt.Printf("  budget=%v pressure=%.2f degraded=%v\n", p.Budget, p.Pressure, p.Degraded)
	fmt.Printf("  cost: estimated=%v actual=%v (greedy=%v tgen=%v app=%v, %d nodes)\n",
		p.EstimatedCost, p.ActualCost, p.EstGreedy, p.EstTGEN, p.EstAPP, p.Nodes)
	fmt.Printf("  cells: in-rect=%d scanned=%d skipped=%d (empty=%d no-term=%d cache-hit=%d)\n",
		p.CellsInRect, p.CellsScanned, p.CellsSkipped(),
		p.CellsSkippedEmpty, p.CellsSkippedNoTerm, p.CellsSkippedCache)
	fmt.Printf("  postings: lists=%d postings=%d rect-filtered=%d candidates=%d\n",
		p.PostingLists, p.Postings, p.PostingsFiltered, p.Candidates)
	if c := p.Cluster; c != nil {
		fmt.Printf("  cluster: groups contacted=%d skipped-rect=%d skipped-term=%d\n",
			c.GroupsContacted, c.GroupsSkippedRect, c.GroupsSkippedTerm)
	}
}

// runNode serves the database's cells as one cluster node until SIGINT
// or SIGTERM. The cell range comes from -cells A:B, or — on a reopened
// disk store — from the assignment recorded in the MANIFEST; an explicit
// -cells on a disk-backed store records the assignment for next time.
func runNode(db *repro.Database, cells, listen string) {
	var lo, hi uint32
	if cells != "" {
		if _, err := fmt.Sscanf(cells, "%d:%d", &lo, &hi); err != nil || lo >= hi {
			usage(fmt.Sprintf("-cells %q: want A:B with A < B", cells))
		}
		// Persist the assignment when the store can hold it, so a reopen
		// serves the same cells without -cells; in-memory stores just skip.
		if st, ok := db.StoreStats(); ok && st.Shards > 0 {
			if err := db.RecordCellRange(lo, hi); err != nil {
				fatal(err)
			}
			fmt.Printf("node: cell assignment [%d, %d) recorded in MANIFEST\n", lo, hi)
		}
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		fatal(err)
	}
	cn, err := db.ServeClusterNode(ln, lo, hi)
	if err != nil {
		_ = ln.Close()
		fatal(err)
	}
	alo, ahi := cn.CellRange()
	fmt.Printf("node: serving cells [%d, %d) of %d on %s\n", alo, ahi, db.NumCells(), cn.Addr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("node: %v, shutting down\n", s)
	if err := cn.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "lcmsr: node close:", err)
	}
}

// runCoord fronts the cluster at -nodes with the HTTP API until SIGINT or
// SIGTERM, then prints the cluster routing counters.
func runCoord(db *repro.Database, opts repro.SearchOptions, nodes, httpAddr string,
	workers int, timeout, queueAge time.Duration, quotaRate, quotaBurst float64) {
	var quota *repro.ClusterQuota
	if quotaRate > 0 {
		quota = &repro.ClusterQuota{RatePerSec: quotaRate, Burst: quotaBurst}
	}
	cl, err := db.OpenCluster(repro.ClusterOptions{
		Nodes: strings.Split(nodes, ","),
		Serve: repro.ServeOptions{Workers: workers, Search: opts, MaxQueueAge: queueAge},
		Quota: quota,
	})
	if err != nil {
		fatal(err)
	}
	serveHTTP("coord", httpAddr, cl.HTTPHandler(repro.HTTPOptions{Timeout: timeout}), func(addr net.Addr) {
		fmt.Printf("coord: %d node(s), serving POST /query and GET /stats on %s (method=%v timeout=%v)\n",
			len(cl.Stats().Nodes), addr, opts.Method, timeout)
	}, func() {
		st := cl.Stats()
		fmt.Printf("cluster: %d searches, %d skipped (rect), %d skipped (term), %d retries, %d no-replica, %d quota-denied over %d group(s)\n",
			st.Searches, st.SkippedRect, st.SkippedTerm, st.Retries, st.NoReplica, st.QuotaDenied, st.Groups)
		for _, ns := range st.Nodes {
			fmt.Printf("  node %s cells [%d, %d): %d sent, %d errors, p50=%v p95=%v p99=%v (%d samples)\n",
				ns.Addr, ns.CellLo, ns.CellHi, ns.Sent, ns.Errors, ns.P50, ns.P95, ns.P99, ns.Samples)
		}
		cl.Close()
	}, func() { cl.Close() })
}

// runHTTP serves the streaming query service over HTTP until SIGINT or
// SIGTERM: POST /query answers LCMSR queries as JSON, GET /stats reports
// counters and latency percentiles. The per-request -timeout becomes the
// handler's deadline bound and -max-queue-age the shedding policy.
func runHTTP(db *repro.Database, opts repro.SearchOptions, addr string, workers int, timeout, queueAge time.Duration) {
	srv, err := db.Serve(repro.ServeOptions{Workers: workers, Search: opts, MaxQueueAge: queueAge})
	if err != nil {
		fatal(err)
	}
	serveHTTP("http", addr, srv.HTTPHandler(repro.HTTPOptions{Timeout: timeout}), func(addr net.Addr) {
		fmt.Printf("http: serving POST /query and GET /stats on %s (method=%v timeout=%v max-queue-age=%v)\n",
			addr, opts.Method, timeout, queueAge)
	}, func() {
		srv.Close()
		fmt.Println("http:", srv.Stats())
	}, srv.Close)
}

// serveHTTP listens on addr and serves h until SIGINT or SIGTERM, then
// shuts the HTTP server down gracefully and runs report. started prints
// the banner once the listener is bound; stop releases the server behind
// h when the listener fails.
func serveHTTP(name, addr string, h http.Handler, started func(net.Addr), report, stop func()) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		stop()
		fatal(err)
	}
	started(ln.Addr())
	hs := &http.Server{Addr: addr, Handler: h}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		stop()
		fatal(err)
	case s := <-sig:
		fmt.Printf("%s: %v, shutting down\n", name, s)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "lcmsr: shutdown:", err)
		}
		report()
	}
}

// storeConfig translates -shards/-postings/-open into a StoreConfig,
// creating a temporary location (removed by cleanup) when none was given.
func storeConfig(shards int, path string, open bool) (repro.StoreConfig, func(), error) {
	if shards <= 0 && !open {
		return repro.StoreConfig{}, func() {}, nil
	}
	if open {
		return repro.StoreConfig{Path: path, OpenExisting: true}, func() {}, nil
	}
	cleanup := func() {}
	if path == "" {
		tmp, err := os.MkdirTemp("", "lcmsr-store-")
		if err != nil {
			return repro.StoreConfig{}, cleanup, err
		}
		cleanup = func() { os.RemoveAll(tmp) }
		path = tmp
	}
	return repro.StoreConfig{Path: path, Shards: shards}, cleanup, nil
}

// fatalCleanups run before a fatal exit (os.Exit skips defers); they
// must be idempotent, since the same function may also be deferred.
var fatalCleanups []func()

func fatal(err error) {
	for i := len(fatalCleanups) - 1; i >= 0; i-- {
		fatalCleanups[i]()
	}
	fmt.Fprintln(os.Stderr, "lcmsr:", err)
	os.Exit(1)
}

// usage reports a flag-usage error; like fatal it runs the registered
// cleanups (a store may already have been built), but exits 2.
func usage(msg string) {
	for i := len(fatalCleanups) - 1; i >= 0; i-- {
		fatalCleanups[i]()
	}
	fmt.Fprintln(os.Stderr, "lcmsr:", msg)
	os.Exit(2)
}
