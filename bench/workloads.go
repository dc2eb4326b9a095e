package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

// kind is the shape of a workload's traffic and the public surface it
// enters the system through.
type kind int

const (
	kindServe   kind = iota // closed loop → Server.Do
	kindHTTP                // open loop → POST /query on Server.HTTPHandler
	kindIngest              // paced writer (Insert/Delete/Reweight) beside a closed-loop reader → Server.Do
	kindCluster             // closed loop → Cluster.Do over two node listeners
)

// workload is one named traffic mix. Every size is fixed here; the seed
// only decides which dataset, queries, arrivals and updates are drawn.
type workload struct {
	name string
	why  string // one line, copied into BENCHMARK.json
	kind kind

	scale      float64 // NY-like dataset scale (1.0 ≈ 3.6 k nodes, 6.8 k objects)
	disk       bool    // 4-shard on-disk store, CachePages 16 per shard, fsync on (NoSync=false)
	scoreCache int     // hot-query score cache entries, 0 = off

	nQueries int     // distinct queries generated (GenQueries)
	keywords int     // keywords per query
	area     float64 // Λ area, m²
	delta    float64 // ∆, m
	method   repro.Method
	explain  bool // requests ask for the EXPLAIN plan, which puts estimate + plan on the live path

	clients int // concurrent clients/connections, 0 = nproc
	workers int // serving workers, 0 = nproc

	hot   int     // kindHTTP: popularity P(rank k) ∝ (zipfV+k)^-zipf over the first `hot` queries
	zipf  float64 //
	zipfV float64 //
	rate  float64 // kindHTTP: open-loop arrivals per second, evenly spaced, frozen (see README "Open loop")

	updateRate   float64 // kindIngest: updates per second on a fixed schedule
	compactEvery int     // kindIngest: the writer calls Compact after this many updates

	refStride int // every refStride-th query is also answered by a one-shot Database.Do
	traced    int // queries replayed by the traced pass
}

const (
	shards     = 4
	cachePages = 16
	solveArea  = 16e6  // 16 km²: ~290 nodes at scale 2, a city-viewport-sized instance
	solveDelta = 4000  //
	wideArea   = 100e6 // 100 km²: ~7 k nodes at scale 8, search-dominated
	wideDelta  = 10000 //
	warmup     = 8     // requests replayed inside every set-up, so lazy first-request work counts as set-up
)

var workloads = []*workload{
	{
		name: "solve_tgen", kind: kindServe,
		why:   "explicit TGEN on ~290-node viewports, 1 client: core is >95% of the request, so store and wire changes must show nothing here",
		scale: 2, nQueries: 384, keywords: 3, area: solveArea, delta: solveDelta,
		method: repro.MethodTGEN, clients: 1, workers: 1, refStride: 8, traced: 32,
	},
	{
		name: "solve_app", kind: kindServe,
		why:   "same data and queries, explicit APP: runs through kmst/pcst, which TGEN never touches, so it separates APP-stack changes from TGEN ones",
		scale: 2, nQueries: 384, keywords: 3, area: solveArea, delta: solveDelta,
		method: repro.MethodAPP, clients: 1, workers: 1, refStride: 8, traced: 32,
	},
	{
		name: "search_cold_disk", kind: kindServe,
		why:   "Greedy over a 4-shard disk store whose page cache (16 pages/shard) is smaller than the working set, nproc clients: grid+btree do the work",
		scale: 8, disk: true, nQueries: 256, keywords: 5, area: wideArea, delta: wideDelta,
		method: repro.MethodGreedy, refStride: 1, traced: 128,
	},
	{
		name: "search_hot_http", kind: kindHTTP,
		why:   "open-loop JSON POST /query at 300/s, Zipf-skewed over 64 hot queries with a 16384-entry score cache and EXPLAIN on: codec, admission, plan and cache replay show",
		scale: 8, scoreCache: 16384, nQueries: 256, keywords: 5, area: wideArea, delta: wideDelta,
		method: repro.MethodGreedy, explain: true, hot: 64, zipf: 1.2, zipfV: 8, rate: 300,
		refStride: 1, traced: 128,
	},
	{
		name: "ingest_serve", kind: kindIngest,
		why:   "500 durable updates/s (fsync on) with a compaction every 192 beside a closed-loop Greedy reader: WAL, memtable and compaction stalls show on both sides",
		scale: 2, disk: true, nQueries: 192, keywords: 3, area: solveArea, delta: solveDelta,
		method: repro.MethodGreedy, clients: 1, workers: 1, updateRate: 500, compactEvery: 192,
		refStride: 1, traced: 128,
	},
	{
		name: "cluster_scatter", kind: kindCluster,
		why:   "Greedy through a coordinator scattering to two half-grid node listeners on loopback TCP, nproc clients: scatter, JSON frames and merge are most of the request",
		scale: 8, nQueries: 256, keywords: 5, area: wideArea, delta: wideDelta,
		method: repro.MethodGreedy, refStride: 1, traced: 128,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func nproc() int { return runtime.NumCPU() }

func orNproc(n int) int {
	if n > 0 {
		return n
	}
	return nproc()
}

// The one -seed argument fans out into independent streams, so changing
// the number of queries drawn never shifts the arrivals or the updates.
func querySeed(seed int64) int64  { return seed*7919 + 1 }
func loadSeed(seed int64) int64   { return seed*7919 + 2 }
func updateSeed(seed int64) int64 { return seed*7919 + 3 }

// update is one pre-drawn live mutation. Insert ids are predictable (ids
// are dense and never reused), so the whole stream is fixed before the
// first update is applied.
type update struct {
	kind   byte // 'i', 'd' or 'r'
	id     int
	factor float64
	obj    repro.ObjectSpec
}

// genUpdates draws n updates — 50 % insert, 25 % reweight, 25 % delete —
// over a database that starts with n0 objects. Inserted texts reuse the
// query keywords so that the updates change the answers being served.
func genUpdates(rng *rand.Rand, n, n0 int, bounds repro.Rect, terms []string) []update {
	live := make([]int, n0)
	for i := range live {
		live[i] = i
	}
	next := n0
	out := make([]update, n)
	for i := range out {
		switch r := rng.Float64(); {
		case r < 0.5 || len(live) == 0:
			text := terms[rng.Intn(len(terms))]
			for k := rng.Intn(4); k > 0; k-- {
				text += " " + terms[rng.Intn(len(terms))]
			}
			out[i] = update{kind: 'i', id: next, obj: repro.ObjectSpec{
				X:    bounds.MinX + rng.Float64()*(bounds.MaxX-bounds.MinX),
				Y:    bounds.MinY + rng.Float64()*(bounds.MaxY-bounds.MinY),
				Text: text,
			}}
			live = append(live, next)
			next++
		case r < 0.75:
			out[i] = update{kind: 'r', id: live[rng.Intn(len(live))], factor: 0.5 + 1.5*rng.Float64()}
		default:
			j := rng.Intn(len(live))
			out[i] = update{kind: 'd', id: live[j]}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	return out
}

func applyUpdate(db *repro.Database, u update) error {
	switch u.kind {
	case 'i':
		id, err := db.Insert(u.obj)
		if err == nil && id != u.id {
			err = fmt.Errorf("insert returned id %d, the stream expected %d", id, u.id)
		}
		return err
	case 'r':
		return db.Reweight(u.id, u.factor)
	default:
		return db.Delete(u.id)
	}
}

// compactDue reports whether the writer compacts after update i.
func (w *workload) compactDue(i int) bool { return (i+1)%w.compactEvery == 0 }

// env is one set-up system under test: the databases, the serving surface
// the workload enters through, and the generated inputs.
type env struct {
	w       *workload
	db      *repro.Database // what the serving surface answers from
	refDB   *repro.Database // a single-process database holding the same data, for one-shot reference answers
	srv     *repro.Server   // kindServe, kindHTTP, kindIngest
	cluster *repro.Cluster  // kindCluster
	nodes   []*repro.ClusterNode
	httpSrv *http.Server
	httpErr chan error
	client  *http.Client
	url     string
	bodies  [][]byte // kindHTTP: pre-encoded request per query
	dir     string   // on-disk store, removed on close

	queries []repro.Query
	seq     []int           // positions replayed by the measured phase, indexes into queries
	due     []time.Duration // arrival schedule: of seq (kindHTTP), of updates (kindIngest)
	updates []update        // kindIngest
	ref     []*repro.Result // quiescent answer per query, through the serving surface

	search repro.SearchOptions

	mu       sync.Mutex
	failed   int
	firstErr error
	replayed int // queries answered by reference replays, which count as attempted
}

// fail records one failed operation.
func (e *env) fail(err error) {
	e.mu.Lock()
	e.failed++
	if e.firstErr == nil {
		e.firstErr = err
	}
	e.mu.Unlock()
}

// wireQuery is the POST /query body.
type wireQuery struct {
	Keywords []string `json:"keywords"`
	Delta    float64  `json:"delta"`
	Region   struct {
		MinX float64 `json:"min_x"`
		MinY float64 `json:"min_y"`
		MaxX float64 `json:"max_x"`
		MaxY float64 `json:"max_y"`
	} `json:"region"`
	Method    string `json:"method"`
	TimeoutMs int    `json:"timeout_ms"`
	Explain   bool   `json:"explain"`
}

// wireAnswer decodes the POST /query response; a region's fields match
// repro.Result's up to letter case, which encoding/json ignores.
type wireAnswer struct {
	Regions []*repro.Result `json:"regions"`
}

// httpTimeoutMs is the deadline every HTTP request carries and the queue
// age at which the server sheds. Greedy answers in a few ms; the deadline
// is there to be carried, decoded and armed, and a miss counts as a failure.
const httpTimeoutMs = 1000

// setup builds the workload's system from seed: dataset and index (and
// on-disk store), queries, arrival and update schedules, server or nodes,
// and a short warm-up through the serving surface.
func setup(w *workload, seed int64, seconds float64, outDir string) (e *env, err error) {
	e = &env{w: w, search: repro.SearchOptions{Method: w.method}}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	sc := repro.StoreConfig{}
	if w.disk {
		if e.dir, err = freshStoreDir(outDir, "store-"+w.name+"-"); err != nil {
			return nil, err
		}
		sc = repro.StoreConfig{Path: e.dir, Shards: shards, CachePages: cachePages, NoSync: false}
	}
	if e.db, err = repro.NYLikeWithStore(seed, w.scale, sc); err != nil {
		return nil, err
	}
	e.refDB = e.db
	if w.scoreCache > 0 {
		e.db.SetScoreCache(w.scoreCache)
	}
	if e.queries, err = e.db.GenQueries(rand.New(rand.NewSource(querySeed(seed))), w.nQueries, w.keywords, w.area, w.delta); err != nil {
		return nil, err
	}
	e.seq = make([]int, len(e.queries))
	for i := range e.seq {
		e.seq[i] = i
	}
	dur := time.Duration(seconds * float64(time.Second))
	serve := repro.ServeOptions{Workers: orNproc(w.workers), Search: e.search}

	switch w.kind {
	case kindServe, kindIngest:
		if e.srv, err = e.db.Serve(serve); err != nil {
			return nil, err
		}
		if w.kind == kindIngest {
			var terms []string
			seen := map[string]bool{}
			for _, q := range e.queries {
				for _, k := range q.Keywords {
					if !seen[k] {
						seen[k] = true
						terms = append(terms, k)
					}
				}
			}
			e.due = uniformSchedule(w.updateRate, dur)
			e.updates = genUpdates(rand.New(rand.NewSource(updateSeed(seed))), len(e.due), e.db.NumObjects(), e.db.Bounds(), terms)
		}
	case kindHTTP:
		serve.MaxQueueAge = httpTimeoutMs * time.Millisecond
		if e.srv, err = e.db.Serve(serve); err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		e.httpSrv = &http.Server{Handler: e.srv.HTTPHandler(repro.HTTPOptions{})}
		e.httpErr = make(chan error, 1)
		go func() { e.httpErr <- e.httpSrv.Serve(ln) }()
		e.url = "http://" + ln.Addr().String() + "/query"
		conns := openLoopClients()
		e.client = &http.Client{Transport: &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}}
		for _, q := range e.queries {
			wq := wireQuery{Keywords: q.Keywords, Delta: q.Delta, Method: w.method.String(), TimeoutMs: httpTimeoutMs, Explain: w.explain}
			wq.Region.MinX, wq.Region.MinY, wq.Region.MaxX, wq.Region.MaxY = q.Region.MinX, q.Region.MinY, q.Region.MaxX, q.Region.MaxY
			b, err := json.Marshal(wq)
			if err != nil {
				return nil, err
			}
			e.bodies = append(e.bodies, b)
		}
		rng := rand.New(rand.NewSource(loadSeed(seed)))
		e.due = uniformSchedule(w.rate, dur)
		e.seq = zipfSequence(rng, w.zipf, w.zipfV, w.hot, max(len(e.due), warmup))
	case kindCluster:
		// The node database serves both halves of the grid; the
		// coordinator owns a second copy for its road network and routing.
		e.refDB = e.db
		if e.db, err = repro.NYLike(seed, w.scale); err != nil {
			return nil, err
		}
		cells := uint32(e.refDB.NumCells())
		var addrs []string
		for _, rg := range [][2]uint32{{0, cells / 2}, {cells / 2, cells}} {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			cn, err := e.refDB.ServeClusterNode(ln, rg[0], rg[1])
			if err != nil {
				ln.Close()
				return nil, err
			}
			e.nodes = append(e.nodes, cn)
			addrs = append(addrs, cn.Addr().String())
		}
		if e.cluster, err = e.db.OpenCluster(repro.ClusterOptions{Nodes: addrs, Serve: serve}); err != nil {
			return nil, err
		}
	}
	for i := 0; i < warmup && i < len(e.seq); i++ {
		if _, err := e.do(e.seq[i]); err != nil {
			return nil, fmt.Errorf("warm-up query %d: %w", e.seq[i], err)
		}
	}
	return e, nil
}

// freshStoreDir returns a unique path under outDir for an on-disk store.
// MkdirTemp reserves the name; the store insists on creating its directory
// itself, so the reservation is removed again.
func freshStoreDir(outDir, prefix string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(outDir, prefix)
	if err != nil {
		return "", err
	}
	return dir, os.Remove(dir)
}

// openLoopClients is the sender pool of the open-loop HTTP workload: more
// connections than workers, so a burst queues inside the server (where
// queryengine's admission sees it) and not in the generator.
func openLoopClients() int { return 4 * nproc() }

// close tears the system down and waits for everything it started.
func (e *env) close() {
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	if e.httpSrv != nil {
		e.httpSrv.Close()
		<-e.httpErr
	}
	if e.cluster != nil {
		e.cluster.Close()
	}
	for _, n := range e.nodes {
		n.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.refDB != nil && e.refDB != e.db {
		e.refDB.Close()
	}
	if e.db != nil {
		e.db.Close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// do answers query qi through the workload's serving surface and returns
// its best region (nil: nothing matched).
func (e *env) do(qi int) (*repro.Result, error) {
	ctx := context.Background()
	req := repro.Request{Query: e.queries[qi], Explain: e.w.explain}
	switch e.w.kind {
	case kindCluster:
		resp := e.cluster.Do(ctx, req)
		return resp.Best(), resp.Err
	case kindHTTP:
		resp, err := e.client.Post(e.url, "application/json", bytes.NewReader(e.bodies[qi]))
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		}
		var a wireAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			return nil, err
		}
		if len(a.Regions) == 0 {
			return nil, nil
		}
		return a.Regions[0], nil
	default:
		resp := e.srv.Do(ctx, req)
		return resp.Best(), resp.Err
	}
}

// verify checks one measured answer and reports whether it passed;
// quiescent answers must also equal the reference bit for bit.
func (e *env) verify(qi int, r *repro.Result, err error, quiescent bool) bool {
	if err == nil {
		err = checkInvariants(e.queries[qi], r)
	}
	if err == nil && quiescent {
		if err = checkScoreSum(r); err == nil && !sameResult(r, e.ref[qi]) {
			err = fmt.Errorf("answer differs from the quiescent reference")
		}
	}
	if err != nil {
		e.fail(fmt.Errorf("query %d: %w", qi, err))
	}
	return err == nil
}

// reference replays the first n distinct queries once on the quiescent
// system through the serving surface, keeps the answers, and compares them
// with the one-shot Database.Do of a single-process database (every
// refStride-th query) and, for HTTP, with Server.Do. It returns the mean
// best-region weight over those queries, an empty answer weighing 0.
func (e *env) reference(n int) float64 {
	ctx := context.Background()
	e.ref = make([]*repro.Result, len(e.queries))
	e.replayed += n
	var sum float64
	for i, q := range e.queries[:n] {
		r, err := e.do(i)
		if err == nil {
			err = checkInvariants(q, r)
		}
		if err == nil {
			err = checkScoreSum(r)
		}
		if err == nil && i%e.w.refStride == 0 {
			if one := e.refDB.Do(ctx, repro.Request{Query: q, Search: e.search}); one.Err != nil {
				err = one.Err
			} else if !sameResult(r, one.Best()) {
				err = fmt.Errorf("served answer differs from one-shot Database.Do")
			}
		}
		if err == nil && e.w.kind == kindHTTP {
			if direct := e.srv.Do(ctx, repro.Request{Query: q}); direct.Err != nil {
				err = direct.Err
			} else if !sameResult(r, direct.Best()) {
				err = fmt.Errorf("HTTP answer differs from Server.Do")
			}
		}
		if err != nil {
			e.fail(fmt.Errorf("reference query %d: %w", i, err))
			continue
		}
		e.ref[i] = r
		if r != nil {
			sum += r.Score
		}
	}
	return sum / float64(n)
}

// The quiescent replay region_weight_mean is read from has fixed inputs,
// whatever -seed and -seconds are: across seeds the weight spreads 5–9 %,
// on fixed inputs it repeats exactly on every run of a commit, and only
// that lets BENCHMARK.json bound its fall at 1e-9 — speed may never be
// bought with a lighter region.
const (
	qualitySeed    = 2014
	qualitySeconds = 4  // sizes the update stream applied before the replay: 2000 updates on ingest_serve
	qualityQueries = 64 // replayed, of the nQueries drawn
)

// qualityReplay sets the workload's system up from qualitySeed, applies
// its whole update stream unpaced (compacting where the writer would, and
// once more at the end), and replays qualityQueries queries through the
// serving surface with every answer check on. It returns the mean
// best-region weight, and how many answers failed a check and the first
// such failure; the system is torn down and let go of before it returns,
// so that heap_live_mb does not hold a second database.
func qualityReplay(w *workload, outDir string) (weight float64, failed int, firstErr, err error) {
	e, err := setup(w, qualitySeed, qualitySeconds, outDir)
	if err != nil {
		return 0, 0, nil, err
	}
	defer e.close()
	for i, u := range e.updates {
		if err := applyUpdate(e.db, u); err != nil {
			return 0, 0, nil, fmt.Errorf("update %d: %w", i, err)
		}
		if w.compactDue(i) || i == len(e.updates)-1 {
			if err := e.db.Compact(); err != nil {
				return 0, 0, nil, fmt.Errorf("compact after update %d: %w", i, err)
			}
		}
	}
	weight = e.reference(qualityQueries)
	return weight, e.failed, e.firstErr, nil
}

// measured is what the untraced measured phase observed.
type measured struct {
	lat         []time.Duration // request latencies, sorted
	answered    int             // requests whose answer passed every check
	wall        time.Duration
	updLat      []time.Duration // update latencies from due time, sorted (kindIngest)
	late        []time.Duration // open-loop dispatcher lateness, sorted
	compactions int
	mallocs     uint64           // heap allocations of the whole process during the phase
	store       repro.StoreStats // page-cache and score-cache counters as deltas over the phase
	shed        int64
}

// measure runs the workload's traffic for about dur with tracing off.
func (e *env) measure(dur time.Duration) measured {
	var m measured
	before, _ := e.refDB.StoreStats() // refDB holds the store; under a cluster e.db only coordinates
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	var wrong atomic.Int64 // requests that failed or were answered wrongly
	timed := func(qi int, quiescent bool) time.Duration {
		t0 := time.Now()
		r, err := e.do(qi)
		d := time.Since(t0)
		if !e.verify(qi, r, err, quiescent) {
			wrong.Add(1)
		}
		return d
	}
	switch e.w.kind {
	case kindHTTP:
		m.lat = make([]time.Duration, len(e.due))
		extraPs(1, func() {
			m.late, m.wall = openLoop(e.due, openLoopClients(), func(i int, dueAt time.Time) {
				qi := e.seq[i]
				r, err := e.do(qi)
				m.lat[i] = time.Since(dueAt)
				if !e.verify(qi, r, err, true) {
					wrong.Add(1)
				}
			})
		})
	case kindIngest:
		m.updLat = make([]time.Duration, len(e.updates))
		extraPs(1, func() {
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				m.late, _ = openLoop(e.due, 1, func(i int, dueAt time.Time) {
					if err := applyUpdate(e.db, e.updates[i]); err != nil {
						e.fail(fmt.Errorf("update %d: %w", i, err))
					}
					m.updLat[i] = time.Since(dueAt)
					if e.w.compactDue(i) {
						if err := e.db.Compact(); err != nil {
							e.fail(fmt.Errorf("compact after update %d: %w", i, err))
						}
						m.compactions++
					}
				})
			}()
			m.lat, m.wall = closedLoop(1, dur, e.seq, func(qi int) time.Duration { return timed(qi, false) })
			wg.Wait()
		})
	default:
		m.lat, m.wall = closedLoop(orNproc(e.w.clients), dur, e.seq, func(qi int) time.Duration { return timed(qi, true) })
	}

	m.answered = len(m.lat) - int(wrong.Load())
	runtime.ReadMemStats(&ms1)
	m.mallocs = ms1.Mallocs - ms0.Mallocs
	after, _ := e.refDB.StoreStats()
	m.store = after
	m.store.CacheHits -= before.CacheHits
	m.store.CacheMisses -= before.CacheMisses
	m.store.CacheEvictions -= before.CacheEvictions
	if after.ScoreCache != nil && before.ScoreCache != nil {
		d := *after.ScoreCache
		d.Hits -= before.ScoreCache.Hits
		d.Misses -= before.ScoreCache.Misses
		m.store.ScoreCache = &d
	}
	if e.srv != nil {
		m.shed = e.srv.Stats().Shed
	} else {
		m.shed = e.cluster.ServeStats().Shed
	}
	slices.Sort(m.lat)
	slices.Sort(m.updLat)
	slices.Sort(m.late)
	return m
}

// heapLiveMB forces a collection and returns the live heap.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// storeFileBytes sums the sizes of the files in dir matching pattern.
func storeFileBytes(dir, pattern string) int64 {
	names, _ := filepath.Glob(filepath.Join(dir, pattern))
	var n int64
	for _, name := range names {
		if fi, err := os.Stat(name); err == nil {
			n += fi.Size()
		}
	}
	return n
}
