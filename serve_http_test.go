package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// httpQueryBody builds the wire body for a public query.
func httpQueryBody(q Query, method string, k, timeoutMs int) []byte {
	body := map[string]any{
		"keywords": q.Keywords,
		"delta":    q.Delta,
		"region": map[string]float64{
			"min_x": q.Region.MinX, "min_y": q.Region.MinY,
			"max_x": q.Region.MaxX, "max_y": q.Region.MaxY,
		},
	}
	if method != "" {
		body["method"] = method
	}
	if k > 1 {
		body["k"] = k
	}
	if timeoutMs > 0 {
		body["timeout_ms"] = timeoutMs
	}
	b, err := json.Marshal(body)
	if err != nil {
		panic(err)
	}
	return b
}

type wireRegion struct {
	Score   float64 `json:"score"`
	Length  float64 `json:"length"`
	Nodes   []int   `json:"nodes"`
	Objects []struct {
		ID int `json:"id"`
	} `json:"objects"`
}

type wireResponse struct {
	Matched bool         `json:"matched"`
	Regions []wireRegion `json:"regions"`
	Error   string       `json:"error"`
}

func postQuery(t *testing.T, url string, body []byte) (int, wireResponse) {
	t.Helper()
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wr wireResponse
	if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, wr
}

// TestHTTPQueryMatchesRun is the end-to-end guarantee for the HTTP front
// end: POST /query over a live server answers exactly what Run answers on
// the same database, for the default method and per-request overrides.
func TestHTTPQueryMatchesRun(t *testing.T) {
	db, qs := serveWorkload(t)
	srv, err := db.Serve(ServeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.HTTPHandler(HTTPOptions{Timeout: time.Minute}))
	defer ts.Close()

	for _, method := range []Method{MethodTGEN, MethodAPP, MethodGreedy} {
		var q Query
		var want *Result
		for _, cand := range qs {
			if r := best(t, db, cand, SearchOptions{Method: method}); r != nil {
				q, want = cand, r
				break
			}
		}
		if want == nil {
			t.Fatalf("%v: no query in the workload matched", method)
		}
		status, wr := postQuery(t, ts.URL, httpQueryBody(q, method.String(), 0, 0))
		if status != http.StatusOK {
			t.Fatalf("%v: status %d (%s)", method, status, wr.Error)
		}
		if !wr.Matched || len(wr.Regions) != 1 {
			t.Fatalf("%v: response %+v", method, wr)
		}
		got := wr.Regions[0]
		if got.Score != want.Score || got.Length != want.Length ||
			len(got.Nodes) != len(want.Nodes) || len(got.Objects) != len(want.Objects) {
			t.Fatalf("%v: HTTP answer differs from Run: got %v/%v/%d nodes, want %v/%v/%d",
				method, got.Score, got.Length, len(got.Nodes), want.Score, want.Length, len(want.Nodes))
		}
		for i := range got.Nodes {
			if got.Nodes[i] != want.Nodes[i] {
				t.Fatalf("%v: node set differs at %d", method, i)
			}
		}
	}
}

// TestHTTPTopK checks the k field reaches the top-k machinery.
func TestHTTPTopK(t *testing.T) {
	db, qs := serveWorkload(t)
	srv, err := db.Serve(ServeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.HTTPHandler(HTTPOptions{}))
	defer ts.Close()

	var q Query
	var want []*Result
	for _, cand := range qs {
		resp := db.Do(context.Background(), Request{Query: cand, K: 2})
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
		if rs := resp.Results; len(rs) >= 2 {
			q, want = cand, rs
			break
		}
	}
	if want == nil {
		t.Skip("no workload query yields two disjoint regions")
	}
	status, wr := postQuery(t, ts.URL, httpQueryBody(q, "", 2, 0))
	if status != http.StatusOK {
		t.Fatalf("status %d (%s)", status, wr.Error)
	}
	if len(wr.Regions) != len(want) {
		t.Fatalf("got %d regions, want %d", len(wr.Regions), len(want))
	}
	for i := range want {
		if wr.Regions[i].Score != want[i].Score {
			t.Fatalf("region %d score %v, want %v", i, wr.Regions[i].Score, want[i].Score)
		}
	}
}

// TestHTTPValidation checks 400s for client mistakes.
func TestHTTPValidation(t *testing.T) {
	db, qs := serveWorkload(t)
	srv, err := db.Serve(ServeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.HTTPHandler(HTTPOptions{}))
	defer ts.Close()

	cases := map[string][]byte{
		"no keywords":    httpQueryBody(Query{Delta: 10, Region: qs[0].Region}, "", 0, 0),
		"bad delta":      httpQueryBody(Query{Keywords: []string{"a"}, Delta: -1}, "", 0, 0),
		"unknown method": httpQueryBody(qs[0], "dijkstra", 0, 0),
		"oversized k":    httpQueryBody(qs[0], "", 100000, 0),
		"not json":       []byte("delta=5"),
	}
	for name, body := range cases {
		status, wr := postQuery(t, ts.URL, body)
		if status != http.StatusBadRequest || wr.Error == "" {
			t.Fatalf("%s: status %d error %q, want 400 with message", name, status, wr.Error)
		}
	}
}

// TestHTTPDeadline checks the per-request timeout: a 1ms budget on the
// full-extent APP stress query (which solves for hundreds of
// milliseconds) answers 504, and the server stays healthy afterwards.
func TestHTTPDeadline(t *testing.T) {
	db, err := NYLike(3, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := db.GenQueries(rand.New(rand.NewSource(5)), 1, 3, 25e6, 5000)
	if err != nil {
		t.Fatal(err)
	}
	q := qs[0]
	q.Region = db.Bounds()
	q.Delta = 50_000

	srv, err := db.Serve(ServeOptions{Workers: 1, Search: SearchOptions{Method: MethodAPP}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.HTTPHandler(HTTPOptions{Timeout: time.Minute}))
	defer ts.Close()

	status, wr := postQuery(t, ts.URL, httpQueryBody(q, "", 0, 1))
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%+v), want 504", status, wr)
	}
	// The worker survived the cancelled solve; a fast method still answers.
	status, wr = postQuery(t, ts.URL, httpQueryBody(q, "greedy", 0, 0))
	if status != http.StatusOK {
		t.Fatalf("follow-up status %d (%s), want 200", status, wr.Error)
	}

	// Stats reflect the traffic, including the errored request.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Served int64 `json:"served"`
		Errors int64 `json:"errors"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	// The deadlined request is one error; whether it also counts as
	// served depends on where the 1ms deadline fired (mid-solve vs
	// rejected at admission or pickup on a loaded box), so only bound it.
	if st.Errors != 1 || st.Served < 1 || st.Served > 2 {
		t.Fatalf("stats served=%d errors=%d, want errors=1 and served in [1,2]", st.Served, st.Errors)
	}
}

// TestHTTPMethodOverrideOnNonDefaultServer guards the zero-value trap:
// MethodTGEN is Method's zero value, so an explicit "tgen" override must
// still win on a server configured with a different default.
func TestHTTPMethodOverrideOnNonDefaultServer(t *testing.T) {
	db, qs := serveWorkload(t)
	srv, err := db.Serve(ServeOptions{Workers: 1, Search: SearchOptions{Method: MethodAPP}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.HTTPHandler(HTTPOptions{}))
	defer ts.Close()

	var q Query
	var wantTGEN, wantAPP *Result
	for _, cand := range qs {
		rt := best(t, db, cand, SearchOptions{Method: MethodTGEN})
		ra := best(t, db, cand, SearchOptions{Method: MethodAPP})
		if rt != nil && ra != nil && rt.Score != ra.Score {
			q, wantTGEN, wantAPP = cand, rt, ra
			break
		}
	}
	if wantTGEN == nil {
		t.Skip("no workload query distinguishes TGEN from APP")
	}
	status, wr := postQuery(t, ts.URL, httpQueryBody(q, "tgen", 0, 0))
	if status != http.StatusOK {
		t.Fatalf("status %d (%s)", status, wr.Error)
	}
	if wr.Regions[0].Score != wantTGEN.Score {
		t.Fatalf("explicit tgen override returned score %v (APP default scores %v, TGEN %v)",
			wr.Regions[0].Score, wantAPP.Score, wantTGEN.Score)
	}
	// And no override still means the server default.
	status, wr = postQuery(t, ts.URL, httpQueryBody(q, "", 0, 0))
	if status != http.StatusOK || wr.Regions[0].Score != wantAPP.Score {
		t.Fatalf("default-path score %v, want APP %v", wr.Regions[0].Score, wantAPP.Score)
	}
}

// TestHTTPStatsScoreCache checks that enabling the hot-query score cache
// surfaces its counters on GET /stats — and that repeating a query over
// the HTTP path actually hits it.
func TestHTTPStatsScoreCache(t *testing.T) {
	db, qs := serveWorkload(t)
	db.SetScoreCache(256)
	srv, err := db.Serve(ServeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.HTTPHandler(HTTPOptions{Timeout: time.Minute}))
	defer ts.Close()

	body := httpQueryBody(qs[0], "", 0, 0)
	for i := 0; i < 3; i++ {
		if status, wr := postQuery(t, ts.URL, body); status != http.StatusOK {
			t.Fatalf("query %d: status %d (%s)", i, status, wr.Error)
		}
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Served     int64 `json:"served"`
		ScoreCache *struct {
			Hits    uint64 `json:"hits"`
			Misses  uint64 `json:"misses"`
			Entries int    `json:"entries"`
		} `json:"score_cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Served != 3 {
		t.Fatalf("served = %d, want 3", st.Served)
	}
	if st.ScoreCache == nil {
		t.Fatal("stats carry no score_cache fragment with the cache enabled")
	}
	if st.ScoreCache.Misses == 0 || st.ScoreCache.Entries == 0 {
		t.Fatalf("cache never filled: %+v", *st.ScoreCache)
	}
	if st.ScoreCache.Hits == 0 {
		t.Fatalf("repeated query never hit the cache: %+v", *st.ScoreCache)
	}
}

// TestHTTPExplain checks the EXPLAIN plan over the wire: an explain
// request answers a camelCase plan fragment (the documented jq surface:
// .plan.method, .plan.cellsSkipped), and a request without explain
// carries no plan key at all.
func TestHTTPExplain(t *testing.T) {
	db, qs := serveWorkload(t)
	srv, err := db.Serve(ServeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.HTTPHandler(HTTPOptions{Timeout: time.Minute}))
	defer ts.Close()

	body := map[string]any{
		"keywords": qs[0].Keywords,
		"delta":    qs[0].Delta,
		"region": map[string]float64{
			"min_x": qs[0].Region.MinX, "min_y": qs[0].Region.MinY,
			"max_x": qs[0].Region.MaxX, "max_y": qs[0].Region.MaxY,
		},
		"method":  "auto",
		"explain": true,
	}
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var wr struct {
		Plan *struct {
			Method       string  `json:"method"`
			Auto         bool    `json:"auto"`
			Reason       string  `json:"reason"`
			ActualMs     float64 `json:"actualMs"`
			CellsInRect  int64   `json:"cellsInRect"`
			CellsScanned int64   `json:"cellsScanned"`
			CellsSkipped int64   `json:"cellsSkipped"`
		} `json:"plan"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
		t.Fatal(err)
	}
	if wr.Plan == nil {
		t.Fatal("explain request answered no plan")
	}
	if wr.Plan.Method == "" || !wr.Plan.Auto || wr.Plan.Reason == "" {
		t.Fatalf("plan incomplete: %+v", *wr.Plan)
	}
	if wr.Plan.CellsInRect != wr.Plan.CellsScanned+wr.Plan.CellsSkipped {
		t.Fatalf("cell accounting broken on the wire: %+v", *wr.Plan)
	}

	// Without explain, the plan key is absent entirely.
	delete(body, "explain")
	delete(body, "method")
	b, err = json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp2.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["plan"]; ok {
		t.Fatal("unexplained request leaked a plan fragment")
	}
}
