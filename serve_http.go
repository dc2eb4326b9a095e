package repro

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/httpapi"
)

// HTTPOptions configures a Server's HTTP front end (HTTPHandler).
type HTTPOptions struct {
	// Timeout bounds every /query request end to end — queueing and solve
	// — as a context deadline, answering 504 when it fires. A client may
	// tighten it per request with the timeout_ms body field but never
	// extend it. Zero leaves requests bounded only by the client
	// connection.
	Timeout time.Duration
}

// HTTPHandler exposes the server over HTTP as JSON:
//
//	POST /query  {"keywords": [...], "delta": 5000,
//	              "region": {"min_x":0,"min_y":0,"max_x":5000,"max_y":5000},
//	              "method": "tgen", "k": 1, "timeout_ms": 250}
//	GET  /stats  serving counters and latency percentiles
//
// Client disconnects cancel the solve mid-flight through the request
// context, a missed deadline answers 504, and a request shed by the
// server's queue-age policy answers 503 with Retry-After. The handler is
// stateless: serve it with net/http (cmd/lcmsr -http does) and
// Close the Server on shutdown.
func (s *Server) HTTPHandler(opts HTTPOptions) http.Handler {
	return httpapi.NewHandler(httpBackend{s}, httpapi.Options{Timeout: opts.Timeout})
}

// maxHTTPTopK bounds the k an HTTP client may request: every rank costs
// one full solver run, so k is a work multiplier, not just a result
// count.
const maxHTTPTopK = 32

// httpBackend adapts a Server to the httpapi wire surface.
type httpBackend struct {
	s *Server
}

// Query implements httpapi.Backend.
func (b httpBackend) Query(ctx context.Context, req httpapi.QueryRequest) (httpapi.QueryResponse, error) {
	// Validate here so client mistakes answer 400; errors escaping the
	// engine itself (cancellation, overload, solver failure) pass through
	// for status mapping.
	if len(req.Keywords) == 0 {
		return httpapi.QueryResponse{}, fmt.Errorf("%w: keywords must be non-empty", httpapi.ErrBadRequest)
	}
	if req.Delta <= 0 {
		return httpapi.QueryResponse{}, fmt.Errorf("%w: delta must be positive, got %v", httpapi.ErrBadRequest, req.Delta)
	}
	// Cap k: each rank is one full solver run, so an unbounded k would
	// let one cheap request occupy a worker for NumNodes solves.
	if req.K < 0 || req.K > maxHTTPTopK {
		return httpapi.QueryResponse{}, fmt.Errorf("%w: k must be in [0, %d], got %d", httpapi.ErrBadRequest, maxHTTPTopK, req.K)
	}
	// Resolve the effective options here and answer with them exactly,
	// bypassing Do's zero-Search convention: a client naming the method
	// that happens to be the zero value (TGEN) must still override a
	// differently configured server.
	search := b.s.search
	if req.Method != "" {
		m, err := ParseMethod(req.Method)
		if err != nil {
			return httpapi.QueryResponse{}, fmt.Errorf("%w: %v", httpapi.ErrBadRequest, err)
		}
		search.Method = m
	}
	resp := b.s.db.answer(ctx, b.s, Request{
		Query: Query{
			Keywords: req.Keywords,
			Delta:    req.Delta,
			Region: Rect{
				MinX: req.Region.MinX, MinY: req.Region.MinY,
				MaxX: req.Region.MaxX, MaxY: req.Region.MaxY,
			},
		},
		K:       req.K,
		Explain: req.Explain,
	}, search)
	if resp.Err != nil {
		return httpapi.QueryResponse{}, resp.Err
	}
	out := httpapi.QueryResponse{Matched: len(resp.Results) > 0}
	for _, r := range resp.Results {
		out.Regions = append(out.Regions, toWireRegion(r))
	}
	out.Plan = toWirePlan(resp.Plan)
	return out, nil
}

// toWirePlan converts a public Plan into its wire form (nil for nil).
func toWirePlan(p *Plan) *httpapi.Plan {
	if p == nil {
		return nil
	}
	out := &httpapi.Plan{
		Method:             p.Method.String(),
		Auto:               p.Auto,
		Degraded:           p.Degraded,
		Reason:             p.Reason,
		BudgetMs:           httpapi.MillisOf(p.Budget),
		EstimateMs:         httpapi.MillisOf(p.EstimatedCost),
		ActualMs:           httpapi.MillisOf(p.ActualCost),
		EstGreedyMs:        httpapi.MillisOf(p.EstGreedy),
		EstTGENMs:          httpapi.MillisOf(p.EstTGEN),
		EstAPPMs:           httpapi.MillisOf(p.EstAPP),
		Nodes:              p.Nodes,
		CellsInRect:        p.CellsInRect,
		CellsScanned:       p.CellsScanned,
		CellsSkipped:       p.CellsSkipped(),
		CellsSkippedEmpty:  p.CellsSkippedEmpty,
		CellsSkippedNoTerm: p.CellsSkippedNoTerm,
		CellsSkippedCache:  p.CellsSkippedCache,
		PostingLists:       p.PostingLists,
		Postings:           p.Postings,
		PostingsFiltered:   p.PostingsFiltered,
		Candidates:         p.Candidates,
	}
	if p.Cluster != nil {
		out.Cluster = &httpapi.ClusterPlan{
			GroupsContacted:   p.Cluster.GroupsContacted,
			GroupsSkippedRect: p.Cluster.GroupsSkippedRect,
			GroupsSkippedTerm: p.Cluster.GroupsSkippedTerm,
		}
	}
	return out
}

// Stats implements httpapi.Backend.
func (b httpBackend) Stats() httpapi.Stats {
	st := b.s.Stats()
	out := httpapi.Stats{
		Served:  st.Served,
		Matched: st.Matched,
		Errors:  st.Errors,
		Shed:    st.Shed,
		Panics:  st.Panics,
		Window:  st.Window,
		P50Ms:   httpapi.MillisOf(st.P50),
		P95Ms:   httpapi.MillisOf(st.P95),
		P99Ms:   httpapi.MillisOf(st.P99),
		MaxMs:   httpapi.MillisOf(st.Max),
	}
	ss, _ := b.s.db.StoreStats()
	out.Tombstones = ss.Tombstones
	out.ScoreCache = ss.ScoreCache
	return out
}

// toWireRegion converts a public Result into its wire form.
func toWireRegion(r *Result) httpapi.Region {
	out := httpapi.Region{
		Score:  r.Score,
		Length: r.Length,
		Nodes:  r.Nodes,
	}
	for _, e := range r.Edges {
		out.Edges = append(out.Edges, httpapi.Edge{U: e.U, V: e.V, Length: e.Length})
	}
	for _, o := range r.Objects {
		out.Objects = append(out.Objects, httpapi.Object{ID: o.ID, X: o.X, Y: o.Y, Score: o.Score})
	}
	return out
}
