// Package httpapi is the JSON-over-HTTP front end of the streaming query
// server: POST /query answers LCMSR queries, GET /stats reports the
// server's counters and latency percentiles.
//
// The package owns the wire shapes and the HTTP mechanics — request
// decoding, per-request deadlines, client-disconnect propagation, and
// error-to-status mapping — while the Backend interface keeps it
// decoupled from the public repro package (which wires a Server into a
// Backend in serve_http.go).
//
// # Deadlines and disconnects
//
// Every query runs under the incoming request's context, so a client
// that disconnects cancels the solve mid-flight (net/http cancels
// r.Context()). On top of that the handler applies the tighter of the
// server-configured Options.Timeout and the client's timeout_ms field;
// a missed deadline answers 504, an admission-shed request answers 503
// with Retry-After, and a malformed request answers 400.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/grid"
	"repro/internal/queryengine"
)

// ErrBadRequest marks client errors: a Backend wraps validation failures
// with it (fmt.Errorf("%w: ...", httpapi.ErrBadRequest)) and the handler
// answers 400 instead of 500.
var ErrBadRequest = errors.New("bad request")

// Rect is the wire form of a query rectangle Q.Λ.
type Rect struct {
	MinX float64 `json:"min_x"`
	MinY float64 `json:"min_y"`
	MaxX float64 `json:"max_x"`
	MaxY float64 `json:"max_y"`
}

// QueryRequest is the JSON body of POST /query.
type QueryRequest struct {
	// Keywords is the query keyword set Q.ψ (required, non-empty).
	Keywords []string `json:"keywords"`
	// Delta is the length constraint Q.∆ in coordinate units (required, > 0).
	Delta float64 `json:"delta"`
	// Region is the rectangular region of interest Q.Λ.
	Region Rect `json:"region"`
	// Method optionally overrides the server's configured algorithm:
	// "tgen", "app", "greedy", or "auto" (case-insensitive). Empty keeps
	// the server default; "auto" lets the server-side cost planner pick
	// per request against the deadline.
	Method string `json:"method,omitempty"`
	// K, when > 1, asks for the top-K disjoint regions.
	K int `json:"k,omitempty"`
	// TimeoutMs optionally tightens the per-request deadline below the
	// server-configured bound. It can never extend it.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// Explain asks for the EXPLAIN plan fragment in the response.
	Explain bool `json:"explain,omitempty"`
}

// Object is one relevant object of a result region.
type Object struct {
	ID    int     `json:"id"`
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	Score float64 `json:"score"`
}

// Edge is one road segment of a result region.
type Edge struct {
	U      int     `json:"u"`
	V      int     `json:"v"`
	Length float64 `json:"length"`
}

// Region is the wire form of one result region.
type Region struct {
	Score   float64  `json:"score"`
	Length  float64  `json:"length"`
	Nodes   []int    `json:"nodes"`
	Edges   []Edge   `json:"edges"`
	Objects []Object `json:"objects"`
}

// QueryResponse is the JSON body answering POST /query.
type QueryResponse struct {
	// Matched reports whether any region matched; false with empty
	// Regions is a valid empty answer, not an error.
	Matched bool `json:"matched"`
	// Regions holds the result regions, best first.
	Regions []Region `json:"regions"`
	// Plan is the EXPLAIN fragment, present only when the request set
	// explain.
	Plan *Plan `json:"plan,omitempty"`
}

// Plan is the wire form of the EXPLAIN annotation. Unlike the rest of
// the wire surface it uses camelCase keys — the fragment is aimed at
// dashboards and jq one-liners (`.plan.method`, `.plan.cellsSkipped`),
// and those keys are part of the documented surface (docs/PLANS.md).
type Plan struct {
	// Method is the solver that answered ("TGEN", "APP", "Greedy"); with
	// auto=true it was chosen by the cost planner, and reason says why.
	Method   string `json:"method"`
	Auto     bool   `json:"auto,omitempty"`
	Degraded bool   `json:"degraded,omitempty"`
	Reason   string `json:"reason,omitempty"`
	// Costs are milliseconds: the budget the planner chose against, the
	// model's estimate for the chosen method, and the measured service
	// time (queue wait excluded).
	BudgetMs    float64 `json:"budgetMs,omitempty"`
	EstimateMs  float64 `json:"estimateMs"`
	ActualMs    float64 `json:"actualMs"`
	EstGreedyMs float64 `json:"estGreedyMs,omitempty"`
	EstTGENMs   float64 `json:"estTgenMs,omitempty"`
	EstAPPMs    float64 `json:"estAppMs,omitempty"`
	// Nodes is the working-graph size the estimates used.
	Nodes int `json:"nodes"`
	// Cell accounting: cellsInRect = cellsScanned + cellsSkipped, with
	// the skip reasons broken out (empty directory, no shared term,
	// score-cache hit).
	CellsInRect        int64 `json:"cellsInRect"`
	CellsScanned       int64 `json:"cellsScanned"`
	CellsSkipped       int64 `json:"cellsSkipped"`
	CellsSkippedEmpty  int64 `json:"cellsSkippedEmpty,omitempty"`
	CellsSkippedNoTerm int64 `json:"cellsSkippedNoTerm,omitempty"`
	CellsSkippedCache  int64 `json:"cellsSkippedCache,omitempty"`
	// Posting-level accounting and the resulting candidate objects.
	PostingLists     int64 `json:"postingLists"`
	Postings         int64 `json:"postings"`
	PostingsFiltered int64 `json:"postingsFiltered,omitempty"`
	Candidates       int64 `json:"candidates"`
	// Cluster is the coordinator's routing fragment (cluster serving only).
	Cluster *ClusterPlan `json:"cluster,omitempty"`
}

// ClusterPlan is the plan's cluster routing fragment: replica groups
// contacted for the scattered search vs. skipped by the rectangle or
// term-directory route checks.
type ClusterPlan struct {
	GroupsContacted   int64 `json:"groupsContacted"`
	GroupsSkippedRect int64 `json:"groupsSkippedRect,omitempty"`
	GroupsSkippedTerm int64 `json:"groupsSkippedTerm,omitempty"`
}

// Stats is the JSON body answering GET /stats. Latencies are reported in
// milliseconds.
type Stats struct {
	Served  int64   `json:"served"`
	Matched int64   `json:"matched"`
	Errors  int64   `json:"errors"`
	Shed    int64   `json:"shed"`
	Panics  int64   `json:"panics"`
	Window  int     `json:"window"`
	P50Ms   float64 `json:"p50_ms"`
	P95Ms   float64 `json:"p95_ms"`
	P99Ms   float64 `json:"p99_ms"`
	MaxMs   float64 `json:"max_ms"`
	// Tombstones is the count of deleted objects whose postings still
	// await compaction in the backing index.
	Tombstones int `json:"tombstones"`
	// ScoreCache carries the hot-query score cache counters when the
	// backing database has one enabled; omitted otherwise.
	ScoreCache *grid.ScoreCacheStats `json:"score_cache,omitempty"`
	// Cluster carries the coordinator's routing and per-node counters when
	// the backend serves a multi-node cluster; omitted for single-process
	// serving.
	Cluster *ClusterStats `json:"cluster,omitempty"`
}

// ClusterStats is the /stats fragment aggregating the whole cluster:
// coordinator routing counters plus one entry per node connection.
type ClusterStats struct {
	Searches    int64              `json:"searches"`
	SkippedRect int64              `json:"skipped_rect"`
	SkippedTerm int64              `json:"skipped_term"`
	Retries     int64              `json:"retries"`
	NoReplica   int64              `json:"no_replica"`
	QuotaDenied int64              `json:"quota_denied"`
	Groups      int                `json:"groups"`
	Nodes       []ClusterNodeStats `json:"nodes,omitempty"`
}

// ClusterNodeStats is one node connection's slice of ClusterStats.
// Latencies are RPC round-trips measured at the coordinator.
type ClusterNodeStats struct {
	Addr    string  `json:"addr"`
	CellLo  uint32  `json:"cell_lo"`
	CellHi  uint32  `json:"cell_hi"`
	Sent    int64   `json:"sent"`
	Errors  int64   `json:"errors"`
	P50Ms   float64 `json:"p50_ms"`
	P95Ms   float64 `json:"p95_ms"`
	P99Ms   float64 `json:"p99_ms"`
	Samples int     `json:"samples"`
}

// clientKey carries the requester's identity (remote host) in the query
// context for per-client quota admission at a cluster coordinator.
type clientKey struct{}

// ClientID extracts the requesting client's identity set by the handler
// (the remote host, ports stripped so one client is one bucket), or ""
// when the query did not arrive over HTTP.
func ClientID(ctx context.Context) string {
	id, _ := ctx.Value(clientKey{}).(string)
	return id
}

// WithClientID returns ctx carrying id for ClientID. The handler applies
// it automatically; tests and non-HTTP front ends may set it directly.
func WithClientID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, clientKey{}, id)
}

// Backend answers decoded queries; the public repro package implements it
// over a streaming Server.
type Backend interface {
	// Query answers one request under ctx. Validation failures should
	// wrap ErrBadRequest; cancellation/deadline/overload errors pass
	// through untranslated and the handler maps them to statuses.
	Query(ctx context.Context, req QueryRequest) (QueryResponse, error)
	// Stats snapshots the serving counters.
	Stats() Stats
}

// Options configures the handler.
type Options struct {
	// Timeout bounds every /query request (a context deadline around the
	// solve); clients may tighten it per request via timeout_ms but never
	// extend it. Zero leaves requests bounded only by the client.
	Timeout time.Duration
	// MaxBodyBytes caps the /query body size; <= 0 selects 1 MiB.
	MaxBodyBytes int64
}

// NewHandler returns the HTTP handler serving POST /query and GET /stats
// over the backend.
func NewHandler(b Backend, opts Options) http.Handler {
	maxBody := opts.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = 1 << 20
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		var req QueryRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
			return
		}
		ctx := r.Context()
		timeout := opts.Timeout
		if req.TimeoutMs > 0 {
			if t := time.Duration(req.TimeoutMs) * time.Millisecond; timeout == 0 || t < timeout {
				timeout = t
			}
		}
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		if host, _, splitErr := net.SplitHostPort(r.RemoteAddr); splitErr == nil && host != "" {
			ctx = WithClientID(ctx, host)
		} else if r.RemoteAddr != "" {
			ctx = WithClientID(ctx, r.RemoteAddr)
		}
		resp, err := b.Query(ctx, req)
		if err != nil {
			writeQueryError(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			writeError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		writeJSON(w, http.StatusOK, b.Stats())
	})
	return mux
}

// writeQueryError maps a backend error onto an HTTP status.
func writeQueryError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, ErrBadRequest):
		writeError(w, http.StatusBadRequest, err.Error())
	case errors.Is(err, cluster.ErrQuotaExceeded):
		// The client outran its token bucket; its budget refills with time.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, queryengine.ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, cluster.ErrNoReplica):
		// Every replica of some cell range failed; the cluster is degraded
		// but replicas may come back — retryable, 503.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, grid.ErrShardIO):
		// The posting store lost a read (after a retry); the query is
		// retryable — the store may recover or a scrub may isolate the
		// damage — so 503, not 500.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded")
	case errors.Is(err, context.Canceled) && r.Context().Err() != nil:
		// The client disconnected; nobody is reading the response.
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		// The status line is gone already; nothing useful remains to send.
		_ = err
	}
}

// MillisOf converts a duration to the wire millisecond form.
func MillisOf(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
