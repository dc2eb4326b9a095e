package repro

import (
	"context"
	"fmt"
	"net"
	"net/http"

	"repro/internal/cluster"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/httpapi"
	"repro/internal/textindex"
)

// ErrQuotaExceeded is returned when a cluster coordinator's per-client
// token bucket denies a request; the client's budget refills with time.
// It aliases the cluster sentinel so errors.Is works across layers.
var ErrQuotaExceeded = cluster.ErrQuotaExceeded

// ErrNoReplica is returned when every replica serving some cell range
// has failed a query (connection failures or shard IO errors on all of
// them). The cluster never answers partially: exhausting a group is a
// typed failure, not a silently incomplete result.
var ErrNoReplica = cluster.ErrNoReplica

// NumCells returns the grid's cell count — the space a cluster's node
// cell ranges must tile exactly.
func (db *Database) NumCells() int { return db.ds.Index.NumCells() }

// ClusterNode is one serving member of a cluster: it answers partial
// searches for its assigned cell range over TCP. Close it on shutdown.
type ClusterNode struct {
	node *cluster.Node
}

// ServeClusterNode starts serving this database's index as one cluster
// node on ln, owning the cell range [cellLo, cellHi). When the database's
// posting store records a cell assignment in its MANIFEST (see
// RecordCellRange), that assignment is authoritative: pass zeros to adopt
// it, or matching bounds; contradicting it is an error. The node owns ln
// from here — ClusterNode.Close closes it.
//
// Becoming a node freezes the database's index: cluster serving is
// read-only (coordinators cache each node's term directory at startup),
// so Insert/Delete/Reweight fail from here on. Rebuild and restart to
// mutate.
func (db *Database) ServeClusterNode(ln net.Listener, cellLo, cellHi uint32) (*ClusterNode, error) {
	n, err := cluster.NewNode(cluster.NodeConfig{
		Index:   db.ds.Index,
		CellLo:  cellLo,
		CellHi:  cellHi,
		Objects: db.NumObjects(),
	})
	if err != nil {
		return nil, err
	}
	n.Serve(ln)
	return &ClusterNode{node: n}, nil
}

// Addr returns the node's listening address.
func (cn *ClusterNode) Addr() net.Addr { return cn.node.Addr() }

// CellRange returns the node's owned cell range [lo, hi).
func (cn *ClusterNode) CellRange() (lo, hi uint32) { return cn.node.CellRange() }

// Close stops the node: the listener and every connection are closed and
// in-flight handlers are waited for. Idempotent.
func (cn *ClusterNode) Close() error { return cn.node.Close() }

// RecordCellRange persists the cell assignment [lo, hi) into the posting
// store's MANIFEST (checksummed alongside the shard count), so a node
// process reopening the store serves the same cells it was built for
// without out-of-band configuration. It requires a disk-backed store.
func (db *Database) RecordCellRange(lo, hi uint32) error {
	s, ok := db.ds.Index.Store().(*grid.ShardedStore)
	if !ok {
		return fmt.Errorf("repro: RecordCellRange: the database's store does not persist cell assignments (need a disk store)")
	}
	return s.RecordCellRange(lo, hi)
}

// ClusterQuota configures per-client token-bucket admission at the
// coordinator: each client sustains RatePerSec requests with bursts up
// to Burst (<= 0 means max(1, RatePerSec)). A client that exhausts its
// bucket is answered ErrQuotaExceeded (HTTP 429) until it refills.
type ClusterQuota struct {
	RatePerSec float64
	Burst      float64
}

// ClusterOptions configures OpenCluster.
type ClusterOptions struct {
	// Nodes lists node addresses (host:port). Nodes reporting the same
	// cell range become replicas; the ranges together must tile the whole
	// grid or OpenCluster fails with a topology error.
	Nodes []string
	// Serve configures the coordinator's local worker pool (it still runs
	// the solvers; only the object search scatters). The admission queue
	// is always deadline-ordered (EDF) for cluster serving.
	Serve ServeOptions
	// Quota, when non-nil, enables per-client admission control.
	Quota *ClusterQuota
}

// Cluster is a coordinator over a set of node processes, presenting the
// same serving surface as a single-process Server: answers are
// bit-identical because the distributed search is an exact partition of
// the single-process one (see internal/cluster). The local database
// provides the road network and planner state; every object search
// scatters to the owning nodes and merges.
type Cluster struct {
	db    *Database
	coord *cluster.Coordinator
	srv   *Server
}

// OpenCluster connects to the given nodes, validates that they serve the
// same dataset and that their cell ranges tile the grid, and returns a
// Cluster serving queries through them. The database keeps its full local
// index for routing metadata and for restoring local serving on Close.
func (db *Database) OpenCluster(opts ClusterOptions) (*Cluster, error) {
	var quota *cluster.QuotaOptions
	if opts.Quota != nil {
		quota = &cluster.QuotaOptions{RatePerSec: opts.Quota.RatePerSec, Burst: opts.Quota.Burst}
	}
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Addrs:   opts.Nodes,
		Index:   db.ds.Index,
		Objects: db.NumObjects(),
		Quota:   quota,
	})
	if err != nil {
		return nil, err
	}
	// Route every planner search through the coordinator from here on.
	// The scratch's trace (set when the request asked for EXPLAIN) rides
	// along so the coordinator can merge per-node fragments and its own
	// routing decisions into it.
	db.ds.SetSearchFunc(func(ctx context.Context, q textindex.Query, r geo.Rect, s *grid.SearchScratch) ([]grid.ObjScore, error) {
		return coord.SearchTrace(ctx, q, r, s.Trace)
	})
	srv, err := db.serve(opts.Serve, true)
	if err != nil {
		db.ds.SetSearchFunc(nil)
		_ = coord.Close()
		return nil, err
	}
	return &Cluster{db: db, coord: coord, srv: srv}, nil
}

// Do answers one request through the cluster, with per-client quota
// admission when quotas are enabled: the client identity is taken from
// the context (httpapi.WithClientID; the HTTP front end sets it to the
// remote host). Requests without an identity share one bucket.
func (c *Cluster) Do(ctx context.Context, req Request) Response {
	if err := c.coord.Admit(httpapi.ClientID(ctx)); err != nil {
		return Response{Err: err}
	}
	return c.srv.Do(ctx, req)
}

// HTTPHandler exposes the cluster over the same HTTP surface as
// Server.HTTPHandler, plus per-client quota admission (429 with
// Retry-After when a client outruns its bucket) and a cluster section in
// GET /stats aggregating coordinator routing counters and per-node RPC
// latencies.
func (c *Cluster) HTTPHandler(opts HTTPOptions) http.Handler {
	return httpapi.NewHandler(clusterBackend{c}, httpapi.Options{Timeout: opts.Timeout})
}

// ServeStats snapshots the coordinator-side worker pool counters.
func (c *Cluster) ServeStats() ServeStats { return c.srv.Stats() }

// ClusterNodeStats is the coordinator's view of one node connection.
// Latencies are RPC round-trips measured at the coordinator, network
// included.
type ClusterNodeStats = cluster.NodeClientStats

// ClusterStats aggregates the whole cluster: the coordinator's routing
// decisions (skips by rectangle and by term directory, retries, replica
// exhaustion, quota denials) and one entry per node connection.
type ClusterStats = cluster.Stats

// Stats snapshots the cluster-wide counters.
func (c *Cluster) Stats() ClusterStats { return c.coord.Stats() }

// Close stops the serving pool, restores the database's local search
// path, and releases the node connections. The database itself stays
// open. Idempotent.
func (c *Cluster) Close() error {
	c.srv.Close()
	c.db.ds.SetSearchFunc(nil)
	return c.coord.Close()
}

// clusterBackend adapts a Cluster to the httpapi wire surface: quota
// admission before the solve, and the cluster stats fragment.
type clusterBackend struct {
	c *Cluster
}

// Query implements httpapi.Backend.
func (b clusterBackend) Query(ctx context.Context, req httpapi.QueryRequest) (httpapi.QueryResponse, error) {
	if err := b.c.coord.Admit(httpapi.ClientID(ctx)); err != nil {
		return httpapi.QueryResponse{}, err
	}
	return httpBackend{b.c.srv}.Query(ctx, req)
}

// Stats implements httpapi.Backend.
func (b clusterBackend) Stats() httpapi.Stats {
	out := httpBackend{b.c.srv}.Stats()
	st := b.c.coord.Stats()
	cs := &httpapi.ClusterStats{
		Searches:    st.Searches,
		SkippedRect: st.SkippedRect,
		SkippedTerm: st.SkippedTerm,
		Retries:     st.Retries,
		NoReplica:   st.NoReplica,
		QuotaDenied: st.QuotaDenied,
		Groups:      st.Groups,
	}
	for _, ns := range st.Nodes {
		cs.Nodes = append(cs.Nodes, httpapi.ClusterNodeStats{
			Addr:    ns.Addr,
			CellLo:  ns.CellLo,
			CellHi:  ns.CellHi,
			Sent:    ns.Sent,
			Errors:  ns.Errors,
			P50Ms:   httpapi.MillisOf(ns.P50),
			P95Ms:   httpapi.MillisOf(ns.P95),
			P99Ms:   httpapi.MillisOf(ns.P99),
			Samples: ns.Samples,
		})
	}
	out.Cluster = cs
	return out
}
