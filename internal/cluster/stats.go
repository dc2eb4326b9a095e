package cluster

import (
	"slices"
	"time"

	"repro/internal/queryengine"
)

// NodeClientStats is the coordinator's view of one node: routing
// counters and RPC latency percentiles (measured at the coordinator, so
// they include the network).
type NodeClientStats struct {
	Addr    string        `json:"addr"`
	CellLo  uint32        `json:"cell_lo"`
	CellHi  uint32        `json:"cell_hi"`
	Sent    int64         `json:"sent"`
	Errors  int64         `json:"errors"`
	P50     time.Duration `json:"p50_ns"`
	P95     time.Duration `json:"p95_ns"`
	P99     time.Duration `json:"p99_ns"`
	Samples int           `json:"samples"`
}

// Stats is the cluster-wide counter snapshot: per-node client stats plus
// the coordinator's routing decisions (skips, retries, replica
// exhaustion, quota denials).
type Stats struct {
	Searches    int64             `json:"searches"`
	SkippedRect int64             `json:"skipped_rect"`
	SkippedTerm int64             `json:"skipped_term"`
	Retries     int64             `json:"retries"`
	NoReplica   int64             `json:"no_replica"`
	QuotaDenied int64             `json:"quota_denied"`
	Groups      int               `json:"groups"`
	Nodes       []NodeClientStats `json:"nodes"`
}

// Stats snapshots the coordinator's counters. Safe for concurrent use
// with Search.
func (c *Coordinator) Stats() Stats {
	st := Stats{
		Searches:    c.searches.Load(),
		SkippedRect: c.skippedRect.Load(),
		SkippedTerm: c.skippedTerm.Load(),
		Retries:     c.retries.Load(),
		NoReplica:   c.noReplica.Load(),
		Groups:      len(c.groups),
	}
	if c.quotas != nil {
		st.QuotaDenied = c.quotas.denied.Load()
	}
	for _, g := range c.groups {
		for _, nc := range g.replicas {
			ns := NodeClientStats{
				Addr:   nc.addr,
				CellLo: g.lo,
				CellHi: g.hi,
				Sent:   nc.sent.Load(),
				Errors: nc.errors.Load(),
			}
			nc.latMu.Lock()
			if len(nc.lat) > 0 {
				sorted := slices.Clone(nc.lat)
				slices.Sort(sorted)
				ns.Samples = len(sorted)
				ns.P50 = queryengine.Percentile(sorted, 50)
				ns.P95 = queryengine.Percentile(sorted, 95)
				ns.P99 = queryengine.Percentile(sorted, 99)
			}
			nc.latMu.Unlock()
			st.Nodes = append(st.Nodes, ns)
		}
	}
	return st
}
