package cluster

import (
	"sync"
	"sync/atomic"
	"time"
)

// QuotaOptions configures per-client token-bucket admission at the
// coordinator: each client id gets a bucket holding up to Burst tokens,
// refilled at RatePerSec; a request costs one token. A client that
// exhausts its bucket is answered ErrQuotaExceeded until it refills —
// one hot client cannot starve the rest of the fleet.
type QuotaOptions struct {
	// RatePerSec is the sustained request rate allowed per client.
	RatePerSec float64
	// Burst is the bucket capacity; <= 0 means max(1, RatePerSec).
	Burst float64
}

type bucket struct {
	tokens float64
	last   time.Time
}

// quotaSweepMin is the table size below which no eviction sweep runs:
// small tables are left alone, and after a sweep the next one is not
// due until the table has doubled, so the amortized sweep cost per take
// is O(1).
const quotaSweepMin = 1024

type quotaTable struct {
	opts    QuotaOptions
	mu      sync.Mutex
	m       map[string]*bucket
	sweepAt int // sweep when len(m) reaches this
	denied  atomic.Int64
}

func newQuotaTable(opts QuotaOptions) *quotaTable {
	if opts.Burst <= 0 {
		opts.Burst = max(1, opts.RatePerSec)
	}
	return &quotaTable{opts: opts, m: make(map[string]*bucket), sweepAt: quotaSweepMin}
}

// take spends one token from client's bucket, reporting whether one was
// available.
func (q *quotaTable) take(client string) bool {
	now := time.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.m) >= q.sweepAt {
		q.sweepLocked(now)
	}
	b := q.m[client]
	if b == nil {
		b = &bucket{tokens: q.opts.Burst, last: now}
		q.m[client] = b
	}
	b.tokens = min(q.opts.Burst, b.tokens+now.Sub(b.last).Seconds()*q.opts.RatePerSec)
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// sweepLocked evicts every bucket idle long enough to have refilled
// completely: such a client is indistinguishable from one the table has
// never seen (take would hand either a full bucket), so eviction cannot
// change any admission decision — it only stops the table growing one
// bucket per distinct client id forever. With RatePerSec <= 0 buckets
// never refill and none can be safely evicted (a spent bucket is a
// permanent ban, which eviction would lift), so the sweep is skipped.
func (q *quotaTable) sweepLocked(now time.Time) {
	if q.opts.RatePerSec > 0 {
		refill := q.opts.Burst / q.opts.RatePerSec // seconds from empty to full
		for id, b := range q.m {
			if now.Sub(b.last).Seconds() >= refill {
				delete(q.m, id)
			}
		}
	}
	q.sweepAt = max(quotaSweepMin, 2*len(q.m))
}
