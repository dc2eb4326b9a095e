package grid

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/btree"
)

// ShardScrub is one shard's scrub outcome: the verification statistics and
// the corruption (or I/O) error, if any.
type ShardScrub struct {
	Shard int
	Stats btree.VerifyStats
	Err   error
}

// ScrubReport aggregates per-shard scrub outcomes for a sharded store.
type ScrubReport struct {
	Shards []ShardScrub
}

// Err returns all shard failures joined, or nil when every shard verified
// clean. errors.Is(r.Err(), btree.ErrCorrupt) reports whether any shard is
// corrupt (as opposed to, say, unreadable).
func (r ScrubReport) Err() error {
	var errs []error
	for _, sh := range r.Shards {
		if sh.Err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", sh.Shard, sh.Err))
		}
	}
	return errors.Join(errs...)
}

// String renders one line per shard, the way cmd/lcmsr -scrub prints it.
func (r ScrubReport) String() string {
	var b strings.Builder
	for _, sh := range r.Shards {
		if sh.Err != nil {
			fmt.Fprintf(&b, "shard %04d: CORRUPT: %v\n", sh.Shard, sh.Err)
		} else {
			fmt.Fprintf(&b, "shard %04d: ok: %s\n", sh.Shard, sh.Stats)
		}
	}
	return b.String()
}

// Scrub verifies every shard's on-disk tree (checksums, page links, key
// order, counts — see btree.Verify) and reports per shard. Shards are
// scrubbed concurrently, each under its own lock, so a scrub of a large
// store uses all cores; a closed store reports an error per shard rather
// than panicking.
func (s *ShardedStore) Scrub() ScrubReport {
	report := ScrubReport{Shards: make([]ShardScrub, len(s.shards))}
	var wg sync.WaitGroup
	for i := range s.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sh := &s.shards[i]
			sh.mu.Lock()
			defer sh.mu.Unlock()
			report.Shards[i].Shard = i
			if sh.tree == nil {
				report.Shards[i].Err = errStoreClosed
				return
			}
			report.Shards[i].Stats, report.Shards[i].Err = sh.tree.Verify()
		}(i)
	}
	wg.Wait()
	return report
}
