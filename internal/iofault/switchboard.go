package iofault

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Switchboard is a named collection of MemFiles behind one shared fault
// Plan: its read/write/sync counters are global across every file, so a
// single "crash after N writes" kill point can cut a multi-file commit
// protocol — WAL append on one file, tree page flushes on others, a meta
// slot on a third — at any write boundary, which a per-file Injector
// cannot express. It models one process over one disk: once the plan
// crashes the board, every operation on every file fails with ErrCrashed.
//
// A Switchboard is safe for concurrent use; operation indices are assigned
// under its lock, so a concurrent workload still gets a total order of
// write boundaries (the order is schedule-dependent, which is why the
// crash suites drive their scripted workloads serially).
type Switchboard struct {
	mu      sync.Mutex
	plan    Plan
	files   map[string]*MemFile
	reads   int
	writes  int
	syncs   int
	crashed bool
	park    *syncPark
}

// syncPark is the ParkSync gate: syncs of files named with prefix wait
// for release; parked is closed once the first of them waits.
type syncPark struct {
	prefix  string
	release <-chan struct{}
	parked  chan struct{}
	once    sync.Once
}

// NewSwitchboard returns an empty board with a zero (fault-free) plan.
func NewSwitchboard() *Switchboard {
	return &Switchboard{files: make(map[string]*MemFile)}
}

// SetPlan installs a fault plan and resets the operation counters and the
// crashed flag, so one board can replay a workload under successive plans.
func (sb *Switchboard) SetPlan(plan Plan) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	sb.plan = plan
	sb.reads, sb.writes, sb.syncs = 0, 0, 0
	sb.crashed = false
}

// Counts reports the global operation counters (including faulted ops).
func (sb *Switchboard) Counts() (reads, writes, syncs int) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.reads, sb.writes, sb.syncs
}

// Crashed reports whether the plan has crashed the board.
func (sb *Switchboard) Crashed() bool {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.crashed
}

// ParkSync is a test gate: from now on, every Sync of a file whose name
// starts with prefix blocks until release is closed. The returned channel
// is closed once the first such Sync is waiting, so a test can act while
// a writer is provably stuck inside that fsync. A parked Sync holds no
// board lock and has already been counted against the plan.
func (sb *Switchboard) ParkSync(prefix string, release <-chan struct{}) <-chan struct{} {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	sb.park = &syncPark{prefix: prefix, release: release, parked: make(chan struct{})}
	return sb.park.parked
}

// Open returns the named file, creating it empty if needed. The handle
// routes every operation through the board's plan.
func (sb *Switchboard) Open(name string) File {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	m, ok := sb.files[name]
	if !ok {
		m = NewMemFile()
		sb.files[name] = m
	}
	return &boardFile{sb: sb, m: m, name: name}
}

// Exists reports whether the named file has been created.
func (sb *Switchboard) Exists(name string) bool {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	_, ok := sb.files[name]
	return ok
}

// Remove deletes the named file from the board.
func (sb *Switchboard) Remove(name string) error {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if _, ok := sb.files[name]; !ok {
		return fmt.Errorf("iofault: remove %s: no such file", name)
	}
	delete(sb.files, name)
	return nil
}

// Names returns the board's file names, sorted.
func (sb *Switchboard) Names() []string {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	out := make([]string, 0, len(sb.files))
	for name := range sb.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Fork returns a fresh fault-free board holding copies of every file — the
// disk a rebooted process finds. durable true models power loss (only
// synced bytes survive, MemFile.DurableSnapshot); false models a process
// kill with the page cache intact (MemFile.Snapshot). The original board
// is left untouched, so one crashed run can be reopened both ways.
func (sb *Switchboard) Fork(durable bool) *Switchboard {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	out := NewSwitchboard()
	for name, m := range sb.files {
		var img []byte
		if durable {
			img = m.DurableSnapshot()
		} else {
			img = m.Snapshot()
		}
		out.files[name] = NewMemFileFrom(img)
	}
	return out
}

// boardFile is a handle on one board file; the board applies the shared
// plan before forwarding to the MemFile.
type boardFile struct {
	sb   *Switchboard
	m    *MemFile
	name string
}

func (f *boardFile) ReadAt(p []byte, off int64) (int, error) {
	sb := f.sb
	sb.mu.Lock()
	if sb.crashed {
		sb.mu.Unlock()
		return 0, ErrCrashed
	}
	sb.reads++
	fail := sb.plan.FailRead > 0 && sb.reads == sb.plan.FailRead
	sb.mu.Unlock()
	if fail {
		return 0, fmt.Errorf("%w: read %d", ErrInjected, sb.plan.FailRead)
	}
	return f.m.ReadAt(p, off)
}

func (f *boardFile) WriteAt(p []byte, off int64) (int, error) {
	sb := f.sb
	sb.mu.Lock()
	if sb.crashed {
		sb.mu.Unlock()
		return 0, ErrCrashed
	}
	if sb.plan.CrashAfterWrites > 0 && sb.writes >= sb.plan.CrashAfterWrites {
		sb.crashed = true
		sb.mu.Unlock()
		return 0, ErrCrashed
	}
	sb.writes++
	w := sb.writes
	sb.mu.Unlock()
	switch {
	case sb.plan.FailWrite > 0 && w == sb.plan.FailWrite:
		return 0, fmt.Errorf("%w: write %d", ErrInjected, w)
	case sb.plan.TornWrite > 0 && w == sb.plan.TornWrite:
		n := sb.plan.TornBytes
		if n <= 0 {
			n = len(p) / 2
		}
		if n >= len(p) {
			n = len(p) - 1
		}
		if n > 0 {
			if _, err := f.m.WriteAt(p[:n], off); err != nil {
				return 0, err
			}
		}
		sb.mu.Lock()
		sb.crashed = true
		sb.mu.Unlock()
		return n, fmt.Errorf("%w: torn write %d (%d/%d bytes)", ErrInjected, w, n, len(p))
	}
	return f.m.WriteAt(p, off)
}

func (f *boardFile) Sync() error {
	sb := f.sb
	sb.mu.Lock()
	if sb.crashed {
		sb.mu.Unlock()
		return ErrCrashed
	}
	sb.syncs++
	drop := sb.plan.DropAllSyncs || (sb.plan.DropSyncAfter > 0 && sb.syncs > sb.plan.DropSyncAfter)
	park := sb.park
	sb.mu.Unlock()
	if park != nil && strings.HasPrefix(f.name, park.prefix) {
		park.once.Do(func() { close(park.parked) })
		<-park.release
	}
	if drop {
		return nil // the lying disk reports success
	}
	return f.m.Sync()
}

// Truncate counts as a write boundary: WAL resets and torn-tail trims
// mutate on-disk state, so a kill point must be able to land between a
// flush and its truncate. A torn-write index landing on a truncate crashes
// without applying it (a truncate has no partial form).
func (f *boardFile) Truncate(size int64) error {
	sb := f.sb
	sb.mu.Lock()
	if sb.crashed {
		sb.mu.Unlock()
		return ErrCrashed
	}
	if sb.plan.CrashAfterWrites > 0 && sb.writes >= sb.plan.CrashAfterWrites {
		sb.crashed = true
		sb.mu.Unlock()
		return ErrCrashed
	}
	sb.writes++
	w := sb.writes
	fail := sb.plan.FailWrite > 0 && w == sb.plan.FailWrite
	torn := sb.plan.TornWrite > 0 && w == sb.plan.TornWrite
	if torn {
		sb.crashed = true
	}
	sb.mu.Unlock()
	if fail {
		return fmt.Errorf("%w: write %d", ErrInjected, w)
	}
	if torn {
		return fmt.Errorf("%w: torn write %d (truncate)", ErrInjected, w)
	}
	return f.m.Truncate(size)
}

func (f *boardFile) Close() error {
	sb := f.sb
	sb.mu.Lock()
	if sb.crashed {
		sb.mu.Unlock()
		return ErrCrashed
	}
	sb.mu.Unlock()
	return f.m.Close()
}
