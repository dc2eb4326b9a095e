package iofault

import (
	"errors"
	"testing"
	"time"
)

func TestSwitchboardGlobalWriteCounter(t *testing.T) {
	sb := NewSwitchboard()
	a := sb.Open("a")
	b := sb.Open("b")
	sb.SetPlan(Plan{CrashAfterWrites: 2})
	if _, err := a.WriteAt([]byte("one"), 0); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	if _, err := b.WriteAt([]byte("two"), 0); err != nil {
		t.Fatalf("write 2: %v", err)
	}
	// The third write — back on file a — must hit the global kill point.
	if _, err := a.WriteAt([]byte("three"), 3); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write 3 error = %v, want ErrCrashed", err)
	}
	if !sb.Crashed() {
		t.Fatal("board not marked crashed")
	}
	// Every file is dead after the crash.
	if _, err := b.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash read error = %v, want ErrCrashed", err)
	}
	if err := b.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash sync error = %v, want ErrCrashed", err)
	}
}

func TestSwitchboardTruncateIsWriteBoundary(t *testing.T) {
	sb := NewSwitchboard()
	f := sb.Open("wal")
	if _, err := f.WriteAt([]byte("record"), 0); err != nil {
		t.Fatal(err)
	}
	sb.SetPlan(Plan{CrashAfterWrites: 1})
	if _, err := f.WriteAt([]byte("x"), 6); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("truncate error = %v, want ErrCrashed (truncate counts as a write)", err)
	}
}

func TestSwitchboardFork(t *testing.T) {
	sb := NewSwitchboard()
	f := sb.Open("data")
	if _, err := f.WriteAt([]byte("durable"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("volatile"), 7); err != nil {
		t.Fatal(err)
	}

	// Power loss: only synced bytes survive.
	powerLoss := sb.Fork(true)
	buf := make([]byte, 32)
	n, _ := powerLoss.Open("data").ReadAt(buf, 0)
	if string(buf[:n]) != "durable" {
		t.Fatalf("durable fork read %q, want %q", buf[:n], "durable")
	}

	// Process kill: the page cache is intact.
	kill := sb.Fork(false)
	n, _ = kill.Open("data").ReadAt(buf, 0)
	if string(buf[:n]) != "durablevolatile" {
		t.Fatalf("volatile fork read %q, want %q", buf[:n], "durablevolatile")
	}

	// Forks are fault-free and independent of the original.
	sb.SetPlan(Plan{CrashAfterWrites: 1})
	if _, err := kill.Open("data").WriteAt([]byte("y"), 0); err != nil {
		t.Fatalf("fork write: %v", err)
	}
}

func TestSwitchboardTornWrite(t *testing.T) {
	sb := NewSwitchboard()
	f := sb.Open("page")
	sb.SetPlan(Plan{TornWrite: 1, TornBytes: 3})
	if _, err := f.WriteAt([]byte("abcdef"), 0); !errors.Is(err, ErrInjected) {
		t.Fatal("torn write not reported injected")
	}
	if !sb.Crashed() {
		t.Fatal("torn write must crash the board")
	}
	img := sb.Fork(false)
	buf := make([]byte, 16)
	n, _ := img.Open("page").ReadAt(buf, 0)
	if string(buf[:n]) != "abc" {
		t.Fatalf("torn write persisted %q, want %q", buf[:n], "abc")
	}
}

func TestSwitchboardDroppedSyncs(t *testing.T) {
	sb := NewSwitchboard()
	f := sb.Open("data")
	sb.SetPlan(Plan{DropAllSyncs: true})
	if _, err := f.WriteAt([]byte("never-durable"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err) // the lying disk reports success
	}
	powerLoss := sb.Fork(true)
	if _, err := powerLoss.Open("data").ReadAt(make([]byte, 1), 0); err == nil {
		t.Fatal("dropped sync still made bytes durable")
	}
}

func TestSwitchboardRemoveAndNames(t *testing.T) {
	sb := NewSwitchboard()
	sb.Open("b")
	sb.Open("a")
	if got := sb.Names(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Names = %v", got)
	}
	if err := sb.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if sb.Exists("a") || !sb.Exists("b") {
		t.Fatal("Remove removed the wrong file")
	}
	if err := sb.Remove("a"); err == nil {
		t.Fatal("Remove of a missing file must fail")
	}
}

// TestSwitchboardParkSync: a Sync of a matching file waits for release
// and signals that it is waiting; other files' syncs pass straight through.
func TestSwitchboardParkSync(t *testing.T) {
	sb := NewSwitchboard()
	wal, tree := sb.Open("wal-0000.log"), sb.Open("shard-0000.bt")
	release := make(chan struct{})
	parked := sb.ParkSync("wal-", release)
	if err := tree.Sync(); err != nil {
		t.Fatalf("unmatched sync: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- wal.Sync() }()
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("matching sync never parked")
	}
	select {
	case err := <-done:
		t.Fatalf("parked sync returned before release (err %v)", err)
	default:
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("released sync: %v", err)
	}
	if _, _, syncs := sb.Counts(); syncs != 2 {
		t.Fatalf("counted %d syncs, want 2", syncs)
	}
}
