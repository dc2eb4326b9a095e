package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"repro/internal/iofault"
)

// replayAll reopens a log image and collects every replayed record.
func replayAll(t *testing.T, img []byte) [][]byte {
	t.Helper()
	var got [][]byte
	w, err := OpenWAL(iofault.NewMemFileFrom(img), false, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	defer w.Close()
	return got
}

func TestWALRoundTrip(t *testing.T) {
	f := iofault.NewMemFile()
	w, err := OpenWAL(f, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 20; i++ {
		rec := []byte(fmt.Sprintf("record-%d-%s", i, string(make([]byte, i*7))))
		want = append(want, rec)
		if err := w.Append(rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, f.DurableSnapshot())
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d: got %q want %q", i, got[i], want[i])
		}
	}
}

// TestWALTornTail: replay must stop at the first invalid frame — for every
// possible cut of the final record, the intact prefix replays and the tail
// is discarded without error.
func TestWALTornTail(t *testing.T) {
	f := iofault.NewMemFile()
	w, err := OpenWAL(f, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := [][]byte{[]byte("alpha"), []byte("beta-beta"), []byte("gamma-gamma-gamma")}
	var fullLens []int64
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
		fullLens = append(fullLens, w.off)
	}
	img := f.Snapshot()
	start := fullLens[1] // keep the first two records intact
	for cut := start; cut < int64(len(img)); cut++ {
		got := replayAll(t, img[:cut])
		if len(got) != 2 {
			t.Fatalf("cut at %d: replayed %d records, want 2", cut, len(got))
		}
	}
}

// TestWALCorruptFrameStopsReplay: a bit flip inside an earlier record makes
// its checksum fail, and replay must stop there — later (intact) records
// are unreachable by design, because record boundaries after a corrupt
// frame cannot be trusted.
func TestWALCorruptFrameStopsReplay(t *testing.T) {
	f := iofault.NewMemFile()
	w, err := OpenWAL(f, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Append([]byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	img := f.Snapshot()
	img[walHeaderLen+2] ^= 0xff // corrupt the first record's payload
	if got := replayAll(t, img); len(got) != 0 {
		t.Fatalf("replayed %d records past a corrupt frame, want 0", len(got))
	}
}

// TestWALImplausibleLength: a garbage length field must not make replay
// attempt a huge allocation; the frame is treated as torn.
func TestWALImplausibleLength(t *testing.T) {
	f := iofault.NewMemFile()
	w, err := OpenWAL(f, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("good")); err != nil {
		t.Fatal(err)
	}
	img := f.Snapshot()
	var huge [walHeaderLen]byte
	binary.LittleEndian.PutUint32(huge[0:], 1<<31)
	img = append(img, huge[:]...)
	if got := replayAll(t, img); len(got) != 1 {
		t.Fatalf("replayed %d records, want 1", len(got))
	}
}

// TestWALReplayErrorPropagates: a replay callback error (a corrupt but
// checksum-valid record at a higher layer) aborts the open, typed.
func TestWALReplayErrorPropagates(t *testing.T) {
	f := iofault.NewMemFile()
	w, err := OpenWAL(f, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	_, err = OpenWAL(iofault.NewMemFileFrom(f.Snapshot()), false, func([]byte) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("OpenWAL error = %v, want wrapped callback error", err)
	}
}

// TestWALReset: after a reset nothing replays, even from the durable image.
func TestWALReset(t *testing.T) {
	f := iofault.NewMemFile()
	w, err := OpenWAL(f, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, f.DurableSnapshot())
	if len(got) != 1 || string(got[0]) != "kept" {
		t.Fatalf("after reset replayed %q, want just \"kept\"", got)
	}
}

// TestWALNoSyncSkipsDurability: under NoSync an append leaves the durable
// image untouched (the volatile image has the record) — the bulk-load
// contract, same as the tree's.
func TestWALNoSyncSkipsDurability(t *testing.T) {
	f := iofault.NewMemFile()
	w, err := OpenWAL(f, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("volatile-only")); err != nil {
		t.Fatal(err)
	}
	if n := len(f.DurableSnapshot()); n != 0 {
		t.Fatalf("NoSync append made %d bytes durable, want 0", n)
	}
	if got := replayAll(t, f.Snapshot()); len(got) != 1 {
		t.Fatalf("volatile image replayed %d records, want 1", len(got))
	}
}

// TestWALOpenResumesAfterTornTail: reopening a log with a torn tail must
// truncate it so subsequent appends start exactly after the intact prefix.
func TestWALOpenResumesAfterTornTail(t *testing.T) {
	f := iofault.NewMemFile()
	w, err := OpenWAL(f, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	// Torn tail: half a frame of garbage.
	if _, err := f.WriteAt([]byte{9, 9, 9}, w.off); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenWAL(f, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := reopened.Append([]byte("second")); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, f.Snapshot())
	if len(got) != 2 || string(got[0]) != "first" || string(got[1]) != "second" {
		t.Fatalf("replayed %q, want [first second]", got)
	}
}
