//go:build !race

package btree

// Allocation-regression tests. The race detector instruments allocations,
// so these run only in non-race builds.

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// TestWALAppendZeroAlloc: once the log's frame buffer has grown to the
// largest record, a NoSync append allocates nothing — and the reused
// buffer still writes every frame byte-for-byte in the documented format.
func TestWALAppendZeroAlloc(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(f, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	large, small := bytes.Repeat([]byte{0xab}, 300), []byte("short record")
	records := [][]byte{large, small} // large first: it sizes the buffer
	for _, p := range records {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 100
	allocs := testing.AllocsPerRun(runs, func() {
		for _, p := range records {
			if err := w.Append(p); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("WAL.Append: %v allocs per two appends, want 0", allocs)
	}
	var want []byte
	for i := 0; i < runs+2; i++ { // AllocsPerRun adds one warm-up call
		for _, p := range records {
			want = binary.LittleEndian.AppendUint32(want, uint32(len(p)))
			want = binary.LittleEndian.AppendUint32(want, Checksum(p))
			want = append(want, p...)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("log image differs from the frame format (%d bytes, want %d)", len(got), len(want))
	}
}
