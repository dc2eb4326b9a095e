package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/iofault"
)

// writeV1File hand-crafts a legacy (v1) tree file: a single header page and
// one leaf holding the given inline entries. This is what Create produced
// before the checksummed v2 format.
func writeV1File(t *testing.T, path string, entries map[uint64][]byte) {
	t.Helper()
	var keys []uint64
	for k := range entries {
		keys = append(keys, k)
	}
	for i := 0; i < len(keys); i++ { // insertion sort; tiny inputs
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	img := make([]byte, 2*PageSize)
	binary.LittleEndian.PutUint64(img[0:], magicV1)
	binary.LittleEndian.PutUint64(img[8:], 1)  // root
	binary.LittleEndian.PutUint64(img[16:], 2) // numPages
	binary.LittleEndian.PutUint64(img[24:], 0) // freeHead
	binary.LittleEndian.PutUint64(img[32:], uint64(len(entries)))
	leaf := img[PageSize:]
	leaf[0] = typeLeaf
	binary.LittleEndian.PutUint16(leaf[1:], uint16(len(keys)))
	off := pageHeaderLen
	for _, k := range keys {
		binary.LittleEndian.PutUint64(leaf[off:], k)
		off += 8
		binary.LittleEndian.PutUint32(leaf[off:], uint32(len(entries[k])))
		off += 4
		off += copy(leaf[off:], entries[k])
	}
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestOpenReadsV1Files(t *testing.T) {
	path := filepath.Join(t.TempDir(), "legacy.bt")
	writeV1File(t, path, map[uint64][]byte{7: []byte("seven"), 9: []byte("nine")})
	tr, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.version != 1 {
		t.Fatalf("Version = %d, want 1", tr.version)
	}
	got, err := tr.Get(7)
	if err != nil || string(got) != "seven" {
		t.Fatalf("Get(7) = %q, %v", got, err)
	}
	// v1 files stay writable in their original format.
	if err := tr.Put(8, []byte("eight")); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Verify(); err != nil {
		t.Fatalf("Verify on v1: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	tr2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	if tr2.version != 1 {
		t.Fatalf("reopened Version = %d, want 1", tr2.version)
	}
	for k, want := range map[uint64]string{7: "seven", 8: "eight", 9: "nine"} {
		got, err := tr2.Get(k)
		if err != nil || string(got) != want {
			t.Fatalf("Get(%d) = %q, %v, want %q", k, got, err, want)
		}
	}
}

func TestCreateWritesV2(t *testing.T) {
	tr, path := newTempTree(t, Options{})
	if tr.version != 2 {
		t.Fatalf("Version = %d, want 2", tr.version)
	}
	if err := tr.Put(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	head, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint64(head) != magicV2 {
		t.Errorf("file magic = %#x, want v2", binary.LittleEndian.Uint64(head))
	}
}

func TestHeaderSlotFallback(t *testing.T) {
	mem := iofault.NewMemFile()
	tr, err := CreateFile(mem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 200; k++ {
		if err := tr.Put(k, []byte{byte(k), byte(k >> 3)}); err != nil {
			t.Fatal(err)
		}
	}
	// Two commits of the same logical state: both slots describe it, with
	// different sequence numbers.
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	newest := tr.seq % 2
	img := mem.Snapshot()

	// Tear the newest slot mid-page: Open must fall back to the older
	// valid slot and recover the full tree.
	torn := append([]byte(nil), img...)
	for i := 0; i < 512; i++ {
		torn[int(newest)*PageSize+1024+i] ^= 0xA5
	}
	tr2, err := OpenFile(iofault.NewMemFileFrom(torn), Options{})
	if err != nil {
		t.Fatalf("open with one torn header slot: %v", err)
	}
	if tr2.seq >= tr.seq {
		t.Fatalf("recovered seq %d, want the older slot (< %d)", tr2.seq, tr.seq)
	}
	if int(tr2.count) != 200 {
		t.Fatalf("recovered Count = %d, want 200", int(tr2.count))
	}
	if _, err := tr2.Verify(); err != nil {
		t.Fatalf("Verify after fallback: %v", err)
	}

	// Both slots torn: a typed corruption error, not a panic or garbage.
	torn2 := append([]byte(nil), img...)
	for i := 0; i < 512; i++ {
		torn2[1024+i] ^= 0xA5
		torn2[PageSize+1024+i] ^= 0xA5
	}
	if _, err := OpenFile(iofault.NewMemFileFrom(torn2), Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with both slots torn: %v, want ErrCorrupt", err)
	}
}

func TestVerifyDetectsBitRot(t *testing.T) {
	mem := iofault.NewMemFile()
	tr, err := CreateFile(mem, Options{CachePages: 8})
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte{0xCD}, 3*PageSize) // overflow chains too
	for k := uint64(0); k < 500; k++ {
		v := []byte{byte(k)}
		if k%50 == 0 {
			v = big
		}
		if err := tr.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	if vs, err := tr.Verify(); err != nil {
		t.Fatalf("Verify on clean tree: %v", err)
	} else if vs.Keys != 500 {
		t.Fatalf("Verify counted %d keys, want 500", vs.Keys)
	}
	img := mem.Snapshot()
	// Flip one bit in every data page in turn; Verify must catch each one.
	caught, total := 0, 0
	for page := 2; int64(page+1)*PageSize <= int64(len(img)); page++ {
		total++
		rotted := append([]byte(nil), img...)
		rotted[int64(page)*PageSize+2000] ^= 0x01
		tr2, err := OpenFile(iofault.NewMemFileFrom(rotted), Options{CachePages: 8})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("page %d: open failed with untyped error: %v", page, err)
			}
			caught++
			continue
		}
		if _, err := tr2.Verify(); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("page %d: Verify failed with untyped error: %v", page, err)
			}
			caught++
		}
	}
	if caught != total {
		t.Errorf("bit rot caught on %d/%d pages; every page must be protected", caught, total)
	}
}

func TestNoSyncSkipsFsync(t *testing.T) {
	mem := iofault.NewMemFile()
	inj := iofault.Wrap(mem, iofault.Plan{})
	tr, err := CreateFile(inj, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 100; k++ {
		if err := tr.Put(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, syncs := inj.Counts(); syncs != 0 {
		t.Errorf("NoSync tree issued %d fsyncs, want 0", syncs)
	}

	mem2 := iofault.NewMemFile()
	inj2 := iofault.Wrap(mem2, iofault.Plan{})
	tr2, err := CreateFile(inj2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, syncs := inj2.Counts(); syncs == 0 {
		t.Error("default options issued no fsyncs; durability discipline missing")
	}
}

func TestInjectedReadFailureSurfaces(t *testing.T) {
	mem := iofault.NewMemFile()
	tr, err := CreateFile(mem, Options{CachePages: 8})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 2000; k++ {
		if err := tr.Put(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	// Reopen over an injector failing one mid-stream read: some Get must
	// surface the injected error rather than fabricate an answer.
	inj := iofault.Wrap(iofault.NewMemFileFrom(mem.Snapshot()), iofault.Plan{FailRead: 10})
	tr2, err := OpenFile(inj, Options{CachePages: 8})
	if err != nil {
		t.Fatal(err)
	}
	var sawInjected bool
	for k := uint64(0); k < 2000; k++ {
		if _, err := tr2.Get(k); err != nil {
			if errors.Is(err, iofault.ErrInjected) {
				sawInjected = true
				break
			}
			t.Fatalf("Get(%d): unexpected error %v", k, err)
		}
	}
	if !sawInjected {
		t.Error("injected read failure never surfaced through Get")
	}
}
