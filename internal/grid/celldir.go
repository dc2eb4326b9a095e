package grid

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/geo"
	"repro/internal/textindex"
)

// This file encodes the index's metadata — the MANIFEST extension of the
// live-update path. A reopened store must answer queries without
// re-deriving anything from the original objects, so the meta body
// captures everything NewIndexOver would otherwise compute: the grid
// geometry, the per-cell term directory, and the object-set delta against
// the base build (appended objects, tombstones, reweighted base docs),
// plus an opaque caller blob (the dataset stores its vocabulary snapshot
// there). The body is committed into double-slot files by the sharded
// store (see livestore.go) and is always written after the memtable
// flush it describes, with the WAL truncated only after the commit — so
// a crash at any boundary leaves either the new slot, or the old slot
// plus the WAL records that advance it.

// ErrCorruptMeta marks an unreadable or internally inconsistent meta
// body. Recovery fails typed rather than serving from a guessed state.
var ErrCorruptMeta = errors.New("grid: corrupt index meta")

// ErrMetaMismatch marks a valid meta body that disagrees with the
// caller's index parameters (geometry or base object count) — the store
// was built for a different dataset.
var ErrMetaMismatch = errors.New("grid: store meta does not match the index parameters")

// indexMeta is the decoded meta body.
type indexMeta struct {
	bounds      geo.Rect
	cellSize    float64
	nx, ny      int
	baseObjects int
	cellDir     map[uint32][]termEntry
	tail        []tailObject
	tombstones  []ObjectID
	patches     []docPatch
	extra       []byte
}

// tailObject is an object appended after the base build (id >=
// baseObjects), stored in its current state — covering any reweights it
// received — so reopen needs no per-object history.
type tailObject struct {
	id      ObjectID
	point   geo.Point
	terms   []textindex.TermID
	weights []float64
	tf      []int32
}

// docPatch records a base object whose weights were replaced.
type docPatch struct {
	id      ObjectID
	weights []float64
}

// Meta format versions. The encoder writes V1: each directory entry is a
// term and its posting count. V2 bodies, written by builds that kept a
// per-entry weight bound after each count, still decode — the bound is
// skipped — so every store those builds wrote still opens.
const (
	indexMetaMagic   = "LCMSRIX1"
	indexMetaMagicV2 = "LCMSRIX2"
)

// encodeIndexMeta serializes a meta body deterministically (equal states
// produce equal bytes; maps are emitted in sorted order).
func encodeIndexMeta(m *indexMeta) []byte {
	out := make([]byte, 0, 1024)
	out = append(out, indexMetaMagic...)
	for _, f := range []float64{m.bounds.MinX, m.bounds.MinY, m.bounds.MaxX, m.bounds.MaxY, m.cellSize} {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(f))
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(m.nx))
	out = binary.LittleEndian.AppendUint32(out, uint32(m.ny))
	out = binary.LittleEndian.AppendUint32(out, uint32(m.baseObjects))

	cells := make([]uint32, 0, len(m.cellDir))
	for c := range m.cellDir {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i] < cells[j] })
	out = binary.LittleEndian.AppendUint32(out, uint32(len(cells)))
	for _, c := range cells {
		dir := m.cellDir[c]
		out = binary.LittleEndian.AppendUint32(out, c)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(dir)))
		for _, te := range dir {
			out = binary.LittleEndian.AppendUint32(out, uint32(te.term))
			out = binary.LittleEndian.AppendUint32(out, uint32(te.count))
		}
	}

	out = binary.LittleEndian.AppendUint32(out, uint32(len(m.tail)))
	for _, to := range m.tail {
		out = binary.LittleEndian.AppendUint32(out, uint32(to.id))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(to.point.X))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(to.point.Y))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(to.terms)))
		for i, t := range to.terms {
			out = binary.LittleEndian.AppendUint32(out, uint32(t))
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(to.weights[i]))
			out = binary.LittleEndian.AppendUint32(out, uint32(to.tf[i]))
		}
	}

	out = binary.LittleEndian.AppendUint32(out, uint32(len(m.tombstones)))
	for _, id := range m.tombstones {
		out = binary.LittleEndian.AppendUint32(out, uint32(id))
	}

	out = binary.LittleEndian.AppendUint32(out, uint32(len(m.patches)))
	for _, p := range m.patches {
		out = binary.LittleEndian.AppendUint32(out, uint32(p.id))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(p.weights)))
		for _, w := range p.weights {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(w))
		}
	}

	out = binary.LittleEndian.AppendUint32(out, uint32(len(m.extra)))
	out = append(out, m.extra...)
	return out
}

// decodeIndexMeta parses encodeIndexMeta output.
func decodeIndexMeta(b []byte) (*indexMeta, error) {
	r := updReader{b: b}
	magic := string(r.bytes(len(indexMetaMagic)))
	if magic != indexMetaMagic && magic != indexMetaMagicV2 {
		return nil, fmt.Errorf("%w: bad magic", ErrCorruptMeta)
	}
	hasBound := magic == indexMetaMagicV2
	m := &indexMeta{cellDir: make(map[uint32][]termEntry)}
	m.bounds.MinX = math.Float64frombits(r.u64())
	m.bounds.MinY = math.Float64frombits(r.u64())
	m.bounds.MaxX = math.Float64frombits(r.u64())
	m.bounds.MaxY = math.Float64frombits(r.u64())
	m.cellSize = math.Float64frombits(r.u64())
	m.nx = int(r.u32())
	m.ny = int(r.u32())
	m.baseObjects = int(r.u32())
	if r.err != nil {
		return nil, fmt.Errorf("%w: short geometry", ErrCorruptMeta)
	}

	const maxCount = 1 << 28 // sanity bound against torn-garbage lengths
	ncells := r.u32()
	if ncells > maxCount {
		return nil, fmt.Errorf("%w: implausible cell count", ErrCorruptMeta)
	}
	for i := uint32(0); i < ncells && r.err == nil; i++ {
		cell := r.u32()
		nterms := r.u32()
		if nterms > maxCount {
			return nil, fmt.Errorf("%w: implausible term count", ErrCorruptMeta)
		}
		dir := make([]termEntry, 0, nterms)
		for j := uint32(0); j < nterms; j++ {
			dir = append(dir, termEntry{term: textindex.TermID(r.u32()), count: int32(r.u32())})
			if hasBound {
				r.u64() // the V2 weight bound, unused
			}
		}
		m.cellDir[cell] = dir
	}

	ntail := r.u32()
	if ntail > maxCount {
		return nil, fmt.Errorf("%w: implausible tail count", ErrCorruptMeta)
	}
	for i := uint32(0); i < ntail && r.err == nil; i++ {
		var to tailObject
		to.id = ObjectID(r.u32())
		to.point.X = math.Float64frombits(r.u64())
		to.point.Y = math.Float64frombits(r.u64())
		nterms := r.u32()
		if nterms > maxCount {
			return nil, fmt.Errorf("%w: implausible tail terms", ErrCorruptMeta)
		}
		to.terms = make([]textindex.TermID, 0, nterms)
		to.weights = make([]float64, 0, nterms)
		to.tf = make([]int32, 0, nterms)
		for j := uint32(0); j < nterms; j++ {
			to.terms = append(to.terms, textindex.TermID(r.u32()))
			to.weights = append(to.weights, math.Float64frombits(r.u64()))
			to.tf = append(to.tf, int32(r.u32()))
		}
		m.tail = append(m.tail, to)
	}

	ntomb := r.u32()
	if ntomb > maxCount {
		return nil, fmt.Errorf("%w: implausible tombstone count", ErrCorruptMeta)
	}
	for i := uint32(0); i < ntomb && r.err == nil; i++ {
		m.tombstones = append(m.tombstones, ObjectID(r.u32()))
	}

	npatch := r.u32()
	if npatch > maxCount {
		return nil, fmt.Errorf("%w: implausible patch count", ErrCorruptMeta)
	}
	for i := uint32(0); i < npatch && r.err == nil; i++ {
		var p docPatch
		p.id = ObjectID(r.u32())
		nw := r.u32()
		if nw > maxCount {
			return nil, fmt.Errorf("%w: implausible patch weights", ErrCorruptMeta)
		}
		p.weights = make([]float64, 0, nw)
		for j := uint32(0); j < nw; j++ {
			p.weights = append(p.weights, math.Float64frombits(r.u64()))
		}
		m.patches = append(m.patches, p)
	}

	nextra := r.u32()
	if nextra > maxCount {
		return nil, fmt.Errorf("%w: implausible extra length", ErrCorruptMeta)
	}
	m.extra = append([]byte(nil), r.bytes(int(nextra))...)
	if r.err != nil {
		return nil, fmt.Errorf("%w: short body", ErrCorruptMeta)
	}
	if r.off != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptMeta, len(b)-r.off)
	}
	return m, nil
}
