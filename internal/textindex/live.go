package textindex

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// This file is the vocabulary's live-update and persistence surface: the
// corpus statistics (f_t, cf, |D|, Σcf) must track object inserts and
// deletes exactly, or query-side IDF weights drift away from what a full
// rebuild would compute — the differential harness compares the two
// bit-for-bit. Deletes keep |D| unchanged by design: a rebuild models a
// deleted object as a still-counted document with an empty description
// (IndexDoc with no tokens), which keeps every later ObjectID — and every
// IDF ratio |D|/f_t — identical between the live database and the rebuild.

// RemoveDocStats retracts a previously indexed document's term statistics:
// df and cf drop by the document's contribution and the token total
// shrinks, while |D| stays (see the deleted-object model above). The Doc
// must be the one IndexDoc returned for the object.
func (v *Vocabulary) RemoveDocStats(d Doc) {
	for i, t := range d.Terms {
		v.df[t]--
		v.cf[t] -= d.TF[i]
		v.totalTokens -= int(d.TF[i])
	}
}

// AddDocStats applies a document's term statistics — the statistics side
// of IndexDoc, which a live insert and WAL replay apply on their own
// (terms must already be interned; see EnsureTerm). It raises |D|.
func (v *Vocabulary) AddDocStats(d Doc) {
	for i, t := range d.Terms {
		v.df[t]++
		v.cf[t] += d.TF[i]
		v.totalTokens += int(d.TF[i])
	}
	v.docs++
}

// EnsureTerm interns term and verifies it lands on (or already has) the
// given id. WAL replay carries each inserted term's id alongside its
// string; since ids were assigned in operation order, replaying in
// sequence order reproduces them exactly — any mismatch means the log and
// the vocabulary snapshot disagree, which is corruption, not a state to
// continue from.
func (v *Vocabulary) EnsureTerm(term string, id TermID) error {
	got := v.Intern(term)
	if got != id {
		return fmt.Errorf("textindex: term %q interned as id %d, log says %d", term, got, id)
	}
	return nil
}

// errBadSnapshot marks an unreadable vocabulary snapshot.
var errBadSnapshot = errors.New("textindex: corrupt vocabulary snapshot")

// vocabSnapshotMagic versions the snapshot encoding.
const vocabSnapshotMagic = "LCVOCAB1"

// EncodeSnapshot serializes the vocabulary — terms in id order with their
// df/cf and the corpus totals — so a reopened store can restore exact IDF
// weights without re-deriving them from objects. The encoding is
// deterministic: equal vocabularies produce equal bytes.
func (v *Vocabulary) EncodeSnapshot() []byte {
	size := len(vocabSnapshotMagic) + 8 + 8 + 4
	for _, t := range v.terms {
		size += 2 + len(t) + 4 + 4
	}
	out := make([]byte, 0, size)
	out = append(out, vocabSnapshotMagic...)
	out = binary.LittleEndian.AppendUint64(out, uint64(v.docs))
	out = binary.LittleEndian.AppendUint64(out, uint64(v.totalTokens))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(v.terms)))
	for id, t := range v.terms {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(t)))
		out = append(out, t...)
		out = binary.LittleEndian.AppendUint32(out, uint32(v.df[id]))
		out = binary.LittleEndian.AppendUint32(out, uint32(v.cf[id]))
	}
	return out
}

// DecodeVocabulary rebuilds a vocabulary from EncodeSnapshot output.
func DecodeVocabulary(b []byte) (*Vocabulary, error) {
	r := snapReader{b: b}
	if string(r.bytes(len(vocabSnapshotMagic))) != vocabSnapshotMagic {
		return nil, fmt.Errorf("%w: bad magic", errBadSnapshot)
	}
	docs := r.u64()
	total := r.u64()
	n := r.u32()
	if r.err != nil || n > math.MaxInt32 {
		return nil, fmt.Errorf("%w: header", errBadSnapshot)
	}
	v := NewVocabulary()
	v.docs = int(docs)
	v.totalTokens = int(total)
	v.terms = make([]string, 0, n)
	v.df = make([]int32, 0, n)
	v.cf = make([]int32, 0, n)
	for i := uint32(0); i < n; i++ {
		term := string(r.bytes(int(r.u16())))
		df := r.u32()
		cf := r.u32()
		if r.err != nil {
			return nil, fmt.Errorf("%w: term %d", errBadSnapshot, i)
		}
		if _, dup := v.ids[term]; dup {
			return nil, fmt.Errorf("%w: duplicate term %q", errBadSnapshot, term)
		}
		v.ids[term] = TermID(len(v.terms))
		v.terms = append(v.terms, term)
		v.df = append(v.df, int32(df))
		v.cf = append(v.cf, int32(cf))
	}
	if r.err != nil || len(r.b) != r.off {
		return nil, fmt.Errorf("%w: trailing bytes", errBadSnapshot)
	}
	return v, nil
}

// snapReader is a bounds-checked little-endian cursor; after any short
// read it sticks in the error state and returns zeros.
type snapReader struct {
	b   []byte
	off int
	err error
}

func (r *snapReader) bytes(n int) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		if r.err == nil {
			r.err = errBadSnapshot
		}
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *snapReader) u16() uint16 {
	b := r.bytes(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *snapReader) u32() uint32 {
	b := r.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *snapReader) u64() uint64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}
