package textindex

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// PrepareQuery is the reference PrepareQueryInto is compared against: a
// fresh Query per call, duplicates collapsed through a map.
func (v *Vocabulary) PrepareQuery(keywords []string) Query {
	seen := make(map[TermID]bool, len(keywords))
	var q Query
	for _, kw := range keywords {
		id := v.Lookup(kw)
		if id < 0 || seen[id] {
			continue
		}
		seen[id] = true
		q.Terms = append(q.Terms, id)
	}
	sort.Slice(q.Terms, func(i, j int) bool { return q.Terms[i] < q.Terms[j] })
	var norm2 float64
	q.IDF = make([]float64, len(q.Terms))
	for i, t := range q.Terms {
		q.IDF[i] = v.IDF(t)
		norm2 += q.IDF[i] * q.IDF[i]
	}
	q.Norm = math.Sqrt(norm2)
	return q
}

// scratchCorpus indexes a small vocabulary with skewed document
// frequencies so IDF weights differ across terms.
func scratchCorpus(t testing.TB) (*Vocabulary, []string) {
	t.Helper()
	v := NewVocabulary()
	words := make([]string, 12)
	for i := range words {
		words[i] = fmt.Sprintf("w%02d", i)
	}
	rng := rand.New(rand.NewSource(3))
	for d := 0; d < 200; d++ {
		var toks []string
		for i, w := range words {
			// word i appears in ~1/(i+1) of documents: w00 hot, w11 rare.
			if rng.Intn(i+1) == 0 {
				toks = append(toks, w)
			}
		}
		v.IndexDoc(toks)
	}
	return v, words
}

// TestPrepareQueryIntoMatchesPrepareQuery is the golden comparison:
// PrepareQueryInto must return exactly what the reference PrepareQuery
// does — same terms, bit-identical IDF weights and norm — for keyword sets
// with duplicates and unknown words, across many reuses of one scratch.
func TestPrepareQueryIntoMatchesPrepareQuery(t *testing.T) {
	v, words := scratchCorpus(t)
	rng := rand.New(rand.NewSource(8))
	var scratch QueryScratch
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(6)
		kws := make([]string, 0, n+2)
		for i := 0; i < n; i++ {
			kws = append(kws, words[rng.Intn(len(words))])
		}
		if rng.Intn(2) == 0 {
			kws = append(kws, "unknownword")
		}
		if n > 0 && rng.Intn(2) == 0 {
			kws = append(kws, kws[0]) // force a duplicate
		}
		want := v.PrepareQuery(kws)
		got := v.PrepareQueryInto(kws, &scratch)
		if len(got.Terms) != len(want.Terms) || got.Norm != want.Norm {
			t.Fatalf("trial %d %v: got %d terms norm %v, want %d terms norm %v",
				trial, kws, len(got.Terms), got.Norm, len(want.Terms), want.Norm)
		}
		for i := range want.Terms {
			if got.Terms[i] != want.Terms[i] || got.IDF[i] != want.IDF[i] {
				t.Fatalf("trial %d %v term %d: got (%d, %v), want (%d, %v)",
					trial, kws, i, got.Terms[i], got.IDF[i], want.Terms[i], want.IDF[i])
			}
		}
	}
}

// TestPrepareQueryIntoAliasing documents the ownership contract: a second
// call on the same scratch invalidates the first result.
func TestPrepareQueryIntoAliasing(t *testing.T) {
	v, words := scratchCorpus(t)
	var scratch QueryScratch
	first := v.PrepareQueryInto([]string{words[0], words[1]}, &scratch)
	if len(first.Terms) != 2 {
		t.Fatalf("first query has %d terms", len(first.Terms))
	}
	v.PrepareQueryInto([]string{words[5]}, &scratch)
	if first.Terms[0] != v.Lookup(words[5]) {
		t.Fatalf("expected scratch reuse to overwrite the first result's terms")
	}
}

func BenchmarkPrepareQueryInto(b *testing.B) {
	v, words := scratchCorpus(b)
	kws := []string{words[0], words[3], words[7]}
	var scratch QueryScratch
	v.PrepareQueryInto(kws, &scratch) // warm the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if q := v.PrepareQueryInto(kws, &scratch); len(q.Terms) != 3 {
			b.Fatal("bad query")
		}
	}
}
