package textindex

import (
	"reflect"
	"testing"
)

// TestRemoveDocStatsMatchesRebuild: indexing docs A,B then removing B must
// leave the exact statistics of indexing A plus an empty placeholder doc —
// the deleted-object model the differential harness relies on.
func TestRemoveDocStatsMatchesRebuild(t *testing.T) {
	live := NewVocabulary()
	docA := live.IndexDoc([]string{"cafe", "bar", "cafe"})
	docB := live.IndexDoc([]string{"bar", "museum"})
	_ = docA
	live.RemoveDocStats(docB)

	rebuilt := NewVocabulary()
	rebuilt.IndexDoc([]string{"cafe", "bar", "cafe"})
	rebuilt.IndexDoc(nil) // deleted object: counted, empty

	// B's terms must be interned in both (with df possibly 0); intern them
	// in the rebuild the same way the live side did.
	rebuilt.Intern("bar")
	rebuilt.Intern("museum")

	if live.NumDocs() != rebuilt.NumDocs() {
		t.Fatalf("|D|: live %d, rebuilt %d", live.NumDocs(), rebuilt.NumDocs())
	}
	for _, term := range []string{"cafe", "bar", "museum"} {
		li, ri := live.Lookup(term), rebuilt.Lookup(term)
		if live.DocFreq(li) != rebuilt.DocFreq(ri) {
			t.Errorf("df[%s]: live %d, rebuilt %d", term, live.DocFreq(li), rebuilt.DocFreq(ri))
		}
		if live.IDF(li) != rebuilt.IDF(ri) {
			t.Errorf("IDF[%s]: live %v, rebuilt %v", term, live.IDF(li), rebuilt.IDF(ri))
		}
	}
	if live.totalTokens != rebuilt.totalTokens {
		t.Errorf("totalTokens: live %d, rebuilt %d", live.totalTokens, rebuilt.totalTokens)
	}
}

func TestAddDocStatsInvertsRemove(t *testing.T) {
	v := NewVocabulary()
	v.IndexDoc([]string{"a", "b"})
	doc := v.IndexDoc([]string{"b", "c", "c"})
	docsBefore := v.NumDocs()
	dfB, dfC := v.DocFreq(v.Lookup("b")), v.DocFreq(v.Lookup("c"))

	v.RemoveDocStats(doc)
	v.AddDocStats(doc)

	if v.NumDocs() != docsBefore+1 {
		t.Fatalf("|D| = %d, want %d (AddDocStats counts a document)", v.NumDocs(), docsBefore+1)
	}
	if got := v.DocFreq(v.Lookup("b")); got != dfB {
		t.Errorf("df[b] = %d, want %d", got, dfB)
	}
	if got := v.DocFreq(v.Lookup("c")); got != dfC {
		t.Errorf("df[c] = %d, want %d", got, dfC)
	}
}

// TestDocOfLeavesVocabularyUnchanged: DocOf drafts exactly the Doc (and
// term strings) IndexDoc then registers — new terms included — while the
// vocabulary stays untouched until IndexDoc runs.
func TestDocOfLeavesVocabularyUnchanged(t *testing.T) {
	v := NewVocabulary()
	v.IndexDoc([]string{"keep"})
	docs, total, nTerms := v.NumDocs(), v.totalTokens, v.NumTerms()
	tokens := []string{"new", "keep", "", "other", "new"}
	draft, strs := v.DocOf(tokens)
	if v.NumDocs() != docs || v.totalTokens != total || v.NumTerms() != nTerms || v.Lookup("new") >= 0 {
		t.Fatal("DocOf changed the vocabulary")
	}
	if v.DocFreq(v.Lookup("keep")) != 1 {
		t.Fatal("DocOf changed a document frequency")
	}
	want := []string{"keep", "new", "other"} // ascending id: existing term, then first-occurrence order
	if !reflect.DeepEqual(strs, want) {
		t.Fatalf("DocOf strs = %q, want %q", strs, want)
	}
	got := v.IndexDoc(tokens)
	if !reflect.DeepEqual(draft, got) {
		t.Fatalf("DocOf = %+v, IndexDoc = %+v", draft, got)
	}
	for i, s := range strs {
		if v.Lookup(s) != got.Terms[i] {
			t.Fatalf("term %q interned as %d, drafted as %d", s, v.Lookup(s), got.Terms[i])
		}
	}
}

func TestEnsureTerm(t *testing.T) {
	v := NewVocabulary()
	a := v.Intern("a")
	if err := v.EnsureTerm("a", a); err != nil {
		t.Fatalf("EnsureTerm existing: %v", err)
	}
	if err := v.EnsureTerm("b", TermID(v.NumTerms())); err != nil {
		t.Fatalf("EnsureTerm next: %v", err)
	}
	if err := v.EnsureTerm("c", 99); err == nil {
		t.Fatal("EnsureTerm must reject a mismatched id")
	}
}

func TestVocabularySnapshotRoundTrip(t *testing.T) {
	v := NewVocabulary()
	v.IndexDoc([]string{"cafe", "bar", "cafe"})
	v.IndexDoc([]string{"bar", "museum", "park", "park"})
	doc := v.IndexDoc([]string{"museum"})
	v.RemoveDocStats(doc)

	got, err := DecodeVocabulary(v.EncodeSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumDocs() != v.NumDocs() || got.NumTerms() != v.NumTerms() || got.totalTokens != v.totalTokens {
		t.Fatalf("totals differ: got |D|=%d terms=%d tokens=%d", got.NumDocs(), got.NumTerms(), got.totalTokens)
	}
	for id := 0; id < v.NumTerms(); id++ {
		tid := TermID(id)
		if got.Term(tid) != v.Term(tid) || got.DocFreq(tid) != v.DocFreq(tid) || got.cf[tid] != v.cf[tid] {
			t.Fatalf("term %d differs after round trip", id)
		}
		if got.IDF(tid) != v.IDF(tid) {
			t.Fatalf("IDF[%d] differs after round trip", id)
		}
	}
	// Determinism: equal vocabularies, equal bytes.
	if string(v.EncodeSnapshot()) != string(got.EncodeSnapshot()) {
		t.Fatal("snapshot encoding is not deterministic")
	}
}

func TestDecodeVocabularyRejectsCorruption(t *testing.T) {
	v := NewVocabulary()
	v.IndexDoc([]string{"alpha", "beta"})
	good := v.EncodeSnapshot()
	cases := map[string][]byte{
		"bad magic": append([]byte("XXXXXXXX"), good[8:]...),
		"truncated": good[:len(good)-3],
		"trailing":  append(append([]byte(nil), good...), 0xff),
	}
	for name, img := range cases {
		if _, err := DecodeVocabulary(img); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
}
