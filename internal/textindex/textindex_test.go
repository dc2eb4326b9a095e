package textindex

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInternLookup(t *testing.T) {
	v := NewVocabulary()
	a := v.Intern("cafe")
	b := v.Intern("restaurant")
	if a == b {
		t.Fatal("distinct terms share an id")
	}
	if v.Intern("cafe") != a {
		t.Error("Intern is not idempotent")
	}
	if v.Lookup("cafe") != a || v.Lookup("missing") != -1 {
		t.Error("Lookup wrong")
	}
	if v.Term(a) != "cafe" {
		t.Error("Term round trip failed")
	}
	if v.NumTerms() != 2 {
		t.Errorf("NumTerms = %d, want 2", v.NumTerms())
	}
}

func TestIndexDocStats(t *testing.T) {
	v := NewVocabulary()
	v.IndexDoc([]string{"cafe", "cafe", "bar"})
	v.IndexDoc([]string{"cafe"})
	v.IndexDoc([]string{"pizza"})
	if v.NumDocs() != 3 {
		t.Errorf("|D| = %d, want 3", v.NumDocs())
	}
	if v.DocFreq(v.Lookup("cafe")) != 2 {
		t.Errorf("df(cafe) = %d, want 2 (multiplicity within one doc counts once)", v.DocFreq(v.Lookup("cafe")))
	}
	if v.DocFreq(v.Lookup("bar")) != 1 {
		t.Errorf("df(bar) = %d, want 1", v.DocFreq(v.Lookup("bar")))
	}
	if v.DocFreq(-1) != 0 || v.DocFreq(999) != 0 {
		t.Error("DocFreq out of range should be 0")
	}
}

func TestIDFEquation1(t *testing.T) {
	v := NewVocabulary()
	v.IndexDoc([]string{"a"})
	v.IndexDoc([]string{"a", "b"})
	// |D| = 2, f_a = 2, f_b = 1.
	wantA := math.Log(1 + 2.0/2.0)
	wantB := math.Log(1 + 2.0/1.0)
	if got := v.IDF(v.Lookup("a")); math.Abs(got-wantA) > 1e-12 {
		t.Errorf("IDF(a) = %v, want %v", got, wantA)
	}
	if got := v.IDF(v.Lookup("b")); math.Abs(got-wantB) > 1e-12 {
		t.Errorf("IDF(b) = %v, want %v", got, wantB)
	}
}

func TestDocWeightsNormalized(t *testing.T) {
	v := NewVocabulary()
	d := v.IndexDoc([]string{"x", "x", "x", "y"})
	var norm2 float64
	for _, w := range d.Weights {
		norm2 += w * w
	}
	if math.Abs(norm2-1) > 1e-12 {
		t.Errorf("‖wto‖² = %v, want 1", norm2)
	}
	// tf(x)=3 > tf(y)=1 so weight(x) > weight(y).
	if d.Weight(v.Lookup("x")) <= d.Weight(v.Lookup("y")) {
		t.Error("higher-tf term should have higher normalized weight")
	}
	if d.Weight(v.Intern("unseen")) != 0 {
		t.Error("weight of absent term must be 0")
	}
}

// Cross-check Score against a direct evaluation of Equation (1): the
// factored Equation (2) must give the same number.
func TestScoreMatchesEquation1(t *testing.T) {
	v := NewVocabulary()
	docs := [][]string{
		{"cafe", "italian", "restaurant"},
		{"cafe", "cafe", "espresso"},
		{"museum"},
		{"restaurant", "steak", "bar", "bar"},
	}
	var indexed []Doc
	for _, d := range docs {
		indexed = append(indexed, v.IndexDoc(d))
	}
	q := v.PrepareQuery([]string{"cafe", "restaurant"})

	// Direct Equation (1) evaluation.
	direct := func(tokens []string) float64 {
		tf := map[string]int{}
		for _, tok := range tokens {
			tf[tok]++
		}
		var wq, wo map[string]float64
		wq = map[string]float64{}
		for _, kw := range []string{"cafe", "restaurant"} {
			ft := v.DocFreq(v.Lookup(kw))
			if ft > 0 {
				wq[kw] = math.Log(1 + float64(v.NumDocs())/float64(ft))
			}
		}
		wo = map[string]float64{}
		for tok, f := range tf {
			wo[tok] = 1 + math.Log(float64(f))
		}
		var wQ, wO float64
		for _, w := range wq {
			wQ += w * w
		}
		for _, w := range wo {
			wO += w * w
		}
		wQ, wO = math.Sqrt(wQ), math.Sqrt(wO)
		var sum float64
		for tok := range wq {
			if _, ok := tf[tok]; ok {
				sum += wq[tok] * wo[tok]
			}
		}
		if wQ == 0 || wO == 0 {
			return 0
		}
		return sum / (wQ * wO)
	}

	for i, d := range docs {
		want := direct(d)
		got := q.Score(&indexed[i])
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("doc %d: Score = %v, direct Eq.(1) = %v", i, got, want)
		}
	}
}

func TestScoreProperties(t *testing.T) {
	v := NewVocabulary()
	var ds []Doc
	vocab := []string{"a", "b", "c", "d", "e", "f"}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 50; i++ {
		n := 1 + rng.Intn(4)
		toks := make([]string, n)
		for j := range toks {
			toks[j] = vocab[rng.Intn(len(vocab))]
		}
		ds = append(ds, v.IndexDoc(toks))
	}
	f := func(qa, qb uint8) bool {
		q := v.PrepareQuery([]string{vocab[int(qa)%len(vocab)], vocab[int(qb)%len(vocab)]})
		for i := range ds {
			s := q.Score(&ds[i])
			if s < 0 || s > 1+1e-9 || math.IsNaN(s) {
				return false // cosine similarity must be in [0,1]
			}
			// Score is zero iff no query term occurs in the doc.
			any := false
			for _, t := range q.Terms {
				if ds[i].Weight(t) > 0 {
					any = true
				}
			}
			if any != (s > 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPrepareQueryDedupAndUnknown(t *testing.T) {
	v := NewVocabulary()
	v.IndexDoc([]string{"cafe"})
	var s1, s2 QueryScratch
	q := v.PrepareQueryInto([]string{"cafe", "cafe", "neverseen"}, &s1)
	if len(q.Terms) != 1 {
		t.Fatalf("query terms = %d, want 1", len(q.Terms))
	}
	if q.Norm <= 0 {
		t.Error("norm must be positive for a known keyword")
	}
	empty := v.PrepareQueryInto([]string{"neverseen"}, &s2)
	if len(empty.Terms) != 0 || empty.Norm != 0 {
		t.Error("all-unknown query should be empty")
	}
	d := v.IndexDoc([]string{"cafe"})
	if empty.Score(&d) != 0 {
		t.Error("empty query must score 0")
	}
}

func TestEmptyDoc(t *testing.T) {
	v := NewVocabulary()
	d := v.IndexDoc(nil)
	if len(d.Terms) != 0 {
		t.Error("nil tokens should make empty doc")
	}
	if v.NumDocs() != 1 {
		t.Error("empty doc must still count toward |D|")
	}
	d2 := v.IndexDoc([]string{""})
	if len(d2.Terms) != 0 {
		t.Error("empty-string token should be skipped")
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Joe's Pizza & Café-25, NY!")
	want := []string{"joe", "s", "pizza", "caf", "25", "ny"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Tokenize = %v, want %v", got, want)
		}
	}
}

func TestHigherDFLowersScore(t *testing.T) {
	// The rarer keyword should dominate a mixed query: classic IDF sanity.
	v := NewVocabulary()
	for i := 0; i < 99; i++ {
		v.IndexDoc([]string{"common"})
	}
	v.IndexDoc([]string{"rare"})
	dCommon := v.IndexDoc([]string{"common"})
	dRare := v.IndexDoc([]string{"rare"})
	q := v.PrepareQuery([]string{"common", "rare"})
	if q.Score(&dRare) <= q.Score(&dCommon) {
		t.Errorf("rare-term doc scored %v, common-term doc %v; want rare > common",
			q.Score(&dRare), q.Score(&dCommon))
	}
}

func TestCollectionStats(t *testing.T) {
	v := NewVocabulary()
	v.IndexDoc([]string{"a", "a", "b"})
	v.IndexDoc([]string{"a"})
	if v.TotalTokens() != 4 {
		t.Errorf("total tokens = %d, want 4", v.TotalTokens())
	}
	if v.CollectionFreq(v.Lookup("a")) != 3 || v.CollectionFreq(v.Lookup("b")) != 1 {
		t.Error("collection frequencies wrong")
	}
	if v.CollectionFreq(-1) != 0 || v.CollectionFreq(99) != 0 {
		t.Error("out-of-range cf should be 0")
	}
}

func TestLMQueryScore(t *testing.T) {
	v := NewVocabulary()
	for i := 0; i < 50; i++ {
		v.IndexDoc([]string{"common"})
	}
	v.IndexDoc([]string{"rare"})
	dCommon := v.IndexDoc([]string{"common"})
	dRare := v.IndexDoc([]string{"rare"})
	dNone := v.IndexDoc([]string{"other"})
	q := v.PrepareLMQuery([]string{"common", "rare"}, 100)
	if got := q.Score(&dNone); got != 0 {
		t.Errorf("no-match LM score = %v, want 0", got)
	}
	sc, sr := q.Score(&dCommon), q.Score(&dRare)
	if sc <= 0 || sr <= 0 {
		t.Fatalf("matching docs must score positive: %v, %v", sc, sr)
	}
	// The rare term has lower P(t|C), hence a larger boost.
	if sr <= sc {
		t.Errorf("rare-term doc %v should outscore common-term doc %v", sr, sc)
	}
}

func TestLMQueryTFMonotone(t *testing.T) {
	v := NewVocabulary()
	for i := 0; i < 20; i++ {
		v.IndexDoc([]string{"x", "filler"})
	}
	d1 := v.IndexDoc([]string{"x"})
	d3 := v.IndexDoc([]string{"x", "x", "x"})
	q := v.PrepareLMQuery([]string{"x"}, 0) // default µ
	if q.Score(&d3) <= q.Score(&d1) {
		t.Errorf("higher tf must score higher: tf3=%v tf1=%v", q.Score(&d3), q.Score(&d1))
	}
}

func TestLMQueryUnknownKeywords(t *testing.T) {
	v := NewVocabulary()
	v.IndexDoc([]string{"a"})
	q := v.PrepareLMQuery([]string{"never", "never2"}, 0)
	if len(q.Terms) != 0 {
		t.Error("unknown keywords must be dropped")
	}
	d := v.IndexDoc([]string{"a"})
	if q.Score(&d) != 0 {
		t.Error("empty LM query must score 0")
	}
}
