package fingerprint

import (
	"math"
	"testing"
	"testing/quick"

	"busprobe/internal/cellular"
	"busprobe/internal/stats"
	"busprobe/internal/transit"
)

// fp builds a fingerprint from ints.
func fp(ids ...int) cellular.Fingerprint {
	out := make(cellular.Fingerprint, len(ids))
	for i, v := range ids {
		out[i] = cellular.CellID(v)
	}
	return out
}

func TestTableIExample(t *testing.T) {
	// The paper's Table I: c_upload = {1,2,3,4,5}, c_database = {1,7,3,5}
	// scores 2.4 from 3 matches, 1 gap, 1 mismatch at penalty 0.3.
	sc := DefaultScoring()
	got := Similarity(fp(1, 2, 3, 4, 5), fp(1, 7, 3, 5), sc)
	if math.Abs(got-2.4) > 1e-9 {
		t.Fatalf("score = %v, want 2.4", got)
	}
	al := Align(fp(1, 2, 3, 4, 5), fp(1, 7, 3, 5), sc)
	if math.Abs(al.Score-2.4) > 1e-9 {
		t.Errorf("align score = %v", al.Score)
	}
	if al.Matches != 3 || al.Mismatches != 1 || al.Gaps != 1 {
		t.Errorf("composition = %+v, want 3 match / 1 mismatch / 1 gap", al)
	}
}

func TestIdenticalSequencesScoreLength(t *testing.T) {
	sc := DefaultScoring()
	a := fp(10, 20, 30, 40, 50, 60)
	if got := Similarity(a, a, sc); math.Abs(got-6) > 1e-9 {
		t.Errorf("self score = %v, want 6", got)
	}
}

func TestDisjointSequencesScoreZero(t *testing.T) {
	sc := DefaultScoring()
	if got := Similarity(fp(1, 2, 3), fp(4, 5, 6), sc); got != 0 {
		t.Errorf("disjoint score = %v, want 0", got)
	}
}

func TestEmptyInputs(t *testing.T) {
	sc := DefaultScoring()
	if Similarity(nil, fp(1, 2), sc) != 0 || Similarity(fp(1), nil, sc) != 0 {
		t.Error("empty input should score 0")
	}
	if al := Align(nil, nil, sc); al != (Alignment{}) {
		t.Error("empty Align should be zero")
	}
}

func TestSimilaritySymmetric(t *testing.T) {
	sc := DefaultScoring()
	f := func(av, bv []uint8) bool {
		a := make(cellular.Fingerprint, 0, len(av)%8)
		for _, v := range av[:len(av)%8] {
			a = append(a, cellular.CellID(v%10))
		}
		b := make(cellular.Fingerprint, 0, len(bv)%8)
		for _, v := range bv[:len(bv)%8] {
			b = append(b, cellular.CellID(v%10))
		}
		return math.Abs(Similarity(a, b, sc)-Similarity(b, a, sc)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSimilarityBoundsProperty(t *testing.T) {
	// 0 <= score <= Match * min(len(a), len(b)).
	sc := DefaultScoring()
	rng := stats.NewRNG(7)
	for trial := 0; trial < 500; trial++ {
		a := make(cellular.Fingerprint, rng.Intn(9))
		b := make(cellular.Fingerprint, rng.Intn(9))
		for i := range a {
			a[i] = cellular.CellID(rng.Intn(12))
		}
		for i := range b {
			b[i] = cellular.CellID(rng.Intn(12))
		}
		s := Similarity(a, b, sc)
		maxLen := len(a)
		if len(b) < maxLen {
			maxLen = len(b)
		}
		if s < 0 || s > sc.Match*float64(maxLen)+1e-9 {
			t.Fatalf("score %v out of bounds for %v vs %v", s, a, b)
		}
	}
}

func TestAlignScoreMatchesSimilarity(t *testing.T) {
	sc := DefaultScoring()
	rng := stats.NewRNG(8)
	for trial := 0; trial < 300; trial++ {
		a := make(cellular.Fingerprint, 1+rng.Intn(8))
		b := make(cellular.Fingerprint, 1+rng.Intn(8))
		for i := range a {
			a[i] = cellular.CellID(rng.Intn(10))
		}
		for i := range b {
			b[i] = cellular.CellID(rng.Intn(10))
		}
		s := Similarity(a, b, sc)
		al := Align(a, b, sc)
		if math.Abs(s-al.Score) > 1e-9 {
			t.Fatalf("Similarity %v != Align.Score %v for %v vs %v", s, al.Score, a, b)
		}
		// Composition must reproduce the score.
		recomputed := sc.Match*float64(al.Matches) -
			sc.Mismatch*float64(al.Mismatches) - sc.Gap*float64(al.Gaps)
		if math.Abs(recomputed-al.Score) > 1e-9 {
			t.Fatalf("composition %+v does not reproduce score %v", al, al.Score)
		}
	}
}

func TestPrefixScoreMonotoneInSharedPrefix(t *testing.T) {
	// Growing the shared prefix never lowers the score.
	sc := DefaultScoring()
	base := fp(1, 2, 3, 4, 5, 6, 7)
	prev := -1.0
	for k := 1; k <= len(base); k++ {
		s := Similarity(base[:k], base, sc)
		if s < prev {
			t.Fatalf("score decreased at prefix %d: %v < %v", k, s, prev)
		}
		prev = s
	}
}

func TestPerturbationsStayAboveGamma(t *testing.T) {
	// The realistic scan perturbations — an adjacent-rank swap, a
	// dropped weakest tower, an extra spurious tower — must all keep
	// the score comfortably above the γ = 2 acceptance threshold, which
	// is what makes same-stop matching robust (Fig. 2(b)).
	sc := DefaultScoring()
	ref := fp(1, 2, 3, 4, 5)
	cases := map[string]cellular.Fingerprint{
		"swap":    fp(1, 3, 2, 4, 5),
		"missing": fp(1, 2, 3, 4),
		"extra":   fp(1, 2, 3, 4, 5, 99),
		"both":    fp(2, 1, 3, 5, 99),
	}
	for name, sample := range cases {
		if s := Similarity(sample, ref, sc); s < DefaultGamma {
			t.Errorf("%s: score %v below gamma", name, s)
		}
	}
}

func TestScoringValidate(t *testing.T) {
	good := DefaultScoring()
	if err := good.Validate(); err != nil {
		t.Errorf("default scoring rejected: %v", err)
	}
	for _, bad := range []Scoring{
		{Match: 0, Mismatch: 0.3, Gap: 0.3},
		{Match: -1, Mismatch: 0.3, Gap: 0.3},
		{Match: 1, Mismatch: -0.3, Gap: 0.3},
		{Match: 1, Mismatch: 0.3, Gap: -0.3},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("scoring %+v accepted", bad)
		}
	}
}

func TestCommonIDs(t *testing.T) {
	if n := CommonIDs(fp(1, 2, 3), fp(3, 2, 9)); n != 2 {
		t.Errorf("common = %d, want 2", n)
	}
	if n := CommonIDs(fp(1, 1, 2), fp(1, 5)); n != 1 {
		t.Errorf("duplicate handling: common = %d, want 1", n)
	}
	if n := CommonIDs(fp(4, 2, 4, 2, 7), fp(2, 2, 4, 9, 4)); n != 2 {
		t.Errorf("duplicates on both sides: common = %d, want 2", n)
	}
	if n := CommonIDs(nil, fp(1)); n != 0 {
		t.Errorf("empty common = %d", n)
	}
}

func BenchmarkSimilarity7x7(b *testing.B) {
	sc := DefaultScoring()
	x := fp(1, 2, 3, 4, 5, 6, 7)
	y := fp(2, 1, 3, 9, 5, 6, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Similarity(x, y, sc)
	}
}

func BenchmarkAlign7x7(b *testing.B) {
	sc := DefaultScoring()
	x := fp(1, 2, 3, 4, 5, 6, 7)
	y := fp(2, 1, 3, 9, 5, 6, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Align(x, y, sc)
	}
}

func TestHotPathDoesNotAllocate(t *testing.T) {
	// Per-sample matching runs for every uploaded scan: alignment, the
	// tie-break count and the best-match selection must stay off the
	// heap for scan-sized fingerprints.
	db := newTestDB(t)
	for s := 0; s < 50; s++ {
		if err := db.Put(transit.StopID(s), fp(s, s+1, s+2, s+3, s+4, s+5)); err != nil {
			t.Fatal(err)
		}
	}
	x := fp(1, 2, 3, 4, 5, 6, 7)
	y := fp(2, 1, 3, 9, 5, 6, 8)
	sample := fp(10, 11, 12, 14, 30)
	sc := DefaultScoring()
	for name, f := range map[string]func(){
		"Similarity": func() { Similarity(x, y, sc) },
		"CommonIDs":  func() { CommonIDs(x, y) },
		"Match":      func() { db.Match(sample) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %v times per call", name, n)
		}
	}
}
