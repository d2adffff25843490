package fingerprint

import (
	"reflect"
	"slices"
	"testing"

	"busprobe/internal/cellular"
	"busprobe/internal/stats"
	"busprobe/internal/transit"
)

// candidates reads the inverted index membership for a sample: every
// stop with at least one hit, ascending.
func candidates(db *DB, sample cellular.Fingerprint) []transit.StopID {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []transit.StopID
	for _, cd := range db.candidateStopsLocked(nil, sample, 1) {
		out = append(out, cd.stop)
	}
	slices.Sort(out)
	return out
}

func TestCandidateStopsAfterReplace(t *testing.T) {
	db := newTestDB(t)
	if err := db.Put(1, fp(10, 20, 30)); err != nil {
		t.Fatal(err)
	}
	if err := db.Put(2, fp(20, 40)); err != nil {
		t.Fatal(err)
	}
	if got := candidates(db, fp(20)); !reflect.DeepEqual(got, []transit.StopID{1, 2}) {
		t.Fatalf("candidates(20) = %v, want [1 2]", got)
	}

	// Replace stop 1 with a partially overlapping fingerprint: cell 10
	// must forget it, cell 20 must keep it exactly once, cell 99 must
	// learn it.
	if err := db.Put(1, fp(20, 99)); err != nil {
		t.Fatal(err)
	}
	if got := candidates(db, fp(10)); len(got) != 0 {
		t.Errorf("candidates(10) = %v after replace, want none", got)
	}
	if got := candidates(db, fp(20, 20, 20)); !reflect.DeepEqual(got, []transit.StopID{1, 2}) {
		t.Errorf("candidates(20 x3) = %v, want deduped [1 2]", got)
	}
	if got := candidates(db, fp(99)); !reflect.DeepEqual(got, []transit.StopID{1}) {
		t.Errorf("candidates(99) = %v, want [1]", got)
	}
}

func TestCandidateStopsAfterRemoveCycles(t *testing.T) {
	db := newTestDB(t)
	// Churn one stop through put/replace/delete cycles while a stable
	// neighbour shares its cells; the index must never leak stale stops
	// or lose live ones.
	if err := db.Put(7, fp(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 5; cycle++ {
		if err := db.Put(8, fp(2, 3, 4)); err != nil {
			t.Fatal(err)
		}
		if got := candidates(db, fp(2)); !reflect.DeepEqual(got, []transit.StopID{7, 8}) {
			t.Fatalf("cycle %d: candidates(2) = %v, want [7 8]", cycle, got)
		}
		if err := db.Put(8, fp(4, 5)); err != nil { // replace away from 2,3
			t.Fatal(err)
		}
		if got := candidates(db, fp(2, 3)); !reflect.DeepEqual(got, []transit.StopID{7}) {
			t.Fatalf("cycle %d: candidates(2,3) = %v after replace, want [7]", cycle, got)
		}
		if !db.Delete(8) {
			t.Fatalf("cycle %d: delete failed", cycle)
		}
		if got := candidates(db, fp(4, 5)); len(got) != 0 {
			t.Fatalf("cycle %d: candidates(4,5) = %v after delete, want none", cycle, got)
		}
	}
	// The stable stop survives all the churn.
	if got := candidates(db, fp(1, 2, 3)); !reflect.DeepEqual(got, []transit.StopID{7}) {
		t.Errorf("candidates(1,2,3) = %v, want [7]", got)
	}
	// Interior index state: no cell may list a deleted stop.
	db.mu.RLock()
	for c, stops := range db.index {
		for _, s := range stops {
			if _, ok := db.entries[s]; !ok {
				t.Errorf("index[%d] lists deleted stop %d", c, s)
			}
		}
	}
	db.mu.RUnlock()
}

func TestMatchAllIndexedEqualsScanProperty(t *testing.T) {
	// Property: on the SAME database (same γ), the indexed path — with
	// its Match × hits pruning — and the exhaustive scan return
	// identical matches for random samples, including after replace and
	// delete churn. The sweep covers Match rewards other than 1, γ
	// values between and beyond whole hit counts, duplicate cell IDs
	// on both sides (drawn from a narrow cell range), and fingerprints
	// longer than Similarity's stack bound.
	rng := stats.NewRNG(4242)
	scorings := []Scoring{
		DefaultScoring(),
		{Match: 0.5, Mismatch: 0.3, Gap: 0.3},
		{Match: 1.5, Mismatch: 0.3, Gap: 0.3},
		{Match: 1.5, Mismatch: 0, Gap: 0},
	}
	gammas := []float64{DefaultGamma, 0.7, 1, 2.5, 3.2}
	randFP := func(cells int) cellular.Fingerprint {
		n := 3 + rng.Intn(6)
		if rng.Bool(0.1) {
			n = stackFPLen + 1 + rng.Intn(8)
		}
		out := make(cellular.Fingerprint, n)
		for i := range out {
			out[i] = cellular.CellID(rng.Intn(cells))
		}
		return out
	}
	for trial := 0; trial < 200; trial++ {
		sc := scorings[trial%len(scorings)]
		gamma := gammas[(trial/len(scorings))%len(gammas)]
		cells := 80
		if trial%3 == 0 {
			cells = 8 // dense duplicates within and across fingerprints
		}
		db, err := NewDB(sc, gamma)
		if err != nil {
			t.Fatal(err)
		}
		nStops := 5 + rng.Intn(40)
		for s := 0; s < nStops; s++ {
			if err := db.Put(transit.StopID(s), randFP(cells)); err != nil {
				t.Fatal(err)
			}
		}
		// Churn: replace a few entries, delete a few.
		for k := 0; k < nStops/4; k++ {
			s := transit.StopID(rng.Intn(nStops))
			if rng.Bool(0.5) {
				if err := db.Put(s, randFP(cells)); err != nil {
					t.Fatal(err)
				}
			} else {
				db.Delete(s)
			}
		}
		for q := 0; q < 25; q++ {
			sample := randFP(cells)
			got := db.MatchAll(sample)
			want := db.matchAllScan(sample)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (%+v, γ=%v) query %d: indexed %+v != scan %+v", trial, sc, gamma, q, got, want)
			}
			best, ok := db.Match(sample)
			if ok != (len(want) > 0) || (ok && best != want[0]) {
				t.Fatalf("trial %d query %d: Match = %+v/%v, want first of %+v", trial, q, best, ok, want)
			}
		}
	}
}
