package traffic

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"busprobe/internal/road"
	"busprobe/internal/stats"
)

func TestATTKnownValues(t *testing.T) {
	m := DefaultModel()
	// 500 m at 50 km/h free flow: a = 36 s. BTT 80 s -> ATT 76 s.
	att, err := m.ATTSeconds(500, 50, 80)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(att-76) > 1e-9 {
		t.Errorf("ATT = %v, want 76", att)
	}
	v, err := m.SpeedKmh(500, 50, 80)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-500.0/76*3.6) > 1e-9 {
		t.Errorf("speed = %v", v)
	}
}

func TestModelErrors(t *testing.T) {
	m := DefaultModel()
	if _, err := m.ATTSeconds(0, 50, 10); err == nil {
		t.Error("want error for zero length")
	}
	if _, err := m.ATTSeconds(500, 0, 10); err == nil {
		t.Error("want error for zero free speed")
	}
	if _, err := m.ATTSeconds(500, 50, 0); err == nil {
		t.Error("want error for zero BTT")
	}
	if err := (Model{B: 0}).Validate(); err == nil {
		t.Error("want error for zero B")
	}
}

func TestATTMonotoneInBTT(t *testing.T) {
	m := DefaultModel()
	prev := 0.0
	for btt := 10.0; btt <= 600; btt += 10 {
		att, err := m.ATTSeconds(500, 50, btt)
		if err != nil {
			t.Fatal(err)
		}
		if att <= prev {
			t.Fatalf("ATT not increasing at BTT=%v", btt)
		}
		prev = att
	}
}

func TestFuseMovesTowardObservation(t *testing.T) {
	hist := Estimate{SpeedKmh: 40, Var: 9, Reports: 3}
	out := Fuse(hist, 20, 9)
	if math.Abs(out.SpeedKmh-30) > 1e-9 {
		t.Errorf("equal variances should average: %v", out.SpeedKmh)
	}
	if out.Var >= 9 {
		t.Errorf("variance should contract: %v", out.Var)
	}
	if out.Reports != 4 {
		t.Errorf("reports = %d", out.Reports)
	}
}

func TestFuseWeightsByPrecision(t *testing.T) {
	hist := Estimate{SpeedKmh: 40, Var: 1, Reports: 5} // confident prior
	out := Fuse(hist, 20, 100)                         // noisy observation
	if math.Abs(out.SpeedKmh-40) > 1 {
		t.Errorf("noisy observation moved confident prior to %v", out.SpeedKmh)
	}
	flip := Fuse(Estimate{SpeedKmh: 40, Var: 100, Reports: 5}, 20, 1)
	if math.Abs(flip.SpeedKmh-20) > 1 {
		t.Errorf("confident observation ignored: %v", flip.SpeedKmh)
	}
}

func TestFuseNoPriorAdoptsObservation(t *testing.T) {
	out := Fuse(Estimate{}, 33, 4)
	if out.SpeedKmh != 33 || out.Var != 4 || out.Reports != 1 {
		t.Errorf("no-prior fuse = %+v", out)
	}
}

func TestFuseVarianceContractsProperty(t *testing.T) {
	f := func(v1, v2, s1, s2 float64) bool {
		if math.IsNaN(v1) || math.IsNaN(v2) || math.IsNaN(s1) || math.IsNaN(s2) {
			return true
		}
		h2 := math.Mod(math.Abs(v1), 1000) + 0.1
		s2v := math.Mod(math.Abs(v2), 1000) + 0.1
		hist := Estimate{SpeedKmh: 30 + math.Mod(s1, 40), Var: h2, Reports: 1}
		out := Fuse(hist, 30+math.Mod(s2, 40), s2v)
		return out.Var <= math.Min(h2, s2v)+1e-9 && out.Var > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLevelOf(t *testing.T) {
	cases := []struct {
		v    float64
		want Level
	}{
		{5, LevelVerySlow}, {19.9, LevelVerySlow}, {20, LevelSlow},
		{29, LevelSlow}, {35, LevelNormal}, {45, LevelFast},
		{50, LevelVeryFast}, {80, LevelVeryFast},
	}
	for _, c := range cases {
		if got := LevelOf(c.v); got != c.want {
			t.Errorf("LevelOf(%v) = %v, want %v", c.v, got, c.want)
		}
	}
	if LevelVerySlow.String() != "very slow" || Level(9).String() != "level(9)" {
		t.Error("Level strings wrong")
	}
}

func TestFitBRecoversCoefficient(t *testing.T) {
	rng := stats.NewRNG(5)
	const lengthM, freeKmh, trueB = 500.0, 50.0, 0.55
	a := lengthM / (freeKmh / 3.6)
	var btt, att []float64
	for i := 0; i < 500; i++ {
		b := rng.Range(40, 200)
		btt = append(btt, b)
		att = append(att, a+trueB*b+rng.Norm(0, 3))
	}
	got, err := FitB(lengthM, freeKmh, btt, att)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-trueB) > 0.03 {
		t.Errorf("fit b = %v, want ~%v", got, trueB)
	}
}

func TestFitBErrors(t *testing.T) {
	if _, err := FitB(500, 50, []float64{1}, []float64{1}); err == nil {
		t.Error("want error for single point")
	}
	if _, err := FitB(500, 50, []float64{1, 2}, []float64{1}); err == nil {
		t.Error("want error for mismatched lengths")
	}
	if _, err := FitB(0, 50, []float64{1, 2}, []float64{1, 2}); err == nil {
		t.Error("want error for zero length")
	}
	if _, err := FitB(500, 50, []float64{0, 0}, []float64{1, 2}); err == nil {
		t.Error("want error for degenerate BTT")
	}
}

func newEstimator(t *testing.T) *Estimator {
	t.Helper()
	e, err := NewEstimator(DefaultModel(), DefaultPeriodS, DefaultDriftVarPerS)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// addOne feeds a single observation as a one-element batch.
func addOne(e *Estimator, o Observation) error {
	_, err := e.AddObservations([]Observation{o})
	return err
}

func obs(segs []road.SegmentID, btt, at float64) Observation {
	return Observation{
		Segments:   segs,
		LengthM:    500,
		FreeKmh:    50,
		BTTSeconds: btt,
		TimeS:      at,
	}
}

func TestEstimatorValidation(t *testing.T) {
	if _, err := NewEstimator(Model{B: 0}, 300, 0); err == nil {
		t.Error("want error for bad model")
	}
	if _, err := NewEstimator(DefaultModel(), 0, 0); err == nil {
		t.Error("want error for zero period")
	}
	if _, err := NewEstimator(DefaultModel(), 300, -1); err == nil {
		t.Error("want error for negative drift")
	}
	e := newEstimator(t)
	if err := addOne(e, Observation{}); err == nil {
		t.Error("want error for empty observation")
	}
	if err := addOne(e, obs([]road.SegmentID{1}, 0, 10)); err == nil {
		t.Error("want error for zero BTT")
	}
}

func TestEstimatorFoldsAtPeriod(t *testing.T) {
	e := newEstimator(t)
	if err := addOne(e, obs([]road.SegmentID{1, 2}, 80, 100)); err != nil {
		t.Fatal(err)
	}
	// Before the first period boundary: nothing folded yet.
	if _, ok := e.Get(1); ok {
		t.Error("estimate visible before fold")
	}
	e.Advance(DefaultPeriodS)
	est, ok := e.Get(1)
	if !ok {
		t.Fatal("estimate missing after fold")
	}
	wantSpeed := 500.0 / 76 * 3.6
	if math.Abs(est.SpeedKmh-wantSpeed) > 1e-9 {
		t.Errorf("speed = %v, want %v", est.SpeedKmh, wantSpeed)
	}
	if est.UpdatedS != DefaultPeriodS {
		t.Errorf("UpdatedS = %v", est.UpdatedS)
	}
	if _, ok := e.Get(2); !ok {
		t.Error("second covered segment missing")
	}
	if _, ok := e.Get(3); ok {
		t.Error("uncovered segment has estimate")
	}
}

func TestEstimatorWindowAveragesThenFuses(t *testing.T) {
	e := newEstimator(t)
	// Two reports in window 1, both on segment 1.
	if err := addOne(e, obs([]road.SegmentID{1}, 60, 10)); err != nil {
		t.Fatal(err)
	}
	if err := addOne(e, obs([]road.SegmentID{1}, 100, 20)); err != nil {
		t.Fatal(err)
	}
	e.Advance(300)
	first, _ := e.Get(1)
	if first.Reports != 1 {
		t.Errorf("window fold should count as one Bayesian update, got %d", first.Reports)
	}
	// A much slower second window pulls the estimate down.
	if err := addOne(e, obs([]road.SegmentID{1}, 400, 310)); err != nil {
		t.Fatal(err)
	}
	e.Advance(600)
	second, _ := e.Get(1)
	if second.Reports != 2 {
		t.Errorf("reports = %d", second.Reports)
	}
	if second.SpeedKmh >= first.SpeedKmh {
		t.Errorf("slow window did not lower estimate: %v -> %v", first.SpeedKmh, second.SpeedKmh)
	}
	if second.Var >= first.Var {
		t.Errorf("variance did not contract: %v -> %v", first.Var, second.Var)
	}
}

func TestEstimatorSnapshotAndCovered(t *testing.T) {
	e := newEstimator(t)
	if err := addOne(e, obs([]road.SegmentID{3, 1}, 80, 10)); err != nil {
		t.Fatal(err)
	}
	e.Advance(300)
	snap := e.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot size = %d", len(snap))
	}
	cov := e.CoveredSegments()
	if len(cov) != 2 || cov[0] != 1 || cov[1] != 3 {
		t.Errorf("covered = %v", cov)
	}
}

func TestEstimatorConcurrent(t *testing.T) {
	e := newEstimator(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sid := road.SegmentID(i % 10)
				if err := addOne(e, obs([]road.SegmentID{sid}, 50+float64(i), float64(i))); err != nil {
					t.Error(err)
					return
				}
				e.Snapshot()
			}
		}(w)
	}
	wg.Wait()
	e.Advance(1e6)
	if len(e.Snapshot()) == 0 {
		t.Error("no estimates after concurrent load")
	}
}

func TestEstimatorLateObservationTriggersFolds(t *testing.T) {
	e := newEstimator(t)
	if err := addOne(e, obs([]road.SegmentID{1}, 80, 10)); err != nil {
		t.Fatal(err)
	}
	// An observation far in the future advances through many periods,
	// folding the pending window on the way.
	if err := addOne(e, obs([]road.SegmentID{1}, 90, 10*DefaultPeriodS+1)); err != nil {
		t.Fatal(err)
	}
	est, ok := e.Get(1)
	if !ok || est.Reports != 1 {
		t.Errorf("first window not folded by implicit advance: %+v ok=%v", est, ok)
	}
}

func TestEstimatorOrderInsensitiveProperty(t *testing.T) {
	// The chaos suite's foundation: the settled map is a pure function
	// of the observation multiset and the final watermark, so any
	// delivery order — including late arrivals behind interleaved
	// Advance calls — folds to identical estimates.
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 5 + rng.Intn(30)
		obsSet := make([]Observation, n)
		for i := range obsSet {
			obsSet[i] = obs(
				[]road.SegmentID{road.SegmentID(rng.Intn(4)), road.SegmentID(4 + rng.Intn(3))},
				rng.Range(40, 400),
				rng.Range(0, 6*DefaultPeriodS),
			)
		}
		endS := 7 * DefaultPeriodS

		serial := newEstimator(t)
		for _, o := range obsSet {
			if err := addOne(serial, o); err != nil {
				return false
			}
		}
		serial.Advance(endS)

		shuffled := newEstimator(t)
		for i, p := range rng.Perm(n) {
			if err := addOne(shuffled, obsSet[p]); err != nil {
				return false
			}
			// Interleave settles: late arrivals must refold cleanly.
			if i%3 == 0 {
				shuffled.Advance(rng.Range(0, endS))
				shuffled.Snapshot()
			}
		}
		shuffled.Advance(endS)

		return reflect.DeepEqual(serial.Snapshot(), shuffled.Snapshot())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimatorOrderInsensitiveBatches(t *testing.T) {
	// Batching is invisible in the settled state: a random observation
	// stream (with invalid observations, windows behind Compact, and
	// Advance calls between batches) fed as random batches folds to the
	// same estimates, late drops and per-batch acceptance counts as the
	// same stream fed one observation per call. Each batched call moves
	// the version by at most one, and only on a visible change.
	var lateDropped, bumps int
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 10 + rng.Intn(60)
		stream := make([]Observation, n)
		for i := range stream {
			o := obs(
				[]road.SegmentID{road.SegmentID(rng.Intn(4)), road.SegmentID(4 + rng.Intn(3))},
				rng.Range(40, 400),
				rng.Range(0, 8*DefaultPeriodS),
			)
			switch rng.Intn(10) {
			case 0:
				o.Segments = nil
			case 1:
				o.BTTSeconds = 0
			case 2:
				o.LengthM = -1
			}
			stream[i] = o
		}
		batched, single := newEstimator(t), newEstimator(t)
		for len(stream) > 0 {
			k := 1 + rng.Intn(8)
			if k > len(stream) {
				k = len(stream)
			}
			batch := stream[:k]
			stream = stream[k:]

			before := batched.View()
			got, _ := batched.AddObservations(batch)
			after := batched.View()
			if d := after.Version - before.Version; d > 1 {
				t.Logf("seed %d: one batch moved the version by %d", seed, d)
				return false
			}
			if after.Version != before.Version {
				bumps++
			}
			// The change marks name exactly the segments that moved.
			var moved []road.SegmentID
			for sid, est := range after.Estimates {
				if old, ok := before.Estimates[sid]; !ok || old != est {
					moved = append(moved, sid)
				}
			}
			slices.Sort(moved)
			if delta, removed := after.DeltaSince(before.Version); !slices.Equal(delta, moved) || len(removed) != 0 {
				t.Logf("seed %d: delta %v / removed %v, want %v moved", seed, delta, removed, moved)
				return false
			}
			if (after.Version != before.Version) == reflect.DeepEqual(after.Estimates, before.Estimates) {
				t.Logf("seed %d: version %d -> %d disagrees with the visible change", seed, before.Version, after.Version)
				return false
			}
			want := 0
			for _, o := range batch {
				acc, err := single.AddObservations([]Observation{o})
				if (acc == 1) != (err == nil) {
					t.Logf("seed %d: accepted %d with err %v", seed, acc, err)
					return false
				}
				want += acc
			}
			if got != want {
				t.Logf("seed %d: batch accepted %d, one-by-one %d", seed, got, want)
				return false
			}
			if !reflect.DeepEqual(batched.View().Estimates, single.View().Estimates) {
				t.Logf("seed %d: estimates diverged after a batch", seed)
				return false
			}
			switch rng.Intn(4) {
			case 0:
				at := rng.Range(0, 9*DefaultPeriodS)
				batched.Advance(at)
				single.Advance(at)
			case 1:
				batched.Compact()
				single.Compact()
			}
		}
		batched.Advance(9 * DefaultPeriodS)
		single.Advance(9 * DefaultPeriodS)
		if batched.LateDropped() != single.LateDropped() {
			t.Logf("seed %d: late dropped %d vs %d", seed, batched.LateDropped(), single.LateDropped())
			return false
		}
		lateDropped += batched.LateDropped()
		return reflect.DeepEqual(batched.Snapshot(), single.Snapshot())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	if lateDropped == 0 || bumps == 0 {
		t.Fatalf("vacuous run: %d late drops, %d version bumps", lateDropped, bumps)
	}
}

func TestEstimatorCompactBoundsStateAndCountsLate(t *testing.T) {
	e := newEstimator(t)
	if err := addOne(e, obs([]road.SegmentID{1}, 80, 10)); err != nil {
		t.Fatal(err)
	}
	e.Advance(DefaultPeriodS)
	before, _ := e.Get(1)
	e.Compact()

	// A report for the compacted window is dropped, not folded.
	if err := addOne(e, obs([]road.SegmentID{1}, 400, 20)); err != nil {
		t.Fatal(err)
	}
	e.Advance(2 * DefaultPeriodS)
	if got := e.LateDropped(); got != 1 {
		t.Errorf("LateDropped = %d, want 1", got)
	}
	after, _ := e.Get(1)
	if after != before {
		t.Errorf("compacted-window report changed the estimate: %+v -> %+v", before, after)
	}

	// Reports for live windows still fold normally after compaction.
	if err := addOne(e, obs([]road.SegmentID{1}, 400, 2*DefaultPeriodS+10)); err != nil {
		t.Fatal(err)
	}
	e.Advance(3 * DefaultPeriodS)
	final, _ := e.Get(1)
	if final.Reports != before.Reports+1 || final.SpeedKmh >= before.SpeedKmh {
		t.Errorf("post-compaction fold missing: %+v -> %+v", before, final)
	}
}

func TestEstimatorCompactionIdempotentWhenTimely(t *testing.T) {
	// Compacting between settles must not change estimates as long as
	// no report arrives later than the compaction point.
	build := func(compact bool) map[road.SegmentID]Estimate {
		e := newEstimator(t)
		for w := 0; w < 4; w++ {
			at := float64(w)*DefaultPeriodS + 10
			if err := addOne(e, obs([]road.SegmentID{1, 2}, 60+20*float64(w), at)); err != nil {
				t.Fatal(err)
			}
			e.Advance(float64(w+1) * DefaultPeriodS)
			if compact {
				e.Compact()
			}
		}
		return e.Snapshot()
	}
	if got, want := build(true), build(false); !reflect.DeepEqual(got, want) {
		t.Errorf("compaction changed timely estimates:\n%v\n%v", got, want)
	}
}
