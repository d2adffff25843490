package lab

import (
	"testing"
	"time"

	"busprobe/internal/clock"
)

// TestLatencyRecorderFakeClock drives the recorder with the
// deterministic clock: a frozen Fake plus explicit Advances yields
// exact per-request durations, so the digest is reproducible down to
// the histogram's bucket interpolation — no wall-clock read anywhere
// (the nowallclock analyzer enforces the same discipline statically).
func TestLatencyRecorderFakeClock(t *testing.T) {
	fake := clock.NewFake(time.Unix(1700000000, 0), 0)
	rec := NewLatencyRecorder(fake)
	observe := func(d time.Duration, n int) {
		for i := 0; i < n; i++ {
			start := rec.Start()
			fake.Advance(d)
			rec.Stop(start)
		}
	}
	observe(time.Millisecond, 90)    // bucket (0.0005, 0.001]
	observe(40*time.Millisecond, 9)  // bucket (0.02, 0.05]
	observe(800*time.Millisecond, 1) // bucket (0.5, 1]

	s := rec.Summary()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	wantMean := (90*0.001 + 9*0.040 + 0.800) / 100
	if diff := s.MeanS - wantMean; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("mean = %v, want %v", s.MeanS, wantMean)
	}
	if s.P50S <= 0.0005 || s.P50S > 0.001 {
		t.Errorf("p50 = %v, want in (0.0005, 0.001]", s.P50S)
	}
	if s.P95S <= 0.02 || s.P95S > 0.05 {
		t.Errorf("p95 = %v, want in (0.02, 0.05]", s.P95S)
	}
	// Rank 99 of 100 is exactly the cumulative count through the 40 ms
	// bucket, so the interpolation lands on that bucket's upper bound;
	// only quantiles past 0.99 reach into the 800 ms outlier's bucket.
	if s.P99S <= 0.02 || s.P99S > 0.05 {
		t.Errorf("p99 = %v, want in (0.02, 0.05]", s.P99S)
	}

	// The digest is a pure function of the observations: a second
	// recorder fed the same durations produces identical numbers.
	fake2 := clock.NewFake(time.Unix(1800000000, 0), 0)
	rec2 := NewLatencyRecorder(fake2)
	for _, d := range []time.Duration{time.Millisecond, 40 * time.Millisecond, 800 * time.Millisecond} {
		n := map[time.Duration]int{time.Millisecond: 90, 40 * time.Millisecond: 9, 800 * time.Millisecond: 1}[d]
		for i := 0; i < n; i++ {
			start := rec2.Start()
			fake2.Advance(d)
			rec2.Stop(start)
		}
	}
	if got := rec2.Summary(); got != s {
		t.Errorf("same observations, different digest: %+v vs %+v", got, s)
	}
}
