package server

import (
	"context"
	"fmt"
	"os"
	"testing"
	"time"

	"busprobe/internal/clock"
	"busprobe/internal/core/fingerprint"
	"busprobe/internal/probe"
	"busprobe/internal/sim"
	"busprobe/internal/store"
)

// The restart benchmark: how long a store-backed backend takes to come
// back after a crash, with and without a snapshot. The headline
// property is that a snapshot restart replays only the tail, so it
// beats a full replay by a margin that grows with the store; CI gates
// it at a small scale (see TestStoreBenchSmoke), and BenchmarkRestart
// measures it at any scale.

// The smoke gate: at smokeTrips replayed trips a snapshot restart must
// be at least smokeMinSpeedupX faster than a full replay.
const (
	smokeTrips       = 4000
	smokeMinSpeedupX = 5.0
)

// benchWorld is twinWorld for any testing.TB (benchmarks included).
func benchWorld(tb testing.TB) (*sim.World, *fingerprint.DB) {
	tb.Helper()
	w, err := sim.TwinCityWorld(5)
	if err != nil {
		tb.Fatal(err)
	}
	fpdb, err := BuildFingerprintDB(w.Cells, w.Transit, 4, DefaultConfig(), 7)
	if err != nil {
		tb.Fatal(err)
	}
	return w, fpdb
}

// benchCorpus expands the recorded twin-city corpus to n trips by
// cloning with rewritten IDs: each clone is a distinct upload to the
// dedup set but costs no extra simulation time to produce.
func benchCorpus(tb testing.TB, w *sim.World, n int) []probe.Trip {
	tb.Helper()
	cfg := sim.DefaultCampaignConfig()
	cfg.Days = 2
	cfg.Participants = 14
	cfg.Seed = 11
	seed, _, err := sim.RecordTrips(context.Background(), w, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if len(seed) == 0 {
		tb.Fatal("empty seed corpus")
	}
	out := make([]probe.Trip, 0, n)
	for len(out) < n {
		for _, tr := range seed {
			if len(out) >= n {
				break
			}
			c := tr
			c.ID = fmt.Sprintf("%s~x%d", tr.ID, len(out))
			out = append(out, c)
		}
	}
	return out
}

func benchStoreOpts(dir string, skipSnapshots bool) store.Options {
	return store.Options{
		Dir:           dir,
		Clock:         clock.NewFake(time.Unix(1_700_000_000, 0), 0),
		SkipSnapshots: skipSnapshots,
	}
}

// prepareRestartDir builds the store a crashed server would leave
// behind: the whole corpus appended, with one checkpoint taken
// tailTrips from the end. The same directory serves both recovery
// modes — SkipSnapshots flips a full replay of the identical records.
func prepareRestartDir(tb testing.TB, w *sim.World, fpdb *fingerprint.DB, dir string, trips []probe.Trip, tailTrips int) {
	tb.Helper()
	bk, err := NewBackend(DefaultConfig(), w.Transit, fpdb)
	if err != nil {
		tb.Fatal(err)
	}
	rec, err := RecoverBackendStore(context.Background(), benchStoreOpts(dir, false), "", bk)
	if err != nil {
		tb.Fatal(err)
	}
	cut := len(trips) - tailTrips
	for _, tr := range trips[:cut] {
		if _, err := bk.ProcessTrip(context.Background(), tr); err != nil {
			tb.Fatal(err)
		}
	}
	if err := bk.Checkpoint(); err != nil {
		tb.Fatal(err)
	}
	for _, tr := range trips[cut:] {
		if _, err := bk.ProcessTrip(context.Background(), tr); err != nil {
			tb.Fatal(err)
		}
	}
	if err := rec.Log().Close(); err != nil {
		tb.Fatal(err)
	}
}

// recoverOnce rebuilds a fresh backend from dir and returns the
// recovery wall time.
func recoverOnce(tb testing.TB, w *sim.World, fpdb *fingerprint.DB, dir string, skipSnapshots bool) (time.Duration, *Backend, *StoreRecovery) {
	tb.Helper()
	bk, err := NewBackend(DefaultConfig(), w.Transit, fpdb)
	if err != nil {
		tb.Fatal(err)
	}
	start := time.Now() //lint:allow nowallclock the benchmark measures real restart wall time; the recovered pipeline itself runs on the injected fake clock
	rec, err := RecoverBackendStore(context.Background(), benchStoreOpts(dir, skipSnapshots), "", bk)
	if err != nil {
		tb.Fatal(err)
	}
	elapsed := time.Since(start) //lint:allow nowallclock real elapsed time is the measurement under test
	if err := rec.Log().Close(); err != nil {
		tb.Fatal(err)
	}
	return elapsed, bk, rec
}

// restartTrips picks the benchmark corpus size: BUSPROBE_RESTART_TRIPS
// overrides the quick default.
func restartTrips() int {
	if s := os.Getenv("BUSPROBE_RESTART_TRIPS"); s != "" {
		var n int
		if _, err := fmt.Sscanf(s, "%d", &n); err == nil && n > 0 {
			return n
		}
	}
	return 5000
}

// BenchmarkRestart times crash recovery from one prepared store
// directory in both modes. Run the headline scale with
// BUSPROBE_RESTART_TRIPS=100000 go test -run NONE -bench Restart
// ./internal/server/.
func BenchmarkRestart(b *testing.B) {
	n := restartTrips()
	tail := n / 100
	if tail < 1 {
		tail = 1
	}
	w, fpdb := benchWorld(b)
	trips := benchCorpus(b, w, n)
	dir := b.TempDir()
	prepareRestartDir(b, w, fpdb, dir, trips, tail)

	b.Run("snapshot-tail", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			elapsed, _, rec := recoverOnce(b, w, fpdb, dir, false)
			if rec.Report.Mode != "snapshot+tail" {
				b.Fatalf("mode %q, want snapshot+tail", rec.Report.Mode)
			}
			b.ReportMetric(elapsed.Seconds(), "s/restart")
		}
	})
	b.Run("full-replay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			elapsed, _, rec := recoverOnce(b, w, fpdb, dir, true)
			if rec.Report.Mode != "full-replay" {
				b.Fatalf("mode %q, want full-replay", rec.Report.Mode)
			}
			b.ReportMetric(elapsed.Seconds(), "s/restart")
		}
	})
}

// measureRestart runs the benchmark protocol once at n trips and
// returns both recovery times, after proving the two recovered
// backends serve byte-identical traffic (a speedup over a wrong
// restart would be worthless).
func measureRestart(tb testing.TB, n int) (full, snap time.Duration, tail int) {
	tb.Helper()
	tail = n / 100
	if tail < 1 {
		tail = 1
	}
	w, fpdb := benchWorld(tb)
	trips := benchCorpus(tb, w, n)
	dir := tb.TempDir()
	prepareRestartDir(tb, w, fpdb, dir, trips, tail)

	snap, snapBk, snapRec := recoverOnce(tb, w, fpdb, dir, false)
	if snapRec.Report.Mode != "snapshot+tail" || !snapRec.SnapshotImported {
		tb.Fatalf("snapshot recovery degraded: %+v", snapRec.Report)
	}
	if snapRec.TripsReplayed > tail {
		tb.Fatalf("snapshot restart replayed %d trips, expected <= tail of %d", snapRec.TripsReplayed, tail)
	}
	full, fullBk, fullRec := recoverOnce(tb, w, fpdb, dir, true)
	if fullRec.Report.Mode != "full-replay" {
		tb.Fatalf("forced full replay ran in mode %q", fullRec.Report.Mode)
	}
	if fullRec.TripsReplayed != n {
		tb.Fatalf("full replay replayed %d trips of %d", fullRec.TripsReplayed, n)
	}
	snapBk.Advance(3 * clock.DayS)
	fullBk.Advance(3 * clock.DayS)
	if sb, fb := trafficBytes(tb, snapBk), trafficBytes(tb, fullBk); string(sb) != string(fb) {
		tb.Fatal("snapshot and full-replay recoveries disagree on /v1/traffic")
	}
	return full, snap, tail
}

// TestStoreBenchSmoke measures the restart speedup at smokeTrips and
// gates it against the smokeMinSpeedupX floor. Opt-in (CI's
// store-bench-smoke job): set BUSPROBE_STORE_BENCH=smoke.
func TestStoreBenchSmoke(t *testing.T) {
	if os.Getenv("BUSPROBE_STORE_BENCH") != "smoke" {
		t.Skip("set BUSPROBE_STORE_BENCH=smoke to run the gated smoke measurement")
	}
	full, snap, tail := measureRestart(t, smokeTrips)
	speedup := full.Seconds() / snap.Seconds()
	t.Logf("smoke: %d trips (tail %d): full %.4fs, snapshot %.4fs, %.1fx (floor %.1fx)",
		smokeTrips, tail, full.Seconds(), snap.Seconds(), speedup, smokeMinSpeedupX)
	if speedup < smokeMinSpeedupX {
		t.Errorf("smoke speedup %.2fx under the %.2fx floor", speedup, smokeMinSpeedupX)
	}
}
