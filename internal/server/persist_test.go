package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"busprobe/internal/clock"
	"busprobe/internal/core/fingerprint"
	"busprobe/internal/core/traffic"
	"busprobe/internal/faults"
	"busprobe/internal/probe"
	"busprobe/internal/road"
	"busprobe/internal/server/stage"
	"busprobe/internal/sim"
	"busprobe/internal/store"
)

// storeTestOpts sizes segments small enough that a modest corpus rolls
// through several of them.
func storeTestOpts(dir string) store.Options {
	return store.Options{
		Dir:          dir,
		SegmentBytes: 32 << 10,
		Clock:        clock.NewFake(time.Unix(1_700_000_000, 0), 0),
	}
}

// twinFixture caches the twin world per test.
type twinFixture struct {
	world *sim.World
	fpdb  *fingerprint.DB
}

func newTwinFixture(t *testing.T) *twinFixture {
	t.Helper()
	w, fpdb := twinWorld(t)
	return &twinFixture{world: w, fpdb: fpdb}
}

// recoverFresh builds a new backend over the twin world and recovers it
// from dir, returning the backend and its recovery.
func recoverFresh(t *testing.T, fx *twinFixture, dir string, legacy string) (*Backend, *StoreRecovery) {
	t.Helper()
	b, err := NewBackend(DefaultConfig(), fx.world.Transit, fx.fpdb)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := RecoverBackendStore(context.Background(), storeTestOpts(dir), legacy, b)
	if err != nil {
		t.Fatal(err)
	}
	return b, rec
}

// TestStoreRestartByteIdentical is the tentpole acceptance property for
// the monolith: process a corpus against a store-backed backend with a
// mid-stream checkpoint, reboot from the directory, and the served
// traffic map must be byte-identical to an uninterrupted in-memory run.
func TestStoreRestartByteIdentical(t *testing.T) {
	fx := newTwinFixture(t)
	trips := twinCorpus(t, fx.world, faults.Config{})
	if len(trips) < 20 {
		t.Fatalf("corpus too small (%d trips) to cut meaningfully", len(trips))
	}
	cut := len(trips) / 2

	// Reference: uninterrupted, no persistence.
	ref, err := NewBackend(DefaultConfig(), fx.world.Transit, fx.fpdb)
	if err != nil {
		t.Fatal(err)
	}
	replayInto(t, ref, trips)
	ref.Advance(3 * clock.DayS)
	want := trafficBytes(t, ref)
	if len(ref.Traffic()) == 0 {
		t.Fatal("corpus produced no estimates; the test is vacuous")
	}

	dir := t.TempDir()
	first, rec := recoverFresh(t, fx, dir, "")
	if rec.Report.Mode != "fresh" {
		t.Fatalf("virgin dir recovered in mode %q, want fresh", rec.Report.Mode)
	}
	replayInto(t, first, trips[:cut])
	if err := first.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	replayInto(t, first, trips[cut:])
	if err := rec.Log().Close(); err != nil {
		t.Fatal(err)
	}

	second, rec2 := recoverFresh(t, fx, dir, "")
	if rec2.Report.Mode != "snapshot+tail" {
		t.Fatalf("recovered in mode %q, want snapshot+tail (report: %+v)", rec2.Report.Mode, rec2.Report)
	}
	if !rec2.SnapshotImported {
		t.Fatal("no snapshot state imported")
	}
	if rec2.TripsReplayed == 0 {
		t.Fatal("tail replay touched no trips; the checkpoint cut is untested")
	}
	if rec2.TripsReplayed >= len(trips) {
		t.Fatalf("replayed %d trips of %d — the snapshot saved nothing", rec2.TripsReplayed, len(trips))
	}
	second.Advance(3 * clock.DayS)
	if got := trafficBytes(t, second); !bytes.Equal(got, want) {
		t.Error("recovered /v1/traffic differs from the uninterrupted run")
	}
	if ws, rs := ref.Stats(), second.Stats(); ws != rs {
		t.Errorf("recovered stats %+v, want %+v", rs, ws)
	}
}

// TestStoreFullReplayWithoutSnapshot: a store that never checkpointed
// recovers by full replay and still serves the identical map.
func TestStoreFullReplayWithoutSnapshot(t *testing.T) {
	fx := newTwinFixture(t)
	trips := twinCorpus(t, fx.world, faults.Config{})

	ref, err := NewBackend(DefaultConfig(), fx.world.Transit, fx.fpdb)
	if err != nil {
		t.Fatal(err)
	}
	replayInto(t, ref, trips)
	ref.Advance(3 * clock.DayS)
	want := trafficBytes(t, ref)

	dir := t.TempDir()
	first, rec := recoverFresh(t, fx, dir, "")
	replayInto(t, first, trips)
	if err := rec.Log().Close(); err != nil {
		t.Fatal(err)
	}
	second, rec2 := recoverFresh(t, fx, dir, "")
	if rec2.Report.Mode != "full-replay" {
		t.Fatalf("recovered in mode %q, want full-replay", rec2.Report.Mode)
	}
	second.Advance(3 * clock.DayS)
	if got := trafficBytes(t, second); !bytes.Equal(got, want) {
		t.Error("full-replay /v1/traffic differs from the uninterrupted run")
	}
}

// TestStoreSnapshotSchemaFallback: a snapshot whose blob passes its
// checksum but does not decode as PersistentState (a schema from
// another build) must drop recovery to a full replay, not fail boot.
func TestStoreSnapshotSchemaFallback(t *testing.T) {
	fx := newTwinFixture(t)
	trips := twinCorpus(t, fx.world, faults.Config{})

	dir := t.TempDir()
	first, rec := recoverFresh(t, fx, dir, "")
	replayInto(t, first, trips)
	// Seal and snapshot by hand with a foreign blob.
	s := rec.Log().Store()
	upTo, err := s.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(upTo, []byte(`{"schema":"busprobe-state/999"}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	ref, err := NewBackend(DefaultConfig(), fx.world.Transit, fx.fpdb)
	if err != nil {
		t.Fatal(err)
	}
	replayInto(t, ref, trips)
	ref.Advance(3 * clock.DayS)
	want := trafficBytes(t, ref)

	second, rec2 := recoverFresh(t, fx, dir, "")
	if rec2.Report.Mode != "full-replay" {
		t.Fatalf("recovered in mode %q, want full-replay (report: %+v)", rec2.Report.Mode, rec2.Report)
	}
	if rec2.SnapshotImported {
		t.Fatal("foreign snapshot state reported as imported")
	}
	second.Advance(3 * clock.DayS)
	if got := trafficBytes(t, second); !bytes.Equal(got, want) {
		t.Error("fallback /v1/traffic differs from the uninterrupted run")
	}
}

// TestStoreScatterDurability: a cross-shard scatter group persisted in
// the receiving shard's log must survive a restart even though its
// originating trip lives elsewhere — the fold is rebuilt from the
// "scatter" record, dedup key intact.
func TestStoreScatterDurability(t *testing.T) {
	fx := newTwinFixture(t)
	dir := t.TempDir()
	first, rec := recoverFresh(t, fx, dir, "")
	group := []traffic.Observation{{
		Segments: []road.SegmentID{2}, LengthM: 500, FreeKmh: 40, BTTSeconds: 70, TimeS: 60,
	}}
	if _, err := first.FoldScatter(context.Background(), "t1#0", group); err != nil {
		t.Fatal(err)
	}
	first.Advance(3600)
	want, ok := first.TrafficSegment(2)
	if !ok || want.Reports == 0 {
		t.Fatalf("scatter did not fold: %+v", want)
	}
	if err := rec.Log().Close(); err != nil {
		t.Fatal(err)
	}

	second, rec2 := recoverFresh(t, fx, dir, "")
	if rec2.ScatterReplayed != 1 {
		t.Fatalf("ScatterReplayed = %d, want 1 (report: %+v)", rec2.ScatterReplayed, rec2.Report)
	}
	second.Advance(3600)
	got, ok := second.TrafficSegment(2)
	if !ok || got != want {
		t.Fatalf("recovered scatter estimate %+v, want %+v", got, want)
	}
	// The idempotency record survived too: re-delivery must not re-fold.
	out, err := second.FoldScatter(context.Background(), "t1#0", group)
	if err != nil {
		t.Fatal(err)
	}
	if out.Folded == 0 {
		t.Fatal("replayed key returned a zero outcome, want the recorded one")
	}
	second.Advance(7200)
	if again, _ := second.TrafficSegment(2); again.Reports != got.Reports {
		t.Fatalf("re-delivered scatter double-counted: %d reports, want %d", again.Reports, got.Reports)
	}
}

// TestCoordinatorStoreRecovery: a sharded deployment checkpoints and
// reboots through per-shard store directories and serves the identical
// merged map.
func TestCoordinatorStoreRecovery(t *testing.T) {
	fx := newTwinFixture(t)
	trips := twinCorpus(t, fx.world, faults.Config{})
	cut := len(trips) / 2

	ref := newTwinCoordinator(t, fx.world, fx.fpdb, 2)
	replayInto(t, ref, trips)
	ref.Advance(3 * clock.DayS)
	want := trafficBytes(t, ref)

	base := t.TempDir()
	first := newTwinCoordinator(t, fx.world, fx.fpdb, 2)
	recs, err := first.RecoverStores(context.Background(), base, storeTestOpts(""), nil)
	if err != nil {
		t.Fatal(err)
	}
	replayInto(t, first, trips[:cut])
	for _, b := range first.Shards() {
		if err := b.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	replayInto(t, first, trips[cut:])
	for _, r := range recs {
		if r.Err != "" {
			t.Fatalf("shard %d recovery: %s", r.Shard, r.Err)
		}
		if err := r.Log().Close(); err != nil {
			t.Fatal(err)
		}
	}

	second := newTwinCoordinator(t, fx.world, fx.fpdb, 2)
	recs2, err := second.RecoverStores(context.Background(), base, storeTestOpts(""), nil)
	if err != nil {
		t.Fatal(err)
	}
	replayedShards := 0
	for _, r := range recs2 {
		if r.Err != "" {
			t.Fatalf("shard %d recovery: %s", r.Shard, r.Err)
		}
		if r.Report.Mode == "snapshot+tail" {
			replayedShards++
		}
	}
	if replayedShards == 0 {
		t.Fatal("no shard recovered from a snapshot; the checkpoint path is untested")
	}
	second.Advance(3 * clock.DayS)
	if got := trafficBytes(t, second); !bytes.Equal(got, want) {
		t.Error("recovered 2-shard /v1/traffic differs from the uninterrupted run")
	}
}

// legacyLine renders one trip as a legacy -journal line: a bare
// probe.Trip JSON object plus its newline.
func legacyLine(t *testing.T, trip probe.Trip) []byte {
	t.Helper()
	b, err := json.Marshal(&trip)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestStoreLegacyJournalMigration: a deployment carrying a legacy
// -journal file boots onto the store by adopting the file as the first
// segment, replaying it, and serving the identical map. Each defect a
// crash or a damaged disk can leave in the file costs exactly the line
// it hits: records after it still replay, and the map is byte-identical
// to a reference fed only the accepted trips. The migrated store then
// keeps working: a checkpoint seals over the defect and the next boot
// restarts from the snapshot.
func TestStoreLegacyJournalMigration(t *testing.T) {
	fx := newTwinFixture(t)
	trips := twinCorpus(t, fx.world, faults.Config{})
	n, mid := len(trips), len(trips)/2
	if mid < 1 {
		t.Fatalf("corpus too small (%d trips) to cut", n)
	}
	refBytes := func(accepted []probe.Trip) []byte {
		ref, err := NewBackend(DefaultConfig(), fx.world.Transit, fx.fpdb)
		if err != nil {
			t.Fatal(err)
		}
		replayInto(t, ref, accepted)
		ref.Advance(3 * clock.DayS)
		return trafficBytes(t, ref)
	}
	wantAll := refBytes(trips)
	lastLine := legacyLine(t, trips[n-1])
	oversized := append(bytes.Repeat([]byte("x"), store.DefaultMaxRecordBytes+16), '\n')

	cases := []struct {
		name string
		// insert lands between trips[:mid] and trips[mid:]; torn
		// replaces the final trip's line with its first half.
		insert []byte
		torn   bool
		// skipped is StoreRecovery.TripsSkipped (undecodable lines and
		// pipeline rejections); storeSkipped is the store's own
		// Report.RecordsSkipped (lines too long to be a record).
		skipped, storeSkipped int
	}{
		{name: "intact"},
		{name: "corrupt_middle_line", insert: []byte("{\"id\":\"garbled\",\"sam\n"), skipped: 1},
		{name: "duplicate_trip", insert: legacyLine(t, trips[0]), skipped: 1},
		{name: "oversized_line", insert: oversized, storeSkipped: 1},
		{name: "torn_final_line", torn: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var file bytes.Buffer
			for i, trip := range trips {
				if i == mid {
					file.Write(tc.insert)
				}
				if i == n-1 && tc.torn {
					file.Write(lastLine[:len(lastLine)/2])
					continue
				}
				file.Write(legacyLine(t, trip))
			}
			legacy := filepath.Join(t.TempDir(), "journal.jsonl")
			if err := os.WriteFile(legacy, file.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			accepted, want := trips, wantAll
			if tc.torn {
				accepted = trips[:n-1]
				want = refBytes(accepted)
			}

			dir := t.TempDir()
			b, rec := recoverFresh(t, fx, dir, legacy)
			if !rec.Report.Migrated {
				t.Fatal("legacy journal not migrated")
			}
			if rec.TripsReplayed != len(accepted) || rec.TripsSkipped != tc.skipped {
				t.Fatalf("replayed %d / skipped %d, want %d / %d", rec.TripsReplayed, rec.TripsSkipped, len(accepted), tc.skipped)
			}
			if rec.Report.RecordsSkipped != tc.storeSkipped {
				t.Fatalf("store skipped %d lines, want %d", rec.Report.RecordsSkipped, tc.storeSkipped)
			}
			if _, err := os.Stat(legacy); !os.IsNotExist(err) {
				t.Fatal("legacy journal still present after migration")
			}
			b.Advance(3 * clock.DayS)
			if got := trafficBytes(t, b); !bytes.Equal(got, want) {
				t.Error("migrated /v1/traffic differs from the reference fed only the accepted trips")
			}
			// The line after the defect replayed: it is a duplicate now.
			if _, err := b.ProcessTrip(context.Background(), trips[mid]); !errors.Is(err, ErrDuplicateTrip) {
				t.Errorf("trip after the defect was not replayed: %v", err)
			}

			if err := b.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := rec.Log().Close(); err != nil {
				t.Fatal(err)
			}
			b2, rec2 := recoverFresh(t, fx, dir, legacy)
			if rec2.Report.Mode != "snapshot+tail" || rec2.Report.Migrated {
				t.Fatalf("post-migration recovery mode %q migrated=%t, want snapshot+tail, not migrated", rec2.Report.Mode, rec2.Report.Migrated)
			}
			b2.Advance(3 * clock.DayS)
			if got := trafficBytes(t, b2); !bytes.Equal(got, want) {
				t.Error("post-migration checkpointed recovery differs")
			}
			if err := rec2.Log().Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRecoverStoresContinuesPastUnopenableShard: one shard whose store
// cannot open must not stop the others. The failure lands on that
// shard's own recovery and it boots without a log, while shard 0 still
// recovers and replays — and a missing legacy file is no error.
func TestRecoverStoresContinuesPastUnopenableShard(t *testing.T) {
	fx := newTwinFixture(t)
	trips := twinCorpus(t, fx.world, faults.Config{})
	ctx := context.Background()
	base := t.TempDir()
	first := newTwinCoordinator(t, fx.world, fx.fpdb, 2)
	recs, err := first.RecoverStores(ctx, base, storeTestOpts(""), nil)
	if err != nil {
		t.Fatal(err)
	}
	replayInto(t, first, trips)
	for _, r := range recs {
		if err := r.Log().Close(); err != nil {
			t.Fatal(err)
		}
	}
	shard0Trips := first.Shards()[0].Stats().TripsReceived
	if shard0Trips == 0 {
		t.Fatal("shard 0 took no trips; the replay path is untested")
	}

	// Shard 1's store directory becomes a regular file.
	dead := ShardStoreDir(base, 1)
	if err := os.RemoveAll(dead); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dead, []byte("not a directory\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(t.TempDir(), "never-written.jsonl")
	second := newTwinCoordinator(t, fx.world, fx.fpdb, 2)
	recs2, err := second.RecoverStores(ctx, base, storeTestOpts(""), []string{missing, ""})
	if err != nil {
		t.Fatalf("an unopenable shard aborted recovery: %v", err)
	}
	if recs2[1].Err == "" || recs2[1].Log() != nil {
		t.Errorf("shard 1 recovery = %+v, want an error and no log", recs2[1])
	}
	r0 := recs2[0]
	if r0.Err != "" || r0.Report.Migrated || r0.Log() == nil {
		t.Fatalf("shard 0 recovery = %+v, want clean, not migrated, log attached", r0)
	}
	if r0.TripsReplayed != shard0Trips || r0.TripsSkipped != 0 {
		t.Errorf("shard 0 replayed %d / skipped %d, want %d / 0", r0.TripsReplayed, r0.TripsSkipped, shard0Trips)
	}
	if err := r0.Log().Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRequiresStore: a backend without an attached store
// cannot checkpoint.
func TestCheckpointRequiresStore(t *testing.T) {
	fx := newTwinFixture(t)
	b, err := NewBackend(DefaultConfig(), fx.world.Transit, fx.fpdb)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Checkpoint(); err == nil {
		t.Fatal("checkpoint without a store succeeded")
	}
}

// TestCheckpointUnderConcurrentIngest: checkpoints racing a concurrent
// upload stream must neither deadlock nor tear a trip across the cut —
// recovery still reproduces the uninterrupted map.
func TestCheckpointUnderConcurrentIngest(t *testing.T) {
	fx := newTwinFixture(t)
	trips := twinCorpus(t, fx.world, faults.Config{})

	ref, err := NewBackend(DefaultConfig(), fx.world.Transit, fx.fpdb)
	if err != nil {
		t.Fatal(err)
	}
	replayInto(t, ref, trips)
	ref.Advance(3 * clock.DayS)
	want := trafficBytes(t, ref)

	dir := t.TempDir()
	first, rec := recoverFresh(t, fx, dir, "")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := first.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Serial ingestion (order determinism is the reference's property,
	// not under test here — the race with Checkpoint is).
	for _, trip := range trips {
		if _, err := first.ProcessTrip(context.Background(), trip); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if err := rec.Log().Close(); err != nil {
		t.Fatal(err)
	}

	second, _ := recoverFresh(t, fx, dir, "")
	second.Advance(3 * clock.DayS)
	if got := trafficBytes(t, second); !bytes.Equal(got, want) {
		t.Error("recovery after racing checkpoints differs from the uninterrupted run")
	}
}

// TestPersistentStateExportDeterministic: two exports from the same
// quiesced backend must be byte-identical (sorted slices, no map
// ordering leaks) — the property snapshot round-trips rest on.
// TestRecoverStoresSurvivesPendingSeal: a crash between a segment's
// footer write and its rename leaves a fully-sealed file under its
// .active name. Recovery opens the store first (finishing the rename)
// and only then plans, so the plan never references the vanished
// .active path — under the old order the whole segment was skipped as
// unreadable and its acked trips silently lost.
func TestRecoverStoresSurvivesPendingSeal(t *testing.T) {
	fx := newTwinFixture(t)
	trips := twinCorpus(t, fx.world, faults.Config{})

	ref := newTwinCoordinator(t, fx.world, fx.fpdb, 2)
	replayInto(t, ref, trips)
	ref.Advance(3 * clock.DayS)
	want := trafficBytes(t, ref)

	base := t.TempDir()
	first := newTwinCoordinator(t, fx.world, fx.fpdb, 2)
	recs, err := first.RecoverStores(context.Background(), base, storeTestOpts(""), nil)
	if err != nil {
		t.Fatal(err)
	}
	replayInto(t, first, trips)
	for _, r := range recs {
		if err := r.Log().Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Crash-shape each shard directory: seal the active segment but put
	// it back under its .active name — the on-disk state after a crash
	// between footer write and rename.
	crafted := 0
	for i := range recs {
		dir := ShardStoreDir(base, i)
		sealsBefore, err := filepath.Glob(filepath.Join(dir, "*.seal"))
		if err != nil {
			t.Fatal(err)
		}
		s, err := store.Open(storeTestOpts(dir))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Seal(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		seals, err := filepath.Glob(filepath.Join(dir, "*.seal"))
		if err != nil {
			t.Fatal(err)
		}
		if len(seals) == len(sealsBefore) {
			continue // this shard's active segment held no records
		}
		unrenamed := strings.TrimSuffix(seals[len(seals)-1], ".seal") + ".active"
		if err := os.Rename(seals[len(seals)-1], unrenamed); err != nil {
			t.Fatal(err)
		}
		actives, err := filepath.Glob(filepath.Join(dir, "*.active"))
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range actives {
			if a != unrenamed { // the empty segment Seal rolled to
				if err := os.Remove(a); err != nil {
					t.Fatal(err)
				}
			}
		}
		crafted++
	}
	if crafted == 0 {
		t.Fatal("no shard had a sealable active segment; the test is vacuous")
	}

	second := newTwinCoordinator(t, fx.world, fx.fpdb, 2)
	recs2, err := second.RecoverStores(context.Background(), base, storeTestOpts(""), nil)
	if err != nil {
		t.Fatal(err)
	}
	replayed := 0
	for _, r := range recs2 {
		if r.Err != "" {
			t.Fatalf("shard %d recovery: %s", r.Shard, r.Err)
		}
		if r.Report.CorruptSegments != 0 {
			t.Fatalf("shard %d reported %d corrupt segments: %+v", r.Shard, r.Report.CorruptSegments, r.Report)
		}
		replayed += r.TripsReplayed
	}
	if replayed != len(trips) {
		t.Fatalf("replayed %d trips of %d — the pending-seal segment was skipped", replayed, len(trips))
	}
	second.Advance(3 * clock.DayS)
	if got := trafficBytes(t, second); !bytes.Equal(got, want) {
		t.Error("recovered /v1/traffic differs from the uninterrupted run")
	}
}

// flakyTripLog fails Append on demand, standing in for a full disk.
type flakyTripLog struct{ fail bool }

func (l *flakyTripLog) Append(ctx context.Context, trip probe.Trip) error {
	if l.fail {
		return errors.New("injected append failure")
	}
	return nil
}

// TestAdmitUnmarksSeenOnAppendFailure: a trip whose log append fails
// was never durable, so its ID must not linger in the dedup set — a
// phantom entry would reject the client's retry forever and a snapshot
// would persist the phantom, losing the trip across restarts.
func TestAdmitUnmarksSeenOnAppendFailure(t *testing.T) {
	fx := newTwinFixture(t)
	trips := twinCorpus(t, fx.world, faults.Config{})
	b, err := NewBackend(DefaultConfig(), fx.world.Transit, fx.fpdb)
	if err != nil {
		t.Fatal(err)
	}
	log := &flakyTripLog{fail: true}
	b.AttachTripLog(log)
	ctx := context.Background()
	if _, err := b.ProcessTrip(ctx, trips[0]); err == nil {
		t.Fatal("append failure did not fail the upload")
	}
	if st := b.ExportState(); len(st.Seen) != 0 {
		t.Fatalf("phantom trip ID exported after append failure: %v", st.Seen)
	}
	log.fail = false
	if _, err := b.ProcessTrip(ctx, trips[0]); err != nil {
		t.Fatalf("retry after append failure rejected: %v", err)
	}
	if _, err := b.ProcessTrip(ctx, trips[0]); !errors.Is(err, ErrDuplicateTrip) {
		t.Fatalf("true duplicate not rejected: %v", err)
	}
}

// TestPendingScatterDurableAcrossCompaction: observation groups whose
// cross-shard delivery failed must survive checkpoints that compact
// away the trip records which produced them. The sender carries them
// as pending inside its snapshot and recovery retries them, so a
// reboot with the peer healthy converges on the unfailed map.
func TestPendingScatterDurableAcrossCompaction(t *testing.T) {
	fx := newTwinFixture(t)
	trips := twinCorpus(t, fx.world, faults.Config{})
	cut := len(trips) / 2

	ref := newTwinCoordinator(t, fx.world, fx.fpdb, 2)
	replayInto(t, ref, trips)
	ref.Advance(3 * clock.DayS)
	want := trafficBytes(t, ref)

	base := t.TempDir()
	first := newTwinCoordinator(t, fx.world, fx.fpdb, 2)
	recs, err := first.RecoverStores(context.Background(), base, storeTestOpts(""), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Break cross-shard delivery for the whole first run: every scatter
	// fails, so the sending shard must remember the group as pending.
	outage := true
	for _, b := range first.Shards() {
		orig := b.obsScatter
		b.obsScatter = func(ctx context.Context, owner int, key string, obs []traffic.Observation) (stage.EstimateOutput, error) {
			if outage {
				return stage.EstimateOutput{}, errors.New("injected scatter outage")
			}
			return orig(ctx, owner, key, obs)
		}
	}
	ingest := func(batch []probe.Trip) int {
		failed := 0
		for _, trip := range batch {
			if _, err := first.ProcessTrip(context.Background(), trip); err != nil {
				failed++
			}
		}
		return failed
	}
	if ingest(trips[:cut]) == 0 {
		t.Fatal("no first-half trip crossed shards; compaction coverage is vacuous")
	}
	// Two checkpoints with ingest in between: the second one's
	// compaction deletes the segments holding the first half's trip
	// records, so log replay alone can no longer reproduce the failed
	// groups.
	for _, b := range first.Shards() {
		if err := b.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	ingest(trips[cut:])
	for _, b := range first.Shards() {
		if err := b.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	pending := 0
	for _, b := range first.Shards() {
		pending += len(b.ExportState().Pending)
	}
	if pending == 0 {
		t.Fatal("scatter outage produced no pending groups")
	}
	for _, r := range recs {
		if err := r.Log().Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Reboot with scatter healthy: recovery retries the pending groups.
	second := newTwinCoordinator(t, fx.world, fx.fpdb, 2)
	recs2, err := second.RecoverStores(context.Background(), base, storeTestOpts(""), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs2 {
		if r.Err != "" {
			t.Fatalf("shard %d recovery: %s", r.Shard, r.Err)
		}
	}
	for i, b := range second.Shards() {
		if n := len(b.ExportState().Pending); n != 0 {
			t.Fatalf("shard %d still holds %d pending groups after recovery retry", i, n)
		}
	}
	second.Advance(3 * clock.DayS)
	if got := trafficBytes(t, second); !bytes.Equal(got, want) {
		t.Error("recovered /v1/traffic differs from the unfailed run; pending scatters were lost")
	}
}

func TestPersistentStateExportDeterministic(t *testing.T) {
	fx := newTwinFixture(t)
	trips := twinCorpus(t, fx.world, faults.Config{})
	b, err := NewBackend(DefaultConfig(), fx.world.Transit, fx.fpdb)
	if err != nil {
		t.Fatal(err)
	}
	replayInto(t, b, trips[:10])
	group := []traffic.Observation{{
		Segments: []road.SegmentID{2}, LengthM: 500, FreeKmh: 40, BTTSeconds: 70, TimeS: 60,
	}}
	if _, err := b.FoldScatter(context.Background(), "x#1", group); err != nil {
		t.Fatal(err)
	}
	b.notePendingScatter("z#1", 1, group)
	b.notePendingScatter("a#0", 0, group)
	a1, err := json.Marshal(b.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	a2, err := json.Marshal(b.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a1, a2) {
		t.Fatal("two exports of the same state differ")
	}
	// Export → import → export round-trips byte-identically, pending
	// groups included.
	b2, err := NewBackend(DefaultConfig(), fx.world.Transit, fx.fpdb)
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.ImportState(b.ExportState()); err != nil {
		t.Fatal(err)
	}
	a3, err := json.Marshal(b2.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a1, a3) {
		t.Fatal("export→import→export is not identical")
	}
}
