package store

import (
	"context"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"busprobe/internal/clock"
)

func testClock() clock.Clock {
	return clock.NewFake(time.Unix(1700000000, 0), time.Millisecond)
}

func testOpts(dir string) Options {
	return Options{Dir: dir, SegmentBytes: 256, MaxRecordBytes: 4096, Clock: testClock()}
}

// rec renders the i-th test record: fixed width (so segment-roll
// arithmetic is predictable) and valid JSON (a leading 1 digit keeps
// the zero padding from reading as an illegal leading zero).
func rec(i int) []byte {
	return []byte(fmt.Sprintf(`{"rec":1%06d}`, i))
}

func appendRecords(t *testing.T, s *Store, from, n int) {
	t.Helper()
	ctx := context.Background()
	for i := from; i < from+n; i++ {
		if err := s.Append(ctx, rec(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

// recover replays the directory, returning the plan and the replayed
// lines in order.
func recoverAll(t *testing.T, dir string) (*Recovery, []string) {
	t.Helper()
	r, err := PlanRecovery(testOpts(dir))
	if err != nil {
		t.Fatalf("plan recovery: %v", err)
	}
	var lines []string
	if err := r.Replay(context.Background(), func(line []byte) error {
		lines = append(lines, string(line))
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return r, lines
}

func wantLines(t *testing.T, got []string, from, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
	for i, g := range got {
		if want := string(rec(from + i)); g != want {
			t.Fatalf("record %d = %q, want %q", i, g, want)
		}
	}
}

func TestAppendRollRecoverFullReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	appendRecords(t, s, 0, 100) // 15-byte lines, 256-byte segments → many rolls
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.LastSealed() == 0 {
		t.Fatal("expected at least one sealed segment")
	}
	r, lines := recoverAll(t, dir)
	if r.Report.Mode != "full-replay" {
		t.Fatalf("mode = %q, want full-replay", r.Report.Mode)
	}
	if r.State != nil {
		t.Fatalf("unexpected snapshot state")
	}
	wantLines(t, lines, 0, 100)
	if r.Report.CorruptSegments != 0 || r.Report.TornTail {
		t.Fatalf("unexpected corruption: %+v", r.Report)
	}
}

func TestSnapshotTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	appendRecords(t, s, 0, 50)
	upTo, err := s.Seal()
	if err != nil {
		t.Fatal(err)
	}
	state := []byte(`{"covers":50}`)
	if err := s.WriteSnapshot(upTo, state); err != nil {
		t.Fatal(err)
	}
	appendRecords(t, s, 50, 20)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, lines := recoverAll(t, dir)
	if r.Report.Mode != "snapshot+tail" {
		t.Fatalf("mode = %q, want snapshot+tail (report %+v)", r.Report.Mode, r.Report)
	}
	if string(r.State) != string(state) {
		t.Fatalf("state = %q, want %q", r.State, state)
	}
	if r.Report.SnapshotSeq != upTo {
		t.Fatalf("snapshot seq = %d, want %d", r.Report.SnapshotSeq, upTo)
	}
	wantLines(t, lines, 50, 20)
}

func TestTornTailSkippedAndTruncatedOnReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	appendRecords(t, s, 0, 10)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: half a record, no newline.
	active := findActive(t, dir)
	f, err := os.OpenFile(active, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"rec":9999`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	r, lines := recoverAll(t, dir)
	wantLines(t, lines, 0, 10)
	if !r.Report.TornTail {
		t.Fatalf("torn tail not reported: %+v", r.Report)
	}
	if r.Report.RecordsSkipped != 1 {
		t.Fatalf("skipped = %d, want 1", r.Report.RecordsSkipped)
	}
	// Reopen: the torn bytes are truncated and appends continue cleanly.
	s2, err := Open(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	appendRecords(t, s2, 10, 5)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	r2, lines2 := recoverAll(t, dir)
	wantLines(t, lines2, 0, 15)
	if r2.Report.TornTail || r2.Report.RecordsSkipped != 0 {
		t.Fatalf("reopen did not truncate the torn tail: %+v", r2.Report)
	}
}

func TestCorruptSnapshotFallsBackOneSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	appendRecords(t, s, 0, 30)
	up1, err := s.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(up1, []byte(`{"snap":1}`)); err != nil {
		t.Fatal(err)
	}
	appendRecords(t, s, 30, 30)
	up2, err := s.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(up2, []byte(`{"snap":2}`)); err != nil {
		t.Fatal(err)
	}
	appendRecords(t, s, 60, 10)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the newest snapshot's state blob.
	corruptFile(t, snapshotPath(dir, up2), -1)
	r, lines := recoverAll(t, dir)
	if r.Report.Mode != "snapshot+tail" {
		t.Fatalf("mode = %q, want snapshot+tail", r.Report.Mode)
	}
	if string(r.State) != `{"snap":1}` {
		t.Fatalf("state = %q, want the older snapshot", r.State)
	}
	if r.Report.SnapshotsSkipped != 1 {
		t.Fatalf("snapshots skipped = %d, want 1", r.Report.SnapshotsSkipped)
	}
	// Tail from the older boundary: records 30..69.
	wantLines(t, lines, 30, 40)
}

func TestMissingMiddleSegmentFallsBackToFullReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	appendRecords(t, s, 0, 20)
	upTo, err := s.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(upTo, []byte(`{"snap":1}`)); err != nil {
		t.Fatal(err)
	}
	appendRecords(t, s, 20, 60) // several tail segments
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Remove a sealed tail segment above the snapshot boundary.
	ls, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var victim segFile
	for _, sf := range ls.sealed {
		if sf.seq > upTo {
			victim = sf
			break
		}
	}
	if victim.path == "" {
		t.Fatal("test needs a sealed segment above the snapshot boundary")
	}
	if err := os.Remove(victim.path); err != nil {
		t.Fatal(err)
	}
	r, lines := recoverAll(t, dir)
	if r.Report.Mode != "full-replay" {
		t.Fatalf("mode = %q, want full-replay (report %+v)", r.Report.Mode, r.Report)
	}
	if r.Report.SnapshotsSkipped != 1 {
		t.Fatalf("snapshots skipped = %d, want 1", r.Report.SnapshotsSkipped)
	}
	// Everything except the deleted segment's records replays, with a
	// note naming the hole.
	if len(lines) >= 80 || len(lines) == 0 {
		t.Fatalf("replayed %d records, want a partial set", len(lines))
	}
	found := false
	for _, n := range r.Report.Notes {
		if strings.Contains(n, "missing segment") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no missing-segment note: %v", r.Report.Notes)
	}
}

func TestCompactKeepsTwoSnapshotsAndTheirTails(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	var bounds []uint64
	next := 0
	for snap := 1; snap <= 3; snap++ {
		appendRecords(t, s, next, 30)
		next += 30
		upTo, err := s.Seal()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WriteSnapshot(upTo, []byte(fmt.Sprintf(`{"snap":%d}`, snap))); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, upTo)
	}
	removed, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("compaction removed nothing")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ls, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ls.snaps) != 2 {
		t.Fatalf("snapshots after compact = %d, want 2", len(ls.snaps))
	}
	for _, sf := range ls.sealed {
		if sf.seq <= bounds[1] {
			t.Fatalf("segment %08d should have been compacted (<= %08d)", sf.seq, bounds[1])
		}
	}
	// Normal recovery uses the newest snapshot.
	r, _ := recoverAll(t, dir)
	if r.Report.Mode != "snapshot+tail" || string(r.State) != `{"snap":3}` {
		t.Fatalf("post-compact recovery: mode=%q state=%q", r.Report.Mode, r.State)
	}
	// The retention rule's whole point: corrupt the newest snapshot and
	// the previous one must still have its tail intact.
	corruptFile(t, snapshotPath(dir, bounds[2]), -1)
	r2, lines := recoverAll(t, dir)
	if r2.Report.Mode != "snapshot+tail" || string(r2.State) != `{"snap":2}` {
		t.Fatalf("fallback after compact: mode=%q state=%q notes=%v", r2.Report.Mode, r2.State, r2.Report.Notes)
	}
	wantLines(t, lines, 60, 30)
}

func TestOversizedLineSkipped(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	opts.MaxRecordBytes = 64
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	content := string(rec(1)) + "\n" + strings.Repeat("x", 200) + "\n" + string(rec(2)) + "\n"
	if err := os.WriteFile(activePath(dir, 1), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := PlanRecovery(opts)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	if err := r.Replay(context.Background(), func(line []byte) error {
		lines = append(lines, string(line))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 {
		t.Fatalf("replayed %d, want 2 (oversized line skipped)", len(lines))
	}
	if r.Report.RecordsSkipped != 1 {
		t.Fatalf("skipped = %d, want 1", r.Report.RecordsSkipped)
	}
	// The writer refuses records it could not replay.
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(context.Background(), []byte(strings.Repeat("y", 100))); err == nil {
		t.Fatal("oversized append accepted")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Adopting the active segment counts the oversized line as a
	// record and checksums every byte of it, though the scan keeps at
	// most MaxRecordBytes+1 bytes of any line; an oversized torn tail
	// is trimmed the same way.
	f, err := os.OpenFile(activePath(dir, 1), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(strings.Repeat("z", 300)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	wantAdopted := func(s *Store, body string) {
		t.Helper()
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.activeRecs != strings.Count(body, "\n") || s.activeBytes != int64(len(body)) || s.activeCRC != crc32.ChecksumIEEE([]byte(body)) {
			t.Fatalf("adopted records=%d bytes=%d crc=%08x, want %d/%d/%08x", s.activeRecs, s.activeBytes, s.activeCRC,
				strings.Count(body, "\n"), len(body), crc32.ChecksumIEEE([]byte(body)))
		}
	}
	s, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	wantAdopted(s, content)
	if err := s.Append(context.Background(), rec(3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	content += string(rec(3)) + "\n"
	s, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	wantAdopted(s, content)
	// A later seal carries a footer recovery verifies.
	if _, err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err = PlanRecovery(opts)
	if err != nil {
		t.Fatal(err)
	}
	lines = lines[:0]
	if err := r.Replay(context.Background(), func(line []byte) error {
		lines = append(lines, string(line))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if r.Report.CorruptSegments != 0 || r.Report.RecordsSkipped != 1 || len(lines) != 3 || lines[2] != string(rec(3)) {
		t.Fatalf("after seal: corrupt=%d skipped=%d lines=%q notes=%v", r.Report.CorruptSegments, r.Report.RecordsSkipped, lines, r.Report.Notes)
	}
}

func TestAdoptFinishesInterruptedSeal(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	// A crash between footer write and rename leaves a .active file that
	// is internally sealed. Build one by hand.
	var body []byte
	for i := 0; i < 5; i++ {
		body = append(body, rec(i)...)
		body = append(body, '\n')
	}
	footer := sealFooter{Seal: sealMagic, Records: 5, Bytes: int64(len(body)), CRC32: crc32.ChecksumIEEE(body)}
	content := append(body, footer.encode()...)
	content = append(content, '\n')
	if err := os.WriteFile(activePath(dir, 3), content, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	appendRecords(t, s, 5, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(sealedPath(dir, 3)); err != nil {
		t.Fatalf("interrupted seal not finished: %v", err)
	}
	r, lines := recoverAll(t, dir)
	wantLines(t, lines, 0, 8)
	if r.Report.CorruptSegments != 0 {
		t.Fatalf("finished seal reads as corrupt: %+v", r.Report)
	}
}

// TestReplaySurvivesOpenFinishingPendingSeal: a plan built before Open
// normalizes the directory must still replay a fully-sealed-but-
// unrenamed active segment after Open finishes the seal (renaming
// .active → .seal out from under the plan). Losing that segment would
// silently drop acked records, and the next compaction would make the
// loss permanent.
func TestReplaySurvivesOpenFinishingPendingSeal(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var body []byte
	for i := 0; i < 5; i++ {
		body = append(body, rec(i)...)
		body = append(body, '\n')
	}
	footer := sealFooter{Seal: sealMagic, Records: 5, Bytes: int64(len(body)), CRC32: crc32.ChecksumIEEE(body)}
	content := append(body, footer.encode()...)
	content = append(content, '\n')
	if err := os.WriteFile(activePath(dir, 3), content, 0o644); err != nil {
		t.Fatal(err)
	}
	// Plan first — the plan's tail references seg-3.active.
	r, err := PlanRecovery(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Open finishes the pending seal: seg-3.active becomes seg-3.seal.
	s, err := Open(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(sealedPath(dir, 3)); err != nil {
		t.Fatalf("open did not finish the pending seal: %v", err)
	}
	var lines []string
	if err := r.Replay(context.Background(), func(line []byte) error {
		lines = append(lines, string(line))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	wantLines(t, lines, 0, 5)
	if r.Report.CorruptSegments != 0 {
		t.Fatalf("renamed segment reported corrupt: %+v", r.Report)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenedVirginDirPlansFresh: recovery paths open the store before
// planning, so a virgin directory holds one empty active segment by
// plan time — that is still a fresh store, not a full replay.
func TestOpenedVirginDirPlansFresh(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	r, lines := recoverAll(t, dir)
	if r.Report.Mode != "fresh" || len(lines) != 0 {
		t.Fatalf("mode=%q lines=%d, want fresh/0", r.Report.Mode, len(lines))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactRemovesStaleCorruptSnapshots: a corrupt snapshot behind
// the retained boundary is dead weight — no recovery uses it — and
// must be deleted instead of accumulating forever. A corrupt snapshot
// at or above the boundary stays.
func TestCompactRemovesStaleCorruptSnapshots(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	var bounds []uint64
	next := 0
	for snap := 1; snap <= 3; snap++ {
		appendRecords(t, s, next, 30)
		next += 30
		upTo, err := s.Seal()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WriteSnapshot(upTo, []byte(fmt.Sprintf(`{"snap":%d}`, snap))); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, upTo)
	}
	corruptFile(t, snapshotPath(dir, bounds[0]), -1)
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(snapshotPath(dir, bounds[0])); !os.IsNotExist(err) {
		t.Fatalf("stale corrupt snapshot not removed: %v", err)
	}
	ls, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ls.snaps) != 2 {
		t.Fatalf("snapshots after compact = %d, want 2", len(ls.snaps))
	}
	// Corrupt the NEWEST snapshot: it is above the retained boundary,
	// and with only one valid snapshot left compaction is a no-op that
	// must not delete it.
	corruptFile(t, snapshotPath(dir, bounds[2]), -1)
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(snapshotPath(dir, bounds[2])); err != nil {
		t.Fatalf("corrupt newest snapshot deleted by compaction: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotDueSignal(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	opts.SnapshotEvery = 3
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendRecords(t, s, 0, 2)
	select {
	case <-s.SnapshotDue():
		t.Fatal("snapshot due after 2 of 3 appends")
	default:
	}
	appendRecords(t, s, 2, 1)
	select {
	case <-s.SnapshotDue():
	default:
		t.Fatal("snapshot not due after 3 appends")
	}
	upTo, err := s.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(upTo, []byte("{}")); err != nil {
		t.Fatal(err)
	}
	if got := s.AppendsSinceSnapshot(); got != 0 {
		t.Fatalf("appends since snapshot = %d, want 0", got)
	}
}

func TestRecoveryOfFreshAndMissingDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "never-created")
	r, lines := recoverAll(t, dir)
	if r.Report.Mode != "fresh" || len(lines) != 0 {
		t.Fatalf("mode=%q lines=%d, want fresh/0", r.Report.Mode, len(lines))
	}
}

func TestMigrateLegacyJournal(t *testing.T) {
	base := t.TempDir()
	legacy := filepath.Join(base, "journal.jsonl")
	dir := filepath.Join(base, "store")
	content := string(rec(0)) + "\n" + string(rec(1)) + "\n" + `{"rec":99` // torn tail
	if err := os.WriteFile(legacy, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	migrated, err := MigrateLegacy(dir, legacy)
	if err != nil {
		t.Fatal(err)
	}
	if !migrated {
		t.Fatal("migration did not happen")
	}
	if _, err := os.Stat(legacy); !os.IsNotExist(err) {
		t.Fatalf("legacy journal still present: %v", err)
	}
	r, lines := recoverAll(t, dir)
	wantLines(t, lines, 0, 2)
	if !r.Report.TornTail {
		t.Fatalf("legacy torn tail not reported: %+v", r.Report)
	}
	// A non-virgin store refuses to migrate (and leaves the file alone).
	legacy2 := filepath.Join(base, "journal2.jsonl")
	if err := os.WriteFile(legacy2, []byte(string(rec(5))+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	migrated, err = MigrateLegacy(dir, legacy2)
	if err != nil {
		t.Fatal(err)
	}
	if migrated {
		t.Fatal("non-virgin store migrated")
	}
	if _, err := os.Stat(legacy2); err != nil {
		t.Fatalf("second legacy journal was consumed: %v", err)
	}
	// Migration then Open then append: the legacy lines stay first.
	s, err := Open(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	appendRecords(t, s, 2, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, lines = recoverAll(t, dir)
	wantLines(t, lines, 0, 5)
}

// corruptFile flips one byte. Offset -1 means "last byte".
func corruptFile(t *testing.T, path string, offset int64) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if offset < 0 {
		offset = int64(len(b)) - 1
	}
	b[offset] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func findActive(t *testing.T, dir string) string {
	t.Helper()
	ls, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ls.active == nil {
		t.Fatal("no active segment")
	}
	return ls.active.path
}
