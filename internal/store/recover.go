package store

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Report is one store directory's recovery outcome, shaped for the
// boot-time recovery artifact (JSON) and the boot log.
type Report struct {
	// Dir is the store directory recovered.
	Dir string `json:"dir"`
	// Mode is how state was rebuilt: "fresh" (empty store),
	// "snapshot+tail" (state import plus tail replay), or
	// "full-replay" (no usable snapshot; every surviving segment
	// replayed).
	Mode string `json:"mode"`
	// SnapshotSeq is the segment boundary of the snapshot used
	// (snapshot+tail mode only).
	SnapshotSeq uint64 `json:"snapshotSeq,omitempty"`
	// SnapshotsSkipped counts snapshots rejected on the way down the
	// ladder (checksum mismatch, missing tail segment).
	SnapshotsSkipped int `json:"snapshotsSkipped,omitempty"`
	// SealedSegments counts sealed segment files present.
	SealedSegments int `json:"sealedSegments"`
	// SegmentsReplayed counts segment files walked during replay.
	SegmentsReplayed int `json:"segmentsReplayed"`
	// RecordsReplayed counts record lines delivered to the replay
	// callback. The caller layers its own accept/reject counts on top.
	RecordsReplayed int `json:"recordsReplayed"`
	// RecordsSkipped counts store-level skips: oversized lines and
	// lines lost to a torn tail.
	RecordsSkipped int `json:"recordsSkipped"`
	// CorruptSegments counts sealed segments whose checksum or footer
	// failed verification (their parseable lines replay anyway).
	CorruptSegments int `json:"corruptSegments,omitempty"`
	// TornTail reports a half-written final record (normal after a
	// crash mid-append).
	TornTail bool `json:"tornTail,omitempty"`
	// Migrated reports that a legacy single-file journal was adopted
	// into this store before recovery.
	Migrated bool `json:"migrated,omitempty"`
	// Notes carries human-readable detail for every degraded decision.
	Notes []string `json:"notes,omitempty"`
}

// Recovery is a recovery decision: which snapshot state to import (if
// any) and which segments to replay after it. Build one with
// PlanRecovery, import State, then call Replay.
type Recovery struct {
	// State is the snapshot blob to import before replaying, nil when
	// no usable snapshot survived.
	State []byte
	// Report accumulates the outcome; Replay updates its counters.
	Report Report

	opts Options
	tail []segFile
}

// PlanRecovery inspects a store directory and picks the cheapest safe
// way back to the pre-crash state:
//
//  1. The newest snapshot whose checksum verifies and whose tail
//     segments (every sequence above its boundary) all exist.
//  2. Failing that, each older snapshot in turn under the same test.
//  3. Failing all snapshots, a full replay of every segment present.
//
// A store directory that does not exist or is empty plans a "fresh"
// recovery with nothing to do. PlanRecovery only reads snapshot files;
// segment contents are verified during Replay.
func PlanRecovery(opts Options) (*Recovery, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: no directory configured")
	}
	ls, err := listDir(opts.Dir)
	if err != nil {
		return nil, err
	}
	r := &Recovery{opts: opts}
	r.Report.Dir = opts.Dir
	r.Report.SealedSegments = len(ls.sealed)
	segs := allSegments(ls)
	if len(segs) == 0 && len(ls.snaps) == 0 {
		r.Report.Mode = "fresh"
		return r, nil
	}
	// A directory holding nothing but one empty active segment is a
	// virgin store that has merely been opened: Open creates the active
	// file eagerly, and recovery paths open the store before planning
	// so the plan matches the normalized directory.
	if len(ls.sealed) == 0 && len(ls.snaps) == 0 && len(segs) == 1 && ls.active != nil {
		if fi, err := os.Stat(ls.active.path); err == nil && fi.Size() == 0 {
			r.Report.Mode = "fresh"
			return r, nil
		}
	}
	if opts.SkipSnapshots {
		r.note("snapshots ignored by request; planning a full replay")
		r.tail = segs
		r.Report.Mode = "full-replay"
		noteGaps(r, segs)
		return r, nil
	}
	for i := len(ls.snaps) - 1; i >= 0; i-- {
		sf := ls.snaps[i]
		hdr, state, err := readSnapshotFile(sf.path)
		if err != nil {
			r.Report.SnapshotsSkipped++
			r.note("snapshot %08d rejected: %v", sf.upTo, err)
			continue
		}
		tail, gap := tailAfter(segs, hdr.UpTo)
		if gap != "" {
			r.Report.SnapshotsSkipped++
			r.note("snapshot %08d unusable: %s", sf.upTo, gap)
			continue
		}
		r.State = state
		r.tail = tail
		r.Report.Mode = "snapshot+tail"
		r.Report.SnapshotSeq = hdr.UpTo
		return r, nil
	}
	r.tail = segs
	r.Report.Mode = "full-replay"
	noteGaps(r, segs)
	return r, nil
}

// allSegments merges sealed and active segments ascending by sequence.
func allSegments(ls dirListing) []segFile {
	segs := append([]segFile(nil), ls.sealed...)
	if ls.active != nil {
		segs = append(segs, *ls.active)
	}
	// listDir keeps sealed ascending and the active has the highest
	// sequence the writer ever assigned, but a hand-edited directory
	// could violate that; re-sorting is cheap insurance.
	for i := 1; i < len(segs); i++ {
		for j := i; j > 0 && segs[j].seq < segs[j-1].seq; j-- {
			segs[j], segs[j-1] = segs[j-1], segs[j]
		}
	}
	return segs
}

// tailAfter selects the segments with sequence above upTo and checks
// contiguity: every sequence in (upTo, maxSeq] must be present, else
// replay would silently drop the records in the hole. A non-empty gap
// description means the snapshot at upTo cannot be used.
func tailAfter(segs []segFile, upTo uint64) ([]segFile, string) {
	var tail []segFile
	for _, sf := range segs {
		if sf.seq > upTo {
			tail = append(tail, sf)
		}
	}
	want := upTo + 1
	for _, sf := range tail {
		if sf.seq != want {
			return nil, fmt.Sprintf("missing tail segment(s) %08d..%08d", want, sf.seq-1)
		}
		want = sf.seq + 1
	}
	return tail, ""
}

// noteGaps records holes in a full-replay segment list — records in
// the holes are gone; the replay covers what survives.
func noteGaps(r *Recovery, segs []segFile) {
	for i := 1; i < len(segs); i++ {
		if segs[i].seq != segs[i-1].seq+1 {
			r.note("missing segment(s) %08d..%08d; replaying what exists", segs[i-1].seq+1, segs[i].seq-1)
		}
	}
}

func (r *Recovery) note(format string, args ...any) {
	r.Report.Notes = append(r.Report.Notes, fmt.Sprintf(format, args...))
}

// resolveSegmentPath finds a planned segment's current file. Between
// planning and replay the segment may have been renamed by Open —
// which finishes a fully-sealed-but-unrenamed active into its sealed
// name — or by a concurrent writer rolling the active segment (the
// coordinator's phased recovery opens every shard's store before the
// replay phase). The rename preserves every record line, so replaying
// the renamed file is exact; without the fallback the whole segment's
// acked records would be skipped as "unreadable" and the next
// compaction would delete them.
func (r *Recovery) resolveSegmentPath(sf segFile) string {
	if _, err := os.Stat(sf.path); err == nil || !os.IsNotExist(err) {
		return sf.path
	}
	var alt string
	switch {
	case strings.HasSuffix(sf.path, ".active"):
		alt = sealedPath(r.opts.Dir, sf.seq)
	case strings.HasSuffix(sf.path, ".seal"):
		alt = activePath(r.opts.Dir, sf.seq)
	default:
		return sf.path
	}
	if _, err := os.Stat(alt); err != nil {
		return sf.path
	}
	r.note("segment %08d renamed to %s since planning; replaying the renamed file", sf.seq, filepath.Base(alt))
	return alt
}

// Replay walks the planned segments in order, delivering every record
// line to fn. Sealed segments are checksum-verified first; a mismatch
// is counted and noted but the segment's parseable lines still replay
// (half a segment beats none). Oversized lines are skipped and
// counted. An error from fn aborts the walk — reserve it for
// cancellation; per-record rejections belong inside fn.
func (r *Recovery) Replay(ctx context.Context, fn func(rec []byte) error) error {
	for _, sf := range r.tail {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("store: replay canceled: %w", err)
		}
		if err := r.replaySegment(sf, fn); err != nil {
			return err
		}
	}
	return nil
}

// replaySegment replays one segment file. Unreadable files are noted
// and skipped (degraded boot); only an fn error propagates.
func (r *Recovery) replaySegment(sf segFile, fn func(rec []byte) error) error {
	path := r.resolveSegmentPath(sf)
	sealed := strings.HasSuffix(path, ".seal")
	if sealed {
		st, err := scanSegment(path, r.opts.MaxRecordBytes)
		switch {
		case err != nil:
			r.Report.CorruptSegments++
			r.note("segment %08d unreadable: %v", sf.seq, err)
			return nil
		case !st.sealed:
			r.Report.CorruptSegments++
			r.note("sealed segment %08d missing its footer; replaying its lines anyway", sf.seq)
		case st.footer.CRC32 != st.crc || st.footer.Bytes != st.goodBytes:
			r.Report.CorruptSegments++
			r.note("sealed segment %08d checksum mismatch (got %08x want %08x); replaying parseable lines", sf.seq, st.crc, st.footer.CRC32)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		r.Report.CorruptSegments++
		r.note("segment %08d unreadable: %v", sf.seq, err)
		return nil
	}
	defer f.Close()
	r.Report.SegmentsReplayed++
	torn, oversized, err := forEachLine(f, r.opts.MaxRecordBytes, func(line []byte) error {
		if _, ok := parseFooter(line); ok {
			return nil
		}
		if len(line) == 0 {
			return nil
		}
		r.Report.RecordsReplayed++
		return fn(line)
	})
	if err != nil {
		return err
	}
	r.Report.RecordsSkipped += oversized
	if torn {
		r.Report.RecordsSkipped++
		r.Report.TornTail = true
		if sealed {
			r.note("sealed segment %08d has a torn tail", sf.seq)
		} else {
			r.note("active segment %08d has a torn tail (crash mid-append); last record dropped", sf.seq)
		}
	}
	return nil
}
