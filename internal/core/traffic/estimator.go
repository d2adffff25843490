package traffic

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"busprobe/internal/road"
	"busprobe/internal/stats"
)

// DefaultPeriodS is the paper's traffic-map refresh period T = 5 min.
const DefaultPeriodS = 300.0

// DefaultSingleReportVar is the variance assigned to an update window
// holding a single speed report, for which no sample variance exists.
const DefaultSingleReportVar = 25.0 // (5 km/h)^2

// DefaultDriftVarPerS is the process-noise rate: how fast the historic
// estimate's variance inflates between updates. Eq. 4 alone contracts
// variance monotonically, which would freeze the estimate at the all-day
// mean; traffic drifts (rush hours build and dissolve), so the tracker
// must forget. At 0.02 (km/h)^2/s a 30-minute-old belief has gained
// (6 km/h)^2 of uncertainty — it still dominates a single fresh report
// but yields to a consistent new window, which is what lets Fig. 10's
// v_A follow v_T through the day.
const DefaultDriftVarPerS = 0.02

// Observation is one bus travel-time measurement over the road segments
// between two (possibly non-adjacent, §III-D skipped-stop merging)
// consecutive identified stops of a mapped trip.
type Observation struct {
	// Segments are the directed road segments covered.
	Segments []road.SegmentID
	// LengthM is the total covered length.
	LengthM float64
	// FreeKmh is the free-flow automobile speed over the stretch.
	FreeKmh float64
	// BTTSeconds is the measured bus travel time (departing previous
	// stop to arriving at this one).
	BTTSeconds float64
	// TimeS is the observation timestamp.
	TimeS float64
}

// segState is the per-segment estimator state: the fused historic belief
// plus the retained per-window report sets it was folded from.
type segState struct {
	sid  road.SegmentID
	hist Estimate
	// base / baseIdx checkpoint the belief at the last Compact: windows
	// below baseIdx have been discarded, so the fold chain replays from
	// base instead of from scratch.
	base    Estimate
	baseIdx int64
	// foldedIdx is the exclusive upper window index already folded into
	// hist. Always >= baseIdx.
	foldedIdx int64
	// dirty marks that a report landed in an already-folded window (an
	// out-of-order delivery); the fold chain is replayed from base on
	// the next settle.
	dirty bool
	// windows holds each update window's speed reports, ascending by
	// window index, so settling walks the due windows in order without
	// sorting.
	windows []window
}

// window is one update window's speed reports, kept sorted so the fold
// is a pure function of the report multiset — delivery order never
// changes an estimate.
type window struct {
	idx    int64
	speeds []float64
}

// search returns the position of window idx in st.windows and whether
// it is present; absent, the position is where it would be inserted.
func (st *segState) search(idx int64) (int, bool) {
	return slices.BinarySearchFunc(st.windows, idx, func(w window, idx int64) int {
		return cmp.Compare(w.idx, idx)
	})
}

// addReport inserts one speed report into window idx, keeping both the
// windows and the window's reports sorted.
func (st *segState) addReport(idx int64, speed float64) {
	i, ok := st.search(idx)
	if !ok {
		st.windows = slices.Insert(st.windows, i, window{idx: idx})
	}
	w := &st.windows[i]
	w.speeds = slices.Insert(w.speeds, sort.SearchFloat64s(w.speeds, speed), speed)
}

// Estimator maintains the per-segment traffic estimates: observations
// accumulate into periodic update windows, and completed windows are
// folded into the Bayesian belief (Eq. 4) in window order.
//
// Folding is deterministic in the *set* of observations, not their
// arrival order: reports are bucketed by their own timestamps, each
// window's reports are kept sorted, and a report arriving for an
// already-folded window replays the segment's fold chain. Two runs that
// deliver the same observations — in any order, with any interleaving
// of Advance calls — therefore produce byte-identical estimates, which
// is what lets the chaos harness assert that duplicated and reordered
// uploads cannot corrupt the traffic map. Safe for concurrent use.
//
// Reads never take the mutex: every mutator settles the fold eagerly
// and, when any belief changed, publishes a fresh immutable Snapshot
// through an atomic pointer. Because the fold is a pure function of
// the report multiset and the watermark — and only mutators move
// either — settling eagerly at mutation time yields exactly the
// estimates the previous read-time settle produced.
type Estimator struct {
	mu        sync.Mutex
	model     Model
	periodS   float64
	driftPerS float64
	segs      map[road.SegmentID]*segState //lint:guardedby mu
	// watermarkIdx is the exclusive upper window index due for folding:
	// windows below it are complete. It advances with observation and
	// Advance timestamps and never retreats.
	watermarkIdx int64 //lint:guardedby mu
	lateDropped  int   //lint:guardedby mu
	// snap is the published copy-on-write state; Get/Snapshot/View load
	// it without locking. Mutators swap it under mu, so versions are
	// monotone.
	snap atomic.Pointer[Snapshot]
}

// NewEstimator returns an estimator with the given transit model, update
// period, and process-noise rate (use DefaultDriftVarPerS; 0 disables
// forgetting and reduces to pure Eq. 4).
func NewEstimator(model Model, periodS, driftVarPerS float64) (*Estimator, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if periodS <= 0 {
		return nil, fmt.Errorf("traffic: non-positive period %v", periodS)
	}
	if driftVarPerS < 0 {
		return nil, fmt.Errorf("traffic: negative drift rate %v", driftVarPerS)
	}
	e := &Estimator{
		model:     model,
		periodS:   periodS,
		driftPerS: driftVarPerS,
		segs:      make(map[road.SegmentID]*segState),
	}
	e.snap.Store(EmptySnapshot())
	return e, nil
}

// Model returns the transit model in use.
func (e *Estimator) Model() Model { return e.model }

// windowOf buckets a timestamp into its update-window index.
func (e *Estimator) windowOf(tS float64) int64 {
	return int64(math.Floor(tS / e.periodS))
}

// AddObservations converts each bus observation to an automobile speed
// via Eq. 3 and buckets it into the update window of its own timestamp
// on every covered segment (the uniform-speed-along-leg assumption).
// Observation times also advance the fold watermark, so a fresher
// report implicitly completes older windows.
//
// The whole batch lands under one lock hold: every report is bucketed
// first, then the touched segments (every segment, if the watermark
// moved) settle once and the snapshot publishes at most once. Since the
// fold is a pure function of the report multiset and the watermark, a
// batch settles to exactly the estimates the same observations fed one
// call at a time would; a late report just replays its segment's fold
// chain once per batch instead of once per observation, and a reader
// never sees half a batch. Invalid observations (no segments, bad
// geometry, non-positive BTT) are skipped without failing the rest:
// accepted counts the valid ones and err joins the rejections.
func (e *Estimator) AddObservations(obs []Observation) (accepted int, err error) {
	var errs []error
	e.mu.Lock()
	defer e.mu.Unlock()
	advanced := false
	var touched []*segState
	for _, o := range obs {
		if len(o.Segments) == 0 {
			errs = append(errs, fmt.Errorf("traffic: observation covers no segments"))
			continue
		}
		speed, convErr := e.model.SpeedKmh(o.LengthM, o.FreeKmh, o.BTTSeconds)
		if convErr != nil {
			errs = append(errs, convErr)
			continue
		}
		accepted++
		idx := e.windowOf(o.TimeS)
		if idx > e.watermarkIdx {
			e.watermarkIdx = idx
			advanced = true
		}
		for _, sid := range o.Segments {
			st := e.segs[sid]
			if st == nil {
				st = &segState{sid: sid}
				e.segs[sid] = st
			}
			if idx < st.baseIdx {
				// The window was compacted away; the report arrived
				// too late to be honored.
				e.lateDropped++
				continue
			}
			st.addReport(idx, speed)
			if idx < st.foldedIdx {
				st.dirty = true
			}
			touched = append(touched, st)
		}
	}
	if advanced {
		e.settleAllAndPublishLocked()
	} else {
		// Filter touched in place down to the segments whose belief
		// moved. A segment touched twice settles once: the second
		// settle finds it folded up to the watermark and returns false.
		changed := touched[:0]
		for _, st := range touched {
			if e.settleLocked(st) {
				changed = append(changed, st)
			}
		}
		e.publishLocked(changed)
	}
	return accepted, errors.Join(errs...)
}

// Advance moves the fold watermark to the given time and folds completed
// windows. Call it from the clock driver.
func (e *Estimator) Advance(nowS float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if idx := e.windowOf(nowS); idx > e.watermarkIdx {
		e.watermarkIdx = idx
	}
	e.settleAllAndPublishLocked()
}

// settleAllAndPublishLocked folds every segment up to the watermark and
// publishes the beliefs that moved.
func (e *Estimator) settleAllAndPublishLocked() {
	var changed []*segState
	for _, st := range e.segs {
		if e.settleLocked(st) {
			changed = append(changed, st) //lint:allow maporder publishLocked writes the list into maps; its order never escapes
		}
	}
	e.publishLocked(changed)
}

// settleLocked brings one segment's belief up to the watermark: a dirty
// segment (late report) replays its fold chain from the checkpoint,
// then every complete unfolded window is folded in ascending order.
// Each window folds at its own end boundary regardless of when settle
// runs, so the result depends only on the report multiset and the
// watermark. The return reports whether any fold ran — i.e. whether
// the belief may differ from the published snapshot.
func (e *Estimator) settleLocked(st *segState) bool {
	replayed := false
	if st.dirty {
		st.hist = st.base
		st.foldedIdx = st.baseIdx
		st.dirty = false
		replayed = true
	}
	if st.foldedIdx >= e.watermarkIdx {
		return replayed
	}
	folded := false
	i, _ := st.search(st.foldedIdx)
	for ; i < len(st.windows) && st.windows[i].idx < e.watermarkIdx; i++ {
		w := st.windows[i]
		var acc stats.Accumulator
		for _, v := range w.speeds {
			acc.Add(v)
		}
		v := acc.Mean()
		varV := acc.Var()
		if acc.N() < 2 || varV <= 0 {
			varV = DefaultSingleReportVar
		}
		endS := float64(w.idx+1) * e.periodS
		st.hist = fuseAt(Inflate(st.hist, endS, e.driftPerS), v, varV, endS)
		folded = true
	}
	st.foldedIdx = e.watermarkIdx
	return replayed || folded
}

// publishLocked swaps in a fresh immutable snapshot carrying the
// settled beliefs of changed, the segments a settle may have moved;
// every other segment keeps its published estimate and change mark.
// Only value-visible changes count: when every listed belief equals its
// published estimate nothing is published, so the version only moves
// on a visible change. The published maps are cloned before the
// changed entries are written, never written in place. A single
// estimator never removes a segment — a belief's report count never
// falls — so unlike NextSnapshot this only adds and updates, and the
// removal marks carry over untouched.
func (e *Estimator) publishLocked(changed []*segState) {
	prev := e.snap.Load()
	ver := prev.Version + 1
	var estimates map[road.SegmentID]Estimate
	var changedAt map[road.SegmentID]uint64
	for _, st := range changed {
		if st.hist.Reports == 0 {
			continue
		}
		if old, ok := prev.Estimates[st.sid]; ok && old == st.hist {
			continue
		}
		if estimates == nil {
			estimates, changedAt = maps.Clone(prev.Estimates), maps.Clone(prev.ChangedAt)
		}
		estimates[st.sid] = st.hist
		changedAt[st.sid] = ver
	}
	if estimates == nil {
		return
	}
	e.snap.Store(&Snapshot{Version: ver, Estimates: estimates, ChangedAt: changedAt, RemovedAt: prev.RemovedAt})
}

// Compact checkpoints every segment's belief and discards the folded
// window reports behind it, bounding the estimator's memory on long
// deployments. Reports arriving for a compacted window afterwards are
// dropped and counted by LateDropped — compaction trades unbounded
// reorder tolerance for bounded state, so run it no more often than the
// staleness the upload path can produce.
func (e *Estimator) Compact() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.settleAllAndPublishLocked()
	for _, st := range e.segs {
		st.base = st.hist
		st.baseIdx = st.foldedIdx
		cut, _ := st.search(st.baseIdx)
		st.windows = slices.Delete(st.windows, 0, cut)
	}
}

// LateDropped counts reports that arrived after their window was
// compacted away and could not be folded.
func (e *Estimator) LateDropped() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lateDropped
}

// fuseAt is Fuse plus the update timestamp.
func fuseAt(hist Estimate, v, varV, atS float64) Estimate {
	out := Fuse(hist, v, varV)
	out.UpdatedS = atS
	return out
}

// Get returns the fused estimate for a segment, if any window has been
// folded for it yet. Lock-free: it reads the published snapshot.
func (e *Estimator) Get(sid road.SegmentID) (Estimate, bool) {
	est, ok := e.snap.Load().Estimates[sid]
	return est, ok
}

// View returns the current published snapshot: an immutable, shared,
// versioned value readers may hold indefinitely. Lock-free. Callers
// must not mutate its maps.
func (e *Estimator) View() *Snapshot {
	return e.snap.Load()
}

// Snapshot returns the current fused estimate of every segment with at
// least one folded report, as a mutable copy the caller owns.
// Lock-free; use View to avoid the copy.
func (e *Estimator) Snapshot() map[road.SegmentID]Estimate {
	return e.snap.Load().CloneEstimates()
}

// CoveredSegments returns the IDs with folded estimates, ascending.
func (e *Estimator) CoveredSegments() []road.SegmentID {
	snap := e.View()
	out := make([]road.SegmentID, 0, len(snap.Estimates))
	for sid := range snap.Estimates {
		out = append(out, sid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
