package fingerprint

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"busprobe/internal/cellular"
	"busprobe/internal/transit"
)

// DefaultGamma is the acceptance threshold γ for per-sample matching:
// samples whose best similarity falls below it are discarded as noise.
// The paper sets γ = 2 from the Fig. 2 measurement study.
const DefaultGamma = 2.0

// Match is one candidate result of matching an uploaded cellular sample
// against the database.
type Match struct {
	Stop   transit.StopID
	Score  float64
	Common int // number of shared cell IDs (tie-breaker)
}

// DB is the bus-stop fingerprint database (§III-B "Bus stop database").
// It stores one representative fingerprint per logical stop and serves
// per-sample matching. It is safe for concurrent use: matching takes a
// read lock, updates a write lock, supporting the paper's online/offline
// database update model.
type DB struct {
	mu      sync.RWMutex
	entries map[transit.StopID]cellular.Fingerprint //lint:guardedby mu
	// index maps cell ID -> stops whose fingerprint contains it; see
	// index.go.
	index   map[cellular.CellID][]transit.StopID //lint:guardedby mu
	scoring Scoring
	gamma   float64
	// minHits is the index-hit floor below which no stop can clear γ;
	// see index.go.
	minHits int
}

// NewDB returns an empty database with the given scoring and γ
// threshold.
func NewDB(scoring Scoring, gamma float64) (*DB, error) {
	if err := scoring.Validate(); err != nil {
		return nil, err
	}
	if gamma < 0 {
		return nil, fmt.Errorf("fingerprint: negative gamma %v", gamma)
	}
	return &DB{
		entries: make(map[transit.StopID]cellular.Fingerprint),
		index:   make(map[cellular.CellID][]transit.StopID),
		scoring: scoring,
		gamma:   gamma,
		minHits: minHits(scoring, gamma),
	}, nil
}

// Scoring returns the alignment weights in use.
func (db *DB) Scoring() Scoring { return db.scoring }

// Gamma returns the acceptance threshold.
func (db *DB) Gamma() float64 { return db.gamma }

// Len returns the number of fingerprinted stops.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.entries)
}

// Put stores (or replaces) the fingerprint of a stop. The fingerprint is
// copied.
func (db *DB) Put(stop transit.StopID, fp cellular.Fingerprint) error {
	if len(fp) == 0 {
		return fmt.Errorf("fingerprint: empty fingerprint for stop %d", stop)
	}
	cp := make(cellular.Fingerprint, len(fp))
	copy(cp, fp)
	db.mu.Lock()
	if old, ok := db.entries[stop]; ok {
		db.indexRemoveLocked(stop, old)
	}
	db.entries[stop] = cp
	db.indexAddLocked(stop, cp)
	db.mu.Unlock()
	return nil
}

// Delete removes a stop's fingerprint (e.g. a decommissioned stop). It
// reports whether an entry existed.
func (db *DB) Delete(stop transit.StopID) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	fp, ok := db.entries[stop]
	if !ok {
		return false
	}
	db.indexRemoveLocked(stop, fp)
	delete(db.entries, stop)
	return true
}

// Get returns the stored fingerprint for a stop, if any.
func (db *DB) Get(stop transit.StopID) (cellular.Fingerprint, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	fp, ok := db.entries[stop]
	if !ok {
		return nil, false
	}
	cp := make(cellular.Fingerprint, len(fp))
	copy(cp, fp)
	return cp, true
}

// Stops returns the fingerprinted stop IDs in ascending order.
func (db *DB) Stops() []transit.StopID {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]transit.StopID, 0, len(db.entries))
	for id := range db.entries {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PutFromSamples selects a representative fingerprint from several
// collection runs and stores it: the sample with the highest total
// similarity to the other samples wins (§IV-A: "the sample with the
// highest similarity with the rest samples is chosen as the
// fingerprint").
func (db *DB) PutFromSamples(stop transit.StopID, samples []cellular.Fingerprint) error {
	if len(samples) == 0 {
		return fmt.Errorf("fingerprint: no samples for stop %d", stop)
	}
	bestIdx, bestTotal := 0, -1.0
	for i, s := range samples {
		var total float64
		for j, o := range samples {
			if i == j {
				continue
			}
			total += Similarity(s, o, db.scoring)
		}
		if total > bestTotal {
			bestIdx, bestTotal = i, total
		}
	}
	return db.Put(stop, samples[bestIdx])
}

// MatchAll scores a sample against the stored stops and returns the
// candidates at or above γ, best first. Ordering is by score, then by
// common-ID count, then ascending stop ID for determinism. With γ > 0
// the inverted index restricts alignment to stops whose index hits can
// still reach γ (see index.go; the pruned stops provably score below
// it); γ = 0 falls back to the exhaustive scan so every stop can be
// returned.
func (db *DB) MatchAll(sample cellular.Fingerprint) []Match {
	if len(sample) == 0 {
		return nil
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := db.matchLocked(nil, sample)
	sortMatches(out)
	return out
}

// matchLocked appends the sample's γ survivors to dst, unordered: the
// indexed path when γ > 0, the exhaustive scan otherwise. Caller holds
// a read lock.
func (db *DB) matchLocked(dst []Match, sample cellular.Fingerprint) []Match {
	if db.gamma > 0 {
		return db.matchIndexedLocked(dst, sample)
	}
	return db.matchScanLocked(dst, sample)
}

// matchIndexedLocked aligns the sample against the index candidates
// that survive the hit bound only. Caller holds a read lock and
// guarantees γ > 0, so the pruned stops cannot change the result.
func (db *DB) matchIndexedLocked(dst []Match, sample cellular.Fingerprint) []Match {
	var buf [64]candidate
	for _, cd := range db.candidateStopsLocked(buf[:0], sample, db.minHits) {
		fp := db.entries[cd.stop]
		score := Similarity(sample, fp, db.scoring)
		if score >= db.gamma {
			dst = append(dst, Match{Stop: cd.stop, Score: score, Common: CommonIDs(sample, fp)})
		}
	}
	return dst
}

// matchScanLocked aligns the sample against every stored stop. Caller
// holds a read lock.
func (db *DB) matchScanLocked(dst []Match, sample cellular.Fingerprint) []Match {
	for stop, fp := range db.entries {
		score := Similarity(sample, fp, db.scoring)
		if score >= db.gamma {
			dst = append(dst, Match{Stop: stop, Score: score, Common: CommonIDs(sample, fp)}) //lint:allow maporder survivors are unordered by contract; every reader sorts or takes the total-order minimum
		}
	}
	return dst
}

// matchAllScan is the exhaustive-scan reference implementation of
// MatchAll, kept for the equivalence tests and benchmarks that compare
// the inverted-index path against it.
func (db *DB) matchAllScan(sample cellular.Fingerprint) []Match {
	if len(sample) == 0 {
		return nil
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := db.matchScanLocked(nil, sample)
	sortMatches(out)
	return out
}

// compareMatches orders candidates best-first: higher score, then more
// common IDs, then ascending stop ID. Stops are unique, so the order is
// total and the result deterministic.
func compareMatches(a, b Match) int {
	switch {
	case a.Score != b.Score:
		return cmp.Compare(b.Score, a.Score)
	case a.Common != b.Common:
		return cmp.Compare(b.Common, a.Common)
	default:
		return cmp.Compare(a.Stop, b.Stop)
	}
}

// sortMatches orders candidates best-first with deterministic ties.
func sortMatches(out []Match) {
	slices.SortFunc(out, compareMatches)
}

// Match returns the best candidate for a sample, applying the γ filter
// and the common-ID tie-break — MatchAll's first element, found without
// sorting or allocating. ok is false when no stop clears γ — the paper
// discards such samples "without further processing".
func (db *DB) Match(sample cellular.Fingerprint) (Match, bool) {
	if len(sample) == 0 {
		return Match{}, false
	}
	var buf [16]Match
	db.mu.RLock()
	all := db.matchLocked(buf[:0], sample)
	db.mu.RUnlock()
	if len(all) == 0 {
		return Match{}, false
	}
	return slices.MinFunc(all, compareMatches), true
}
