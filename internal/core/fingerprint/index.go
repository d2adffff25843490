package fingerprint

import (
	"busprobe/internal/cellular"
	"busprobe/internal/transit"
)

// The inverted index accelerates per-sample matching and prunes it
// exactly. It maps cell ID → stops whose stored fingerprint contains it
// (once per occurrence), so one pass over the sample's cells counts,
// for every stop it reaches, the hits: the (i, j) pairs with
// sample[i] == entry[j].
//
// The pruning bound: a Smith–Waterman score is at most Match × hits.
// Mismatch and Gap are validated as non-negative, so only the aligned
// equal pairs add to a score, and an alignment's equal pairs are
// distinct (i, j) pairs — never more than hits. A stop whose
// Match × hits falls below γ can therefore never clear γ and is never
// aligned; stops the index does not reach at all (zero hits) score
// exactly 0. With the paper's Match = 1 and γ = 2, stops sharing a
// single tower occurrence with the sample are skipped, which is about
// half of all candidates on the paper world.
//
// The bound holds in floating point too. Rounding is monotone, so no
// DP cell can exceed the zero-penalty DP, whose cells are Match summed
// k times for k equal pairs in order. minHits is the fewest hits whose
// k-fold sum (accumulated the way the DP accumulates it) reaches γ.
//
// The index is maintained incrementally by Put/Delete and used
// automatically when γ > 0; results are identical to the full scan,
// which the tests assert.

// maxPruneHits caps the minHits search: if γ is out of reach of that
// many summed Match rewards, minHits prunes every stop with at most
// that many hits and aligns the rest.
const maxPruneHits = 1 << 10

// minHits returns the fewest index hits with which a stop can still
// score γ under the scoring's Match reward.
func minHits(sc Scoring, gamma float64) int {
	var sum float64
	for k := 1; k <= maxPruneHits; k++ {
		sum += sc.Match
		if sum >= gamma {
			return k
		}
	}
	return maxPruneHits + 1
}

// indexAddLocked registers a fingerprint's cells. Caller holds the write lock.
func (db *DB) indexAddLocked(stop transit.StopID, fp cellular.Fingerprint) {
	for _, c := range fp {
		db.index[c] = append(db.index[c], stop)
	}
}

// indexRemoveLocked unregisters a fingerprint's cells. Caller holds the write
// lock.
func (db *DB) indexRemoveLocked(stop transit.StopID, fp cellular.Fingerprint) {
	for _, c := range fp {
		list := db.index[c]
		out := list[:0]
		for _, s := range list {
			if s != stop {
				out = append(out, s)
			}
		}
		if len(out) == 0 {
			delete(db.index, c)
		} else {
			db.index[c] = out
		}
	}
}

// candidate is one stop the index pass reached, with its hit count.
type candidate struct {
	stop transit.StopID
	hits int
}

// candidateStopsLocked returns every stop with at least atLeast index
// hits for the sample, in first-hit order, reusing buf's capacity. The
// count is a linear probe over the stops found so far: a sample reaches
// only the handful of stops around it, so no map is needed, and nothing
// allocates while buf has room. Caller holds a read lock.
func (db *DB) candidateStopsLocked(buf []candidate, sample cellular.Fingerprint, atLeast int) []candidate {
	found := buf[:0]
	for _, c := range sample {
		for _, s := range db.index[c] {
			i := 0
			for i < len(found) && found[i].stop != s {
				i++
			}
			if i == len(found) {
				found = append(found, candidate{stop: s})
			}
			found[i].hits++
		}
	}
	kept := found[:0]
	for _, cd := range found {
		if cd.hits >= atLeast {
			kept = append(kept, cd)
		}
	}
	return kept
}
