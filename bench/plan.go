package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"

	"busprobe/internal/clock"
	"busprobe/internal/lab"
	"busprobe/internal/probe"
	"busprobe/internal/server"
	"busprobe/internal/store"
)

// Workload shapes.
const (
	ingestBatch     = 4   // trips per /v1/trips/batch request
	ingestCohorts   = 8   // ingest corpus: one day of ~8k riders
	readerCohorts   = 2   // map-readers store population, in cohorts
	trickleRate     = 200 // map-readers single-trip uploads per second
	readRate        = 400 // map-readers reads per second
	readerTailTrips = 256 // map-readers store records after the checkpoint
	checkpoints     = 4   // served-map correctness checks per run
)

// plan is one run's generated inputs: what the drive uploads, in which
// order, and where the served map is checked against the reference.
type plan struct {
	workload string
	seed     uint64
	seconds  int
	// deliver is the upload sequence of the drive.
	deliver []*corpusTrip
	// base holds map-readers' pre-built store contents; its last tail
	// trips were appended after the checkpoint.
	base []*corpusTrip
	tail int
	// batch is the trips per upload request (1 = single-trip uploads).
	batch int
	// checks are prefix lengths of deliver after which the served map
	// must equal the reference replay of base plus that prefix.
	checks []int
	shards int
}

// makePlan generates (or loads) the seed's inputs for one workload.
func makePlan(ctx context.Context, dep *lab.Deployment, work, workload string, seed uint64, seconds int) (*plan, error) {
	p := &plan{workload: workload, seed: seed, seconds: seconds, batch: ingestBatch, shards: 1}
	switch workload {
	case "rush-hour", "late-uploads":
		// Runs shorter than ingestCohorts seconds post a smaller day, so
		// one drive still fits in the run.
		n := seconds
		if n < 2 {
			n = 2
		}
		if n > ingestCohorts {
			n = ingestCohorts
		}
		cohorts, err := loadCohorts(ctx, dep, work, seed, n)
		if err != nil {
			return nil, err
		}
		if workload == "rush-hour" {
			p.deliver = byConclusion(cohorts)
		} else {
			p.deliver = byCohort(cohorts)
		}
		batches := (len(p.deliver) + p.batch - 1) / p.batch
		for q := 1; q <= checkpoints; q++ {
			at := (batches*q + checkpoints - 1) / checkpoints * p.batch
			if at > len(p.deliver) {
				at = len(p.deliver)
			}
			p.checks = append(p.checks, at)
		}
	case "map-readers":
		// About 2k riders' trips in the store, then the trickle.
		cohorts, err := loadCohorts(ctx, dep, work, seed, readerCohorts+(trickleRate*seconds+cohortSize-1)/cohortSize)
		if err != nil {
			return nil, err
		}
		all := byConclusion(cohorts)
		n := trickleRate * seconds
		p.base, p.deliver = all[:len(all)-n], all[len(all)-n:]
		p.tail = readerTailTrips
		p.batch = 1
		p.shards = 2
		for q := 1; q <= checkpoints; q++ {
			p.checks = append(p.checks, n*q/checkpoints)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return p, nil
}

// key names the plan's cached artifacts by the plan's shape.
func (p *plan) key() string {
	return fmt.Sprintf("%s-%d-%d-%d", p.workload, len(p.base), p.tail, len(p.deliver))
}

// reference is the in-process monolith replay of a plan's uploads: the
// /v1/traffic bytes the server must serve at each check, and the
// 5-minute window of every leg observation each trip can yield, in
// delivery order (base first), from which estimate.late_frac derives.
type reference struct {
	Maps    []string  `json:"maps"`
	Windows [][]int32 `json:"windows"`
}

// loadReference returns the plan's reference, replaying and caching it
// on first use. The estimator folds a set of observations to the same
// map in any order, so the replay's order need not match the server's.
func loadReference(ctx context.Context, dep *lab.Deployment, work string, p *plan) (*reference, error) {
	path := filepath.Join(seedDir(work, p.seed), "ref-"+p.key()+".json")
	if data, err := os.ReadFile(path); err == nil {
		var ref reference
		if err := json.Unmarshal(data, &ref); err == nil && len(ref.Maps) == len(p.checks) {
			return &ref, nil
		}
	}
	b, err := dep.NewBackend()
	if err != nil {
		return nil, err
	}
	ref := &reference{}
	replay := func(trips []*corpusTrip) error {
		batch := make([]probe.Trip, len(trips))
		for i, t := range trips {
			batch[i] = t.trip
		}
		for i, res := range b.ProcessTrips(ctx, batch, 2) {
			if res.Err != nil {
				return fmt.Errorf("reference replay of %s: %w", trips[i].trip.ID, res.Err)
			}
			ref.Windows = append(ref.Windows, legWindows(res.Trip.Visits, dep.Cfg.PeriodS))
		}
		return nil
	}
	if err := replay(p.base); err != nil {
		return nil, err
	}
	done := 0
	for _, at := range p.checks {
		if err := replay(p.deliver[done:at]); err != nil {
			return nil, err
		}
		done = at
		body, err := trafficBytes(b)
		if err != nil {
			return nil, err
		}
		ref.Maps = append(ref.Maps, string(body))
	}
	data, err := json.Marshal(ref)
	if err != nil {
		return nil, err
	}
	return ref, writeAtomic(path, data)
}

// legWindows lists the update window of each leg observation a mapped
// visit sequence can yield: consecutive visits to distinct stops, timed
// at the arrival (the extract stage's observation timestamp).
func legWindows(visits []server.VisitRecord, periodS float64) []int32 {
	var out []int32
	for i := 0; i+1 < len(visits); i++ {
		if visits[i].Stop != visits[i+1].Stop {
			out = append(out, int32(visits[i+1].ArriveS/periodS))
		}
	}
	return out
}

// lateFrac is the share of observations whose window is older than the
// newest window delivered before them: the estimator has already
// folded that window and must replay the segment's fold chain.
func lateFrac(windows [][]int32) float64 {
	var late, total int
	newest := int32(-1 << 30)
	for _, ws := range windows {
		for _, w := range ws {
			if w < newest {
				late++
			}
			if w > newest {
				newest = w
			}
			total++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(late) / float64(total)
}

// trafficBytes renders an in-process API's /v1/traffic exactly as the
// wire serves it, through the real handler.
func trafficBytes(api server.API) ([]byte, error) {
	rec := httptest.NewRecorder()
	server.NewHandler(api, server.HandlerConfig{}).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/traffic", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("reference /v1/traffic status %d", rec.Code)
	}
	return rec.Body.Bytes(), nil
}

// storeOptions are busprobe-server's default store flags for one
// shard directory.
func storeOptions(dir string) store.Options {
	return store.Options{Dir: dir, SnapshotEvery: 50000, Clock: clock.Wall{}}
}

// loadReaderStore returns map-readers' pre-built store directory,
// building and caching it on first use: a -shards 2 deployment ingests
// the base day, checkpoints every shard, appends the tail, and closes
// its logs without a final checkpoint, so a boot recovers from the
// snapshot plus a replayed tail.
func loadReaderStore(ctx context.Context, dep *lab.Deployment, work string, p *plan) (string, error) {
	dir := filepath.Join(seedDir(work, p.seed), "store-"+p.key())
	if _, err := os.Stat(dir); err == nil {
		return dir, nil
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return "", err
	}
	coord, err := dep.NewCoordinator(p.shards)
	if err != nil {
		return "", err
	}
	recs, err := coord.RecoverStores(ctx, tmp, storeOptions(""), nil)
	if err != nil {
		return "", err
	}
	ingest := func(trips []*corpusTrip) error {
		batch := make([]probe.Trip, len(trips))
		for i, t := range trips {
			batch[i] = t.trip
		}
		for i, res := range coord.ProcessTrips(ctx, batch, 2) {
			if res.Err != nil {
				return fmt.Errorf("pre-build store: %s: %w", trips[i].trip.ID, res.Err)
			}
		}
		return nil
	}
	cut := len(p.base) - p.tail
	err = ingest(p.base[:cut])
	for _, b := range coord.Shards() {
		if err == nil {
			err = b.Checkpoint()
		}
	}
	if err == nil {
		err = ingest(p.base[cut:])
	}
	for _, r := range recs {
		if r.Err != "" && err == nil {
			err = fmt.Errorf("pre-build store: shard %d: %s", r.Shard, r.Err)
		}
		if l := r.Log(); l != nil {
			if cerr := l.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}
	if err != nil {
		return "", err
	}
	return dir, os.Rename(tmp, dir)
}
