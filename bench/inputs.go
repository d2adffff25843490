package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"busprobe/internal/lab"
	"busprobe/internal/probe"
	"busprobe/internal/sim"
)

// Every workload runs on the paper world with master seed 1, the city
// busprobe-server builds by default. The workload seed varies the
// riders, not the city, so each run boots the same server and only the
// uploads differ.
const (
	worldPreset = "paper"
	worldSeed   = 1
	surveyRuns  = 4 // busprobe-server's default -survey-runs
	cohortSize  = sim.DefaultCohortSize
	// keepSeeds bounds the input cache: only the most recently used
	// seeds keep their generated corpus and references on disk.
	keepSeeds = 32
)

// corpusTrip is one generated upload: the decoded trip (for in-process
// replays and input statistics) and its pre-encoded JSON, the exact
// bytes the load generator sends.
type corpusTrip struct {
	trip probe.Trip
	body []byte
}

// endS is the trip's conclusion time: its last sample.
func (c *corpusTrip) endS() float64 { return c.trip.Samples[len(c.trip.Samples)-1].TimeS }

// newDeployment derives the world, serving config and fingerprint
// database exactly as busprobe-server does at boot.
func newDeployment() (*lab.Deployment, error) {
	wc, err := sim.PresetWorldConfig(worldPreset)
	if err != nil {
		return nil, err
	}
	wc.Seed = worldSeed
	return lab.NewDeployment(wc, surveyRuns)
}

// seedDir is the cache directory of one workload seed.
func seedDir(work string, seed uint64) string {
	return filepath.Join(work, "cache", "s"+strconv.FormatUint(seed, 10))
}

// campaign is one simulated day in which every rider takes one trip on
// average.
func campaign(seed uint64) sim.CampaignConfig {
	cfg := sim.DefaultCampaignConfig()
	cfg.Days = 1
	cfg.SparseTripsPerDay = 1
	cfg.IntensiveTripsPerDay = 1
	cfg.IntensiveFromDay = 0
	cfg.Seed = seed*0x9e3779b97f4a7c15 ^ 0xb05
	return cfg
}

// loadCohorts returns cohorts [0, n) of the seed's rider population,
// generating (two cohorts at a time) and caching the ones not on disk.
// Cohort k is riders [k*cohortSize, (k+1)*cohortSize): sim.StreamTrips
// derives every rider from its global index, so a cohort generated
// alone equals the same cohort of one large stream.
func loadCohorts(ctx context.Context, dep *lab.Deployment, work string, seed uint64, n int) ([][]*corpusTrip, error) {
	dir := seedDir(work, seed)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	now := wallNow()
	if err := os.Chtimes(dir, now, now); err != nil {
		return nil, err
	}
	if err := pruneCache(filepath.Dir(dir)); err != nil {
		return nil, err
	}
	out := make([][]*corpusTrip, n)
	errs := make([]error, n)
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(k int) {
			defer wg.Done()
			defer func() { <-sem }()
			out[k], errs[k] = loadCohort(ctx, dep, dir, seed, k)
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// loadCohort reads one cohort from the cache, generating it first if
// it is missing.
func loadCohort(ctx context.Context, dep *lab.Deployment, dir string, seed uint64, k int) ([]*corpusTrip, error) {
	path := filepath.Join(dir, fmt.Sprintf("cohort-%03d.jsonl.gz", k))
	data, err := readGzip(path)
	if os.IsNotExist(err) {
		data, err = generateCohort(ctx, dep, seed, k)
		if err == nil {
			err = writeGzip(path, data)
		}
	}
	if err != nil {
		return nil, err
	}
	var trips []*corpusTrip
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		ct := &corpusTrip{body: append([]byte(nil), sc.Bytes()...)}
		if err := json.Unmarshal(ct.body, &ct.trip); err != nil {
			return nil, fmt.Errorf("cohort %d: %w", k, err)
		}
		if len(ct.trip.Samples) == 0 {
			return nil, fmt.Errorf("cohort %d: trip %s has no samples", k, ct.trip.ID)
		}
		trips = append(trips, ct)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("cohort %d: %w", k, err)
	}
	return trips, nil
}

// generateCohort simulates one cohort's day and returns its trips as
// JSON lines in the order the phones concluded them.
func generateCohort(ctx context.Context, dep *lab.Deployment, seed uint64, k int) ([]byte, error) {
	cfg := campaign(seed)
	cfg.Participants = cohortSize
	cfg.ParticipantOffset = k * cohortSize
	var buf bytes.Buffer
	_, err := sim.StreamTrips(ctx, dep.World, sim.StreamConfig{Campaign: cfg, CohortSize: cohortSize}, func(t probe.Trip) error {
		line, err := json.Marshal(t)
		if err != nil {
			return err
		}
		buf.Write(line)
		buf.WriteByte('\n')
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("generate cohort %d: %w", k, err)
	}
	return buf.Bytes(), nil
}

// readGzip reads a gzip-compressed cache file.
func readGzip(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return io.ReadAll(zr)
}

// writeGzip compresses data into a cache file.
func writeGzip(path string, data []byte) error {
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
	if err != nil {
		return err
	}
	if _, err := zw.Write(data); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return writeAtomic(path, buf.Bytes())
}

// writeAtomic lands a cache file under its final name only once it is
// complete, so an interrupted run never leaves a truncated input.
func writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// pruneCache deletes all but the keepSeeds most recently used seed
// directories.
func pruneCache(root string) error {
	ents, err := os.ReadDir(root)
	if err != nil {
		return err
	}
	type dirAge struct {
		path string
		mod  time.Time
	}
	var dirs []dirAge
	for _, e := range ents {
		info, err := e.Info()
		if err != nil || !e.IsDir() {
			continue
		}
		dirs = append(dirs, dirAge{filepath.Join(root, e.Name()), info.ModTime()})
	}
	sort.Slice(dirs, func(i, j int) bool { return dirs[i].mod.After(dirs[j].mod) })
	for i := keepSeeds; i < len(dirs); i++ {
		if err := os.RemoveAll(dirs[i].path); err != nil {
			return err
		}
	}
	return nil
}

// byConclusion merges cohorts into one stream ordered by trip
// conclusion time (ties keep cohort order).
func byConclusion(cohorts [][]*corpusTrip) []*corpusTrip {
	var all []*corpusTrip
	for _, c := range cohorts {
		all = append(all, c...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].endS() < all[j].endS() })
	return all
}

// byCohort delivers each cohort's whole day at once, cohort after
// cohort, each in conclusion order.
func byCohort(cohorts [][]*corpusTrip) []*corpusTrip {
	var all []*corpusTrip
	for _, c := range cohorts {
		all = append(all, byConclusion([][]*corpusTrip{c})...)
	}
	return all
}

// batchBody encodes trips as one /v1/trips/batch request body.
func batchBody(trips []*corpusTrip) []byte {
	var buf bytes.Buffer
	buf.WriteByte('[')
	for i, t := range trips {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.Write(t.body)
	}
	buf.WriteByte(']')
	return buf.Bytes()
}
