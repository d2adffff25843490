package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"

	"busprobe/internal/lab"
	"busprobe/internal/road"
	"busprobe/internal/server"
	"busprobe/internal/server/stage"
	"busprobe/internal/sim"
)

// runTraced hosts the server stack in-process with spans around each
// layer and drives it exactly as the untraced run drives the binary.
func runTraced(ctx context.Context, dep *lab.Deployment, o options, p *plan, ref *reference, storeDir, runDir string, w *printer) (*result, error) {
	dir, err := freshStore(runDir, storeDir, 0)
	if err != nil {
		return nil, err
	}
	h, err := host(ctx, dep, dir, p.shards)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			_, _ = h.stop() //lint:allow errcheckio cleanup after an earlier error, which is the one reported
		}
	}()
	bytes0, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	v0 := h.versions()
	mon := startStealMonitor()
	defer mon.close()
	d := runDrive(ctx, h.url, dep, p, ref)
	pipeline, err := fetchPipeline(ctx, h.url)
	if err != nil {
		return nil, err
	}
	bytes1, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	v1 := h.versions()
	stopped = true
	checkpoint, err := h.stop()
	if err != nil {
		return nil, err
	}
	e2e := endToEndResult(dep, p, []*drive{d}, mon, w)
	printMetrics(w, e2e, "traced: in-process stack (compare with the untraced figures for the tracing overhead)")
	replayed := 0
	for _, r := range h.recs {
		replayed += r.TripsReplayed + r.ScatterReplayed
	}
	cand, viable := candidates(dep.FPDB, p.deliver)
	spans := h.tr.snapshot()
	l := analyze(&layerRun{
		spans: spans, t0: h.tr.t0, drive: d, ref: ref,
		recover: h.recover, replayed: replayed, checkpoint: checkpoint,
		storeBytes: bytes1 - bytes0, versions: v1 - v0, pipeline: pipeline,
		candPerSamp: cand, viablePerSmp: viable,
	})
	res := &result{workload: p.workload, trace: true, metrics: l.metrics, problems: e2e.problems, attempted: d.attempted, failed: d.failed}
	printMetrics(w, res, "per-layer (traced)")
	printTable(w, "  reconciliation, µs per uploaded trip", l.recon)
	w.printf("  stage spans against the program's own /v1/pipeline counters:\n")
	for _, line := range l.xcheck {
		w.printf("    %s\n", line)
	}
	if err := writeSpans(filepath.Join(o.work, "traces", p.workload+".jsonl"), spans); err != nil {
		return nil, err
	}
	return res, nil
}

// fetchPipeline reads the program's per-stage counters.
func fetchPipeline(ctx context.Context, url string) ([]stage.Metrics, error) {
	c := newConn(url)
	defer c.close()
	status, _, body, err := c.do(ctx, http.MethodGet, "/v1/pipeline", nil, "")
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/pipeline: status %d, err %v", status, err)
	}
	var ms []stage.Metrics
	return ms, json.Unmarshal(body, &ms)
}

// writeSpans writes the run's spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() //lint:allow errcheckio the encode error is the one reported
			return err
		}
	}
	return f.Close()
}

// speedError is the map's accuracy against the official taxi feed with
// Fig. 11's parameters (5-minute windows, 2 km/h noise, seed 11): the
// median |Δv| over the served segments, each compared in the window its
// estimate last folded (where the estimate is fresh).
func speedError(dep *lab.Deployment, served []byte) (float64, int, error) {
	var rows []server.SegmentEstimateJSON
	if err := json.Unmarshal(served, &rows); err != nil {
		return 0, 0, fmt.Errorf("speed error: served map: %w", err)
	}
	if len(rows) == 0 {
		return 0, 0, fmt.Errorf("speed error: the served map is empty")
	}
	feed, err := sim.NewOfficialFeed(dep.World.Field, dep.Cfg.PeriodS, 2, 11)
	if err != nil {
		return 0, 0, err
	}
	dv := make([]float64, len(rows))
	for i, r := range rows {
		dv[i] = math.Abs(feed.SpeedKmh(road.SegmentID(r.Segment), r.UpdatedS-1) - r.SpeedKmh)
	}
	return median(dv), len(rows), nil
}
