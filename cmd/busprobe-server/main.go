// Command busprobe-server runs the traffic-monitoring backend as a
// standalone HTTP service over a simulated city: it builds the world,
// surveys the bus-stop fingerprint database, and serves the ingestion
// and query API.
//
// Usage:
//
//	busprobe-server [-addr :8080] [-seed 1] [-world paper] [-survey-runs 4]
//	                [-shards N] [-ingest-workers N]
//	                [-max-inflight-batches N] [-request-timeout SECONDS]
//	                [-pprof] [-drain-timeout SECONDS]
//	                [-shard-id N] [-shard-addrs URL,URL,...]
//	                [-store-dir DIR] [-snapshot-every N] [-segment-bytes N]
//	                [-recovery-report FILE] [-journal LEGACY-FILE]
//
// Durability. -store-dir enables the log-structured store: every
// accepted trip (and received cross-shard scatter group) appends to an
// active segment under <dir>/shardN/ (a monolith is shard 0), segments
// seal at -segment-bytes, and every -snapshot-every records a
// checkpoint captures the full pipeline state at a segment boundary
// and compacts the log behind it — so restart cost is O(tail), not
// O(history). On boot each shard recovers from its newest intact
// snapshot plus tail replay, falling back one snapshot (or to a full
// replay) on corruption; the per-shard outcome prints and, with
// -recovery-report, lands in a JSON artifact. -journal names a legacy
// JSON-lines trip file (one per shard, <path>.shardN, when sharded):
// found next to a virgin store it is migrated in as the first segment
// and retired. It is a migration input only, so it requires -store-dir.
//
// Process topology. By default one process hosts everything: a
// monolith (-shards 1) or N in-process shards behind an in-process
// coordinator (-shards N). With -shard-addrs the shard boundary moves
// onto the wire:
//
//	busprobe-server -shard-id 0 -shard-addrs http://h0:9000,http://h1:9001
//	busprobe-server -shard-id 1 -shard-addrs http://h0:9000,http://h1:9001
//	busprobe-server -shard-addrs http://h0:9000,http://h1:9001
//
// The first two run shard processes (region shard N of len(addrs),
// serving the internal shard protocol plus the public read API; public
// writes answer 421). The last runs a stateless coordinator tier that
// routes uploads to the shard processes and merges reads; any number of
// coordinators can front the same shards. Every process derives the
// same world and route partition from -seed, so no topology needs to be
// exchanged at runtime. In multi-process mode -store-dir and -journal
// belong to the shard processes (each migrates <path>.shardN for its
// own id).
//
// Endpoints:
//
//	POST /v1/trips                 upload a rider trip (JSON)
//	POST /v1/trips/batch           upload a trip array (concurrent ingest)
//	GET  /v1/traffic               current traffic map
//	GET  /v1/traffic/segment?id=N  one segment
//	GET  /v1/stats                 pipeline counters
//	GET  /v1/pipeline              per-stage instrumentation
//	GET  /v1/shards                per-shard footprint and counters
//	GET  /healthz                  liveness
//	GET  /metrics                  Prometheus text exposition
//	GET  /debug/pprof/             live profiling (with -pprof)
//
// On SIGTERM or SIGINT the server stops accepting connections and
// drains in-flight requests for up to -drain-timeout seconds before
// exiting 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"encoding/json"

	"busprobe/internal/clock"
	"busprobe/internal/core/fingerprint"
	"busprobe/internal/obs"
	"busprobe/internal/server"
	"busprobe/internal/sim"
	"busprobe/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("busprobe-server: ")

	addr := flag.String("addr", ":8080", "listen address")
	seed := flag.Uint64("seed", 1, "master world seed")
	world := flag.String("world", "paper", "world preset: paper, small, or london")
	surveyRuns := flag.Int("survey-runs", 4, "fingerprint survey passes per stop")
	fpdbPath := flag.String("fpdb", "", "fingerprint DB file: loaded if present, written after a survey otherwise")
	journalPath := flag.String("journal", "", "legacy trip journal (JSONL) to migrate into a virgin -store-dir, then retire (with -shards > 1, one <path>.shardN file per shard); requires -store-dir")
	shards := flag.Int("shards", 1, "region shards behind the coordinator (1 = monolithic)")
	ingestWorkers := flag.Int("ingest-workers", 0, "batch-ingest parallelism (0 = GOMAXPROCS)")
	maxInflight := flag.Int("max-inflight-batches", 0, "admission gate: concurrent batch ingests before shedding with 429 (0 = unbounded)")
	reqTimeout := flag.Float64("request-timeout", 0, "per-request handling budget in seconds (0 = none)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	drainTimeout := flag.Float64("drain-timeout", 10, "seconds to drain in-flight requests on SIGTERM before forcing exit")
	shardID := flag.Int("shard-id", -1, "run as shard process N of the -shard-addrs topology (-1 = not a shard process)")
	shardAddrs := flag.String("shard-addrs", "", "comma-separated shard process base URLs, in shard order; with -shard-id runs that shard, without it runs a stateless coordinator tier over them")
	storeDir := flag.String("store-dir", "", "log-structured store base directory (per-shard stores under <dir>/shardN/)")
	snapshotEvery := flag.Int("snapshot-every", 50000, "records appended between automatic checkpoints (0 = checkpoint only on shutdown)")
	segmentBytes := flag.Int64("segment-bytes", 0, "sealed-segment size threshold in bytes (0 = 4 MiB default)")
	recoveryReport := flag.String("recovery-report", "", "write the boot recovery report as JSON to this file")
	flag.Parse()

	if err := run(topology{
		addr: *addr, seed: *seed, world: *world, surveyRuns: *surveyRuns, shards: *shards,
		fpdbPath: *fpdbPath, journalPath: *journalPath,
		ingestWorkers: *ingestWorkers, maxInflight: *maxInflight,
		reqTimeoutS: *reqTimeout, pprofOn: *pprofOn, drainTimeoutS: *drainTimeout,
		shardID: *shardID, shardAddrs: splitAddrs(*shardAddrs),
		storeDir: *storeDir, snapshotEvery: *snapshotEvery,
		segmentBytes: *segmentBytes, recoveryReport: *recoveryReport,
	}); err != nil {
		log.Println(err)
		os.Exit(1)
	}
}

// topology bundles the process's role and tunables.
type topology struct {
	addr          string
	seed          uint64
	world         string
	surveyRuns    int
	shards        int
	fpdbPath      string
	journalPath   string
	ingestWorkers int
	maxInflight   int
	reqTimeoutS   float64
	pprofOn       bool
	drainTimeoutS float64
	shardID       int
	shardAddrs    []string

	storeDir       string
	snapshotEvery  int
	segmentBytes   int64
	recoveryReport string
}

// storeOpts derives one shard's store options from the topology.
func (t topology) storeOpts(dir string) store.Options {
	return store.Options{
		Dir:           dir,
		SegmentBytes:  t.segmentBytes,
		SnapshotEvery: t.snapshotEvery,
		Clock:         clock.Wall{},
	}
}

// splitAddrs parses the -shard-addrs list, dropping empty entries.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

func run(t topology) error {
	addr, seed, surveyRuns, shards := t.addr, t.seed, t.surveyRuns, t.shards
	fpdbPath, journalPath := t.fpdbPath, t.journalPath
	ingestWorkers, maxInflight := t.ingestWorkers, t.maxInflight
	reqTimeoutS, pprofOn, drainTimeoutS := t.reqTimeoutS, t.pprofOn, t.drainTimeoutS
	if shards < 1 {
		return fmt.Errorf("-shards must be >= 1")
	}
	if t.shardID >= 0 && len(t.shardAddrs) == 0 {
		return fmt.Errorf("-shard-id requires -shard-addrs")
	}
	if t.shardID >= len(t.shardAddrs) && t.shardID >= 0 {
		return fmt.Errorf("-shard-id %d outside the %d-entry -shard-addrs list", t.shardID, len(t.shardAddrs))
	}
	if journalPath != "" && t.storeDir == "" {
		return fmt.Errorf("-journal is only a legacy file to migrate into the store; it requires -store-dir")
	}
	// Root context: canceled on SIGTERM/SIGINT so store recovery and
	// in-flight ingestion observe shutdown, not just the listener.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	core := obs.NewCore(clock.Wall{})
	// The preset decides the city's footprint; every process in a
	// topology (shards, coordinators, harness drivers) must agree on
	// both preset and seed to derive the same world.
	worldCfg, err := sim.PresetWorldConfig(t.world)
	if err != nil {
		return err
	}
	worldCfg.Seed = seed
	world, err := sim.BuildWorld(worldCfg)
	if err != nil {
		return err
	}
	cfg := server.DefaultConfig()
	cfg.IngestWorkers = ingestWorkers
	cfg.MaxInflightBatches = maxInflight
	cfg.RequestTimeoutS = reqTimeoutS
	cfg.Obs = core
	fpdb, err := loadOrSurvey(world, cfg, surveyRuns, seed, fpdbPath)
	if err != nil {
		return err
	}
	fmt.Printf("city: %d road segments, %d stops, %d routes, %d cell towers\n",
		world.Net.NumSegments(), world.Transit.NumStops(),
		world.Transit.NumRoutes(), world.Cells.NumTowers())
	fmt.Printf("fingerprint DB: %d stops surveyed\n", fpdb.Len())
	hc := server.HandlerConfig{Obs: core, Pprof: pprofOn}
	var handler http.Handler
	// Store-backed shards: recs[i] restored recovered[i], which
	// checkpoints when its store signals (and once more on drain); its
	// log closes on exit.
	var recs []*server.StoreRecovery
	var recovered []*server.Backend
	switch {
	case t.shardID >= 0:
		// Shard process: one region shard of the -shard-addrs topology,
		// serving the internal shard protocol (and read-only public API).
		b, err := server.NewShardBackend(cfg, world.Transit, fpdb, t.shardID, t.shardAddrs)
		if err != nil {
			return err
		}
		if t.storeDir != "" {
			dir := server.ShardStoreDir(t.storeDir, t.shardID)
			legacy := journalPaths(journalPath, len(t.shardAddrs))[t.shardID]
			rec, err := server.RecoverBackendStore(ctx, t.storeOpts(dir), legacy, b)
			if err != nil {
				return err
			}
			recs, recovered = []*server.StoreRecovery{rec}, []*server.Backend{b}
		}
		fmt.Printf("shard process %d of %d (peers: %s)\n",
			t.shardID, len(t.shardAddrs), strings.Join(t.shardAddrs, ", "))
		handler = server.NewShardHandler(b, hc)
	case len(t.shardAddrs) > 0:
		// Stateless coordinator tier over already-running shard
		// processes: routes uploads, merges reads, persists nothing.
		if t.storeDir != "" {
			return fmt.Errorf("-store-dir belongs to the shard processes in multi-process mode")
		}
		coord, err := server.NewRemoteCoordinator(cfg, world.Transit, fpdb, t.shardAddrs)
		if err != nil {
			return err
		}
		probeCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
		err = coord.ProbeShards(probeCtx)
		cancel()
		if err != nil {
			// Not fatal: the shard may still be starting, and /v1/shards
			// reports per-shard health while reads degrade around it.
			log.Printf("warning: shard probe: %v", err)
		}
		for _, st := range coord.ShardStatuses() {
			fmt.Printf("shard %d @ %s: healthy=%t, %d routes, %d stops, %d segments\n",
				st.Shard, st.Addr, st.Healthy, st.Routes, st.Stops, st.Segments)
		}
		handler = server.NewHandler(coord, hc)
	default:
		coord, err := server.NewCoordinator(cfg, world.Transit, fpdb, shards)
		if err != nil {
			return err
		}
		if t.storeDir != "" {
			recs, err = coord.RecoverStores(ctx, t.storeDir, t.storeOpts(""), journalPaths(journalPath, shards))
			if err != nil {
				return err
			}
			recovered = coord.Shards()
		}
		if shards > 1 {
			for _, st := range coord.ShardStatuses() {
				fmt.Printf("shard %d: %d routes, %d stops, %d segments\n",
					st.Shard, st.Routes, st.Stops, st.Segments)
			}
		}
		handler = server.NewHandler(coord, hc)
	}
	if recs != nil {
		printRecovery(recs)
		if err := writeRecoveryReport(t.recoveryReport, recs); err != nil {
			return err
		}
	}
	if pprofOn {
		fmt.Println("pprof: serving /debug/pprof/")
	}
	// One snapshotter per store-backed shard: when SnapshotEvery records
	// have appended, checkpoint that shard (seal + snapshot + compact).
	// A shard whose recovery failed has no log and runs without one.
	for i, rec := range recs {
		if rec.Log() != nil {
			go snapshotter(ctx, recovered[i], rec.Log())
		}
	}
	srv := &http.Server{Addr: addr, Handler: handler}
	errc := make(chan error, 1)
	go func() {
		fmt.Printf("listening on %s\n", addr)
		errc <- srv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Graceful drain: stop accepting, let in-flight trips finish, bound
	// the wait so a wedged handler cannot block shutdown forever.
	fmt.Println("shutting down: draining in-flight requests")
	drainCtx, cancel := context.WithTimeout(context.Background(), time.Duration(drainTimeoutS*float64(time.Second)))
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	// Final checkpoint: the drained state lands in a snapshot so the
	// next boot restarts in O(tail)≈O(1) instead of replaying history.
	for i, rec := range recs {
		if rec.Log() == nil {
			continue
		}
		if err := recovered[i].Checkpoint(); err != nil {
			log.Printf("warning: final checkpoint: %v", err)
		}
		if err := rec.Log().Close(); err != nil {
			log.Printf("warning: close store: %v", err)
		}
	}
	fmt.Println("shutdown complete")
	return nil
}

// snapshotter checkpoints one store-backed shard whenever its store
// signals that enough records have appended since the last snapshot.
func snapshotter(ctx context.Context, b *server.Backend, l *server.StoreLog) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-l.Store().SnapshotDue():
			if err := b.Checkpoint(); err != nil {
				log.Printf("warning: checkpoint: %v", err)
			}
		}
	}
}

// printRecovery summarizes each shard's store recovery on the boot log.
func printRecovery(recs []*server.StoreRecovery) {
	for _, r := range recs {
		if r.Err != "" {
			fmt.Printf("store shard %d: RECOVERY FAILED: %s (shard starts fresh)\n", r.Shard, r.Err)
			continue
		}
		fmt.Printf("store shard %d: %s — %d trips replayed, %d skipped, %d scatter groups refolded (%d segments walked)\n",
			r.Shard, r.Report.Mode, r.TripsReplayed, r.TripsSkipped, r.ScatterReplayed, r.Report.SegmentsReplayed)
		if r.Report.Migrated {
			fmt.Printf("store shard %d: legacy journal migrated into the store\n", r.Shard)
		}
		for _, n := range r.Report.Notes {
			fmt.Printf("store shard %d: note: %s\n", r.Shard, n)
		}
	}
}

// writeRecoveryReport lands the per-shard recovery outcomes as a JSON
// artifact (CI uploads it; operators diff it across boots).
func writeRecoveryReport(path string, recs []*server.StoreRecovery) error {
	if path == "" {
		return nil
	}
	blob, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return fmt.Errorf("write recovery report: %w", err)
	}
	fmt.Printf("recovery report written to %s\n", path)
	return nil
}

// journalPaths names each shard's legacy -journal file: the bare path
// for a monolithic run, "<path>.shardN" per shard otherwise, and no
// file ("") for any shard without -journal.
func journalPaths(path string, shards int) []string {
	if path == "" {
		return make([]string, shards)
	}
	if shards == 1 {
		return []string{path}
	}
	out := make([]string, shards)
	for i := range out {
		out[i] = fmt.Sprintf("%s.shard%d", path, i)
	}
	return out
}

// loadOrSurvey restores a persisted fingerprint database, or surveys the
// stops and persists the result when a path is given.
func loadOrSurvey(world *sim.World, cfg server.Config, surveyRuns int, seed uint64, path string) (*fingerprint.DB, error) {
	if path != "" {
		if db, err := fingerprint.LoadFile(path); err == nil {
			fmt.Printf("loaded fingerprint DB from %s (%d stops)\n", path, db.Len())
			return db, nil
		}
		fmt.Printf("no usable DB at %s; surveying\n", path)
	}
	db, err := server.BuildFingerprintDB(world.Cells, world.Transit, surveyRuns, cfg, seed^0xf9)
	if err != nil {
		return nil, err
	}
	if path != "" {
		if err := db.SaveFile(path); err != nil {
			return nil, err
		}
		fmt.Printf("saved fingerprint DB to %s\n", path)
	}
	return db, nil
}
