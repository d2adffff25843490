package lab

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"busprobe/internal/clock"
	"busprobe/internal/faults"
	"busprobe/internal/probe"
	"busprobe/internal/server"
	"busprobe/internal/sim"
)

// scenarioClean drives a fault-free corpus at a monolith and holds the
// run to the strictest bar: everything delivered, the traffic map
// byte-identical to an in-process replay, observability surfaces live,
// and a clean drain. It subsumes the old obs-smoke shell script.
var scenarioClean = Scenario{
	Name:        "clean",
	Description: "fault-free singles vs monolith: byte-identical traffic, live metrics and pprof, graceful drain",
	envelope:    envelope{p95S: 0.002, p99S: 0.004, tripsPerS: 1200},
	run: func(ctx context.Context, e *env, r *Result) error {
		r.Topology = "monolith"
		corpus, err := e.cleanCorpus(ctx)
		if err != nil {
			return err
		}
		srv, err := e.bootServer(ctx, "monolith", "-pprof")
		if err != nil {
			return err
		}
		defer func() {
			sctx, cancel := e.shutdownCtx()
			defer cancel()
			srv.Shutdown(sctx)
		}()

		rec := NewLatencyRecorder(e.opts.Clock)
		wc := newWireCounter(srv.Client, rec)
		start := e.opts.Clock.Now()
		if err := driveTrips(ctx, wc, corpus); err != nil {
			return err
		}
		wall := clock.Since(e.opts.Clock, start).Seconds()
		wc.summarize(r, e.opts.Riders, e.opts.Days, wall)

		offered, delivered, dup, failed := wc.snapshot()
		r.check("every offered trip delivered", failed == 0 && dup == 0 && delivered == offered,
			fmt.Sprintf("offered %d delivered %d duplicate %d failed %d (%s)", offered, delivered, dup, failed, wc.failDetail()))

		stats, err := srv.Client.Stats(ctx)
		r.check("server counted every trip", err == nil && stats.TripsReceived == len(corpus),
			fmt.Sprintf("TripsReceived %d, corpus %d, err %v", stats.TripsReceived, len(corpus), err))

		checkEquivalence(ctx, e, r, srv, corpus, "in-process serial replay")
		checkObsSurfaces(ctx, r, srv)
		checkDrain(e, r, srv)
		return nil
	},
}

// scenarioChaos replays the same corpus through the deterministic
// fault injector (duplication, reordering, delayed delivery — the
// faults that preserve the delivered multiset) and requires the exact
// PR-2 invariant on a real process: after Flush, counters conserve and
// the traffic map is byte-identical to the clean reference.
var scenarioChaos = Scenario{
	Name:        "chaos",
	Description: "dup/reorder/delay faults vs monolith: counter conservation and byte-identical traffic after flush",
	envelope:    envelope{p95S: 0.002, p99S: 0.004, tripsPerS: 1100},
	run: func(ctx context.Context, e *env, r *Result) error {
		r.Topology = "monolith"
		corpus, err := e.cleanCorpus(ctx)
		if err != nil {
			return err
		}
		srv, err := e.bootServer(ctx, "monolith")
		if err != nil {
			return err
		}
		defer func() {
			sctx, cancel := e.shutdownCtx()
			defer cancel()
			srv.Shutdown(sctx)
		}()

		rec := NewLatencyRecorder(e.opts.Clock)
		wc := newWireCounter(srv.Client, rec)
		inj, err := faults.NewInjector(faults.Config{
			Seed:        e.opts.Seed ^ 0x5a,
			DupRate:     0.15,
			ReorderRate: 0.15,
			DelayRate:   0.05,
		}, wc)
		if err != nil {
			return err
		}
		start := e.opts.Clock.Now()
		if err := driveTrips(ctx, inj, corpus); err != nil {
			return err
		}
		inj.Flush(ctx) //lint:allow errcheckio Injector.Flush returns nothing; held-trip delivery failures land in its AsyncFailures counter, checked below
		wall := clock.Since(e.opts.Clock, start).Seconds()
		wc.summarize(r, e.opts.Riders, e.opts.Days, wall)

		ist := inj.Stats()
		r.check("injector conservation holds", ist.Delivered == ist.Offered-ist.Dropped+ist.Duplicated,
			fmt.Sprintf("offered %d dropped %d duplicated %d delivered %d", ist.Offered, ist.Dropped, ist.Duplicated, ist.Delivered))
		r.check("faults actually fired", ist.Duplicated > 0 && ist.Reordered > 0 && ist.Delayed > 0,
			fmt.Sprintf("duplicated %d reordered %d delayed %d", ist.Duplicated, ist.Reordered, ist.Delayed))

		offered, delivered, dup, failed := wc.snapshot()
		r.check("no wire failures", failed == 0,
			fmt.Sprintf("failed %d (%s)", failed, wc.failDetail()))
		r.check("server absorbed every duplicate", delivered == len(corpus) && dup == ist.Duplicated,
			fmt.Sprintf("wire offered %d delivered %d duplicate %d; injector duplicated %d; corpus %d",
				offered, delivered, dup, ist.Duplicated, len(corpus)))

		stats, err := srv.Client.Stats(ctx)
		r.check("server dedup counters agree", err == nil && stats.TripsReceived == ist.Delivered && stats.DuplicateTrips == dup,
			fmt.Sprintf("TripsReceived %d DuplicateTrips %d, err %v", stats.TripsReceived, stats.DuplicateTrips, err))

		checkEquivalence(ctx, e, r, srv, corpus, "clean corpus, in-process serial replay")
		return nil
	},
}

// scenarioSharded drives the clean corpus at one process hosting four
// in-process shards and requires the shard boundary to be invisible:
// same bytes as the monolithic replay, every shard healthy, trips
// conserved across the partition.
var scenarioSharded = Scenario{
	Name:        "sharded",
	Description: "clean singles vs 4 in-process shards: shard boundary invisible in traffic bytes, shards healthy",
	envelope:    envelope{p95S: 0.003, p99S: 0.005, tripsPerS: 900},
	run: func(ctx context.Context, e *env, r *Result) error {
		const shards = 4
		r.Topology = fmt.Sprintf("shards-%d", shards)
		corpus, err := e.cleanCorpus(ctx)
		if err != nil {
			return err
		}
		srv, err := e.bootServer(ctx, "coordinator", "-shards", strconv.Itoa(shards))
		if err != nil {
			return err
		}
		defer func() {
			sctx, cancel := e.shutdownCtx()
			defer cancel()
			srv.Shutdown(sctx)
		}()

		rec := NewLatencyRecorder(e.opts.Clock)
		wc := newWireCounter(srv.Client, rec)
		start := e.opts.Clock.Now()
		if err := driveTrips(ctx, wc, corpus); err != nil {
			return err
		}
		wall := clock.Since(e.opts.Clock, start).Seconds()
		wc.summarize(r, e.opts.Riders, e.opts.Days, wall)

		offered, delivered, dup, failed := wc.snapshot()
		r.check("every offered trip delivered", failed == 0 && dup == 0 && delivered == offered,
			fmt.Sprintf("offered %d delivered %d duplicate %d failed %d (%s)", offered, delivered, dup, failed, wc.failDetail()))

		rows, err := srv.Client.Shards(ctx)
		if err != nil {
			r.check("shard status readable", false, err.Error())
		} else {
			healthy, received := 0, 0
			for _, st := range rows {
				if st.Healthy {
					healthy++
				}
				received += st.Stats.TripsReceived
			}
			r.check(fmt.Sprintf("%d shards all healthy", shards), len(rows) == shards && healthy == shards,
				fmt.Sprintf("%d rows, %d healthy", len(rows), healthy))
			r.check("trips conserved across the partition", received == len(corpus),
				fmt.Sprintf("shard TripsReceived sum %d, corpus %d", received, len(corpus)))
		}

		checkEquivalence(ctx, e, r, srv, corpus, "in-process serial replay (monolith)")
		checkDrain(e, r, srv)
		return nil
	},
}

// scenarioShardProcs runs the full PR-6 wire topology — two shard
// processes behind a stateless coordinator process — kills one shard
// mid-drive, and requires the degraded contract: the dead shard is
// reported unhealthy, merged reads still answer 200, and the merged
// map is byte-identical to the surviving shard's own public map.
var scenarioShardProcs = Scenario{
	Name:        "shard-procs",
	Description: "2 shard processes + coordinator: kill one mid-drive; degraded reads stay correct",
	envelope:    envelope{p95S: 0.008, p99S: 0.012, tripsPerS: 450},
	run: func(ctx context.Context, e *env, r *Result) error {
		const shards = 2
		r.Topology = fmt.Sprintf("shard-procs-%d", shards)
		corpus, err := e.cleanCorpus(ctx)
		if err != nil {
			return err
		}

		// Reserve every address up front: each process needs the full
		// topology on its command line.
		ports := make([]int, shards)
		addrs := make([]string, shards)
		urls := make([]string, shards)
		for i := range ports {
			p, err := FreePort()
			if err != nil {
				return err
			}
			ports[i] = p
			addrs[i] = fmt.Sprintf("127.0.0.1:%d", p)
			urls[i] = "http://" + addrs[i]
		}
		topo := strings.Join(urls, ",")

		procs := make([]*serverProc, 0, shards)
		defer func() {
			sctx, cancel := e.shutdownCtx()
			defer cancel()
			for _, p := range procs {
				p.Shutdown(sctx)
			}
		}()
		for i := 0; i < shards; i++ {
			args := append(e.bootArgs(addrs[i]),
				"-shard-id", strconv.Itoa(i), "-shard-addrs", topo)
			p, err := StartProc(fmt.Sprintf("shard-%d", i), e.opts.ServerBin, args...)
			if err != nil {
				return err
			}
			sp := &serverProc{Proc: p, URL: urls[i]}
			procs = append(procs, sp)
		}
		for _, sp := range procs {
			bootCtx, cancel := context.WithTimeout(ctx, e.opts.BootTimeout)
			err := sp.AwaitHealthy(bootCtx, sp.URL)
			cancel()
			if err != nil {
				return err
			}
			e.logf("%s healthy at %s", sp.Name, sp.URL)
		}
		coord, err := e.bootServer(ctx, "coordinator", "-shard-addrs", topo)
		if err != nil {
			return err
		}
		procs = append(procs, coord)

		rec := NewLatencyRecorder(e.opts.Clock)
		wc := newWireCounter(coord.Client, rec)
		start := e.opts.Clock.Now()

		// Phase 1: both shards up. Everything must land.
		cut := len(corpus) * 3 / 5
		if err := driveTrips(ctx, wc, corpus[:cut]); err != nil {
			return err
		}
		_, _, _, preFailed := wc.snapshot()
		r.check("no failures while both shards live", preFailed == 0,
			fmt.Sprintf("failed %d of %d (%s)", preFailed, cut, wc.failDetail()))
		rows, err := coord.Client.Shards(ctx)
		r.check("both shards healthy before the fault", err == nil && len(rows) == shards && rows[0].Healthy && rows[1].Healthy,
			fmt.Sprintf("rows %d, err %v", len(rows), err))

		// The fault: shard 1 dies without warning.
		if err := procs[1].Kill(); err != nil {
			return fmt.Errorf("lab: kill shard-1: %w", err)
		}
		killCtx, cancel := context.WithTimeout(ctx, e.opts.DrainTimeout)
		_, _ = procs[1].Wait(killCtx)
		cancel()
		e.logf("shard-1 killed after %d/%d trips", cut, len(corpus))

		// Phase 2: drive the rest. Trips homed on the dead shard fail;
		// trips homed on the survivor keep folding.
		if err := driveTrips(ctx, wc, corpus[cut:]); err != nil {
			return err
		}
		wall := clock.Since(e.opts.Clock, start).Seconds()
		wc.summarize(r, e.opts.Riders, e.opts.Days, wall)

		rows, err = coord.Client.Shards(ctx)
		r.check("dead shard reported unhealthy", err == nil && len(rows) == shards && rows[0].Healthy && !rows[1].Healthy,
			fmt.Sprintf("rows %+v, err %v", shardHealthSummary(rows), err))

		status, merged, err := fetchRaw(ctx, coord.URL, "/v1/traffic")
		r.check("merged reads answer 200 degraded", err == nil && status == http.StatusOK,
			fmt.Sprintf("status %d, err %v", status, err))

		sstatus, surviving, serr := fetchRaw(ctx, procs[0].URL, "/v1/traffic")
		if serr != nil || sstatus != http.StatusOK {
			r.check("surviving shard readable", false, fmt.Sprintf("status %d, err %v", sstatus, serr))
		} else {
			r.Equivalence = compareTraffic("surviving shard's own /v1/traffic", surviving, merged, trafficRows(surviving))
			r.check("degraded map equals surviving shard's reference", r.Equivalence.ByteIdentical, r.Equivalence.Detail)
		}
		return nil
	},
}

// shardHealthSummary compacts shard rows for check details.
func shardHealthSummary(rows []server.ShardStatus) string {
	parts := make([]string, len(rows))
	for i, st := range rows {
		parts[i] = fmt.Sprintf("shard%d healthy=%t (%s)", st.Shard, st.Healthy, st.LastProbe)
	}
	return strings.Join(parts, "; ")
}

// scenarioDrain SIGTERMs a monolith while a driver is mid-corpus and
// requires the graceful-shutdown contract: accepted work finishes, the
// process logs its drain and exits 0 before the timeout.
var scenarioDrain = Scenario{
	Name:        "drain-under-load",
	Description: "SIGTERM mid-ingest: in-flight uploads drain, process logs shutdown and exits 0",
	run: func(ctx context.Context, e *env, r *Result) error {
		r.Topology = "monolith"
		corpus, err := e.cleanCorpus(ctx)
		if err != nil {
			return err
		}
		srv, err := e.bootServer(ctx, "monolith")
		if err != nil {
			return err
		}
		defer func() {
			sctx, cancel := e.shutdownCtx()
			defer cancel()
			srv.Shutdown(sctx)
		}()

		rec := NewLatencyRecorder(e.opts.Clock)
		wc := newWireCounter(srv.Client, rec)
		start := e.opts.Clock.Now()
		done := make(chan error, 1)
		driveCtx, stopDrive := context.WithCancel(ctx)
		defer stopDrive()
		go func() { done <- driveTrips(driveCtx, wc, corpus) }()

		// Let a quarter of the corpus land, then pull the plug while
		// uploads are still in flight.
		threshold := len(corpus) / 4
		if threshold < 1 {
			threshold = 1
		}
		for {
			offered, _, _, _ := wc.snapshot()
			if offered >= threshold {
				break
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case err := <-done:
				return fmt.Errorf("lab: drive finished before SIGTERM threshold: %v", err)
			case <-time.After(5 * time.Millisecond):
			}
		}
		stopCtx, cancel := e.shutdownCtx()
		code, stopErr := srv.Stop(stopCtx)
		cancel()
		stopDrive()
		<-done
		wall := clock.Since(e.opts.Clock, start).Seconds()
		wc.summarize(r, e.opts.Riders, e.opts.Days, wall)

		r.check("exits 0 on SIGTERM under load", stopErr == nil && code == 0,
			fmt.Sprintf("exit code %d, err %v", code, stopErr))
		out := srv.Output()
		r.check("drain is logged", strings.Contains(out, "draining in-flight requests"),
			"want 'draining in-flight requests' in process log")
		r.check("shutdown completes", strings.Contains(out, "shutdown complete"),
			"want 'shutdown complete' in process log")
		_, delivered, _, _ := wc.snapshot()
		r.check("work landed before the drain", delivered >= threshold,
			fmt.Sprintf("delivered %d, threshold %d", delivered, threshold))
		return nil
	},
}

// scenarioSurge streams a 10⁵-rider day from the cohort generator
// straight onto the wire in batches, proving the whole path — generator
// included — runs in bounded memory while the server keeps absorbing.
var scenarioSurge = Scenario{
	Name:        "surge",
	Description: "stream a rider surge through batch ingest in bounded memory",
	envelope:    envelope{p95S: 0.12, p99S: 0.15, tripsPerS: 900},
	run: func(ctx context.Context, e *env, r *Result) error {
		r.Topology = "monolith"
		srv, err := e.bootServer(ctx, "monolith")
		if err != nil {
			return err
		}
		defer func() {
			sctx, cancel := e.shutdownCtx()
			defer cancel()
			srv.Shutdown(sctx)
		}()

		riders := e.opts.SurgeRiders
		ccfg := e.campaign(riders, 1)
		ccfg.SparseTripsPerDay = 1
		ccfg.IntensiveTripsPerDay = 1

		rec := NewLatencyRecorder(e.opts.Clock)
		wc := newWireCounter(srv.Client, rec)

		// 200 trips/batch stays well under the server's 64 MiB batch
		// body cap (a small-world trip is ~100 KiB of samples).
		const batchSize = 200
		const sampleEvery = 5000
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		baseHeap := ms.HeapAlloc
		mem := &Memory{BoundBytes: e.opts.MemoryBoundBytes}

		// flush always clears the batch: per-row outcomes (including
		// rejections and transport failures) are the wire counter's
		// business and surface through the delivery checks below.
		// Propagating them from the emit callback would make the
		// campaign's retrier re-offer trips and skew the load.
		batch := make([]probe.Trip, 0, batchSize)
		emitted := 0
		flush := func() {
			if len(batch) == 0 {
				return
			}
			_ = wc.UploadBatch(ctx, batch)
			batch = batch[:0]
		}
		start := e.opts.Clock.Now()
		stats, err := sim.StreamTrips(ctx, e.dep.World, sim.StreamConfig{Campaign: ccfg}, func(t probe.Trip) error {
			batch = append(batch, t)
			emitted++
			if emitted%sampleEvery == 0 {
				runtime.GC()
				runtime.ReadMemStats(&ms)
				mem.Samples++
				if ms.HeapAlloc > baseHeap && ms.HeapAlloc-baseHeap > mem.MaxHeapDeltaBytes {
					mem.MaxHeapDeltaBytes = ms.HeapAlloc - baseHeap
				}
			}
			if len(batch) >= batchSize {
				flush()
			}
			return nil
		})
		if err != nil {
			return err
		}
		flush()
		wall := clock.Since(e.opts.Clock, start).Seconds()
		wc.summarize(r, riders, 1, wall)
		mem.Bounded = mem.MaxHeapDeltaBytes <= mem.BoundBytes
		r.Memory = mem
		e.logf("surge: %d riders, %d cohorts, %d trips, heap high-water +%d MiB",
			stats.Riders, stats.Cohorts, stats.Trips, mem.MaxHeapDeltaBytes>>20)

		offered, delivered, dup, failed := wc.snapshot()
		r.check("stream covered the population", stats.Riders == riders && stats.Trips == offered,
			fmt.Sprintf("riders %d, trips %d, offered %d", stats.Riders, stats.Trips, offered))
		r.check("every streamed trip delivered", failed == 0 && dup == 0 && delivered == offered,
			fmt.Sprintf("offered %d delivered %d duplicate %d failed %d (%s)", offered, delivered, dup, failed, wc.failDetail()))
		r.check("driver memory bounded", mem.Bounded,
			fmt.Sprintf("high-water +%d bytes over %d samples, bound %d", mem.MaxHeapDeltaBytes, mem.Samples, mem.BoundBytes))

		serverStats, err := srv.Client.Stats(ctx)
		r.check("server counted the surge", err == nil && serverStats.TripsReceived == delivered,
			fmt.Sprintf("TripsReceived %d, delivered %d, err %v", serverStats.TripsReceived, delivered, err))
		traffic, err := srv.Client.Traffic(ctx)
		r.check("traffic map populated", err == nil && len(traffic) > 0,
			fmt.Sprintf("%d segments, err %v", len(traffic), err))
		checkDrain(e, r, srv)
		return nil
	},
}

// scenarioReadStorm hammers the read path while a chaos-faulted corpus
// ingests: concurrent pollers issue conditional full-map GETs and
// watchers ride /v1/traffic/watch deltas. It requires the versioned-
// snapshot contract end to end on a real process — versions monotone at
// every reader, 304s when nothing changed, and each watcher's
// delta-reconstructed map byte-identical to a fresh GET once quiescent.
var scenarioReadStorm = Scenario{
	Name:        "read-storm",
	Description: "concurrent pollers + watchers during chaos ingest: monotone versions, 304 on idle, delta reconstruction byte-identical",
	envelope:    envelope{p95S: 0.02, p99S: 0.04, tripsPerS: 200},
	run: func(ctx context.Context, e *env, r *Result) error {
		r.Topology = "monolith"
		corpus, err := e.cleanCorpus(ctx)
		if err != nil {
			return err
		}
		srv, err := e.bootServer(ctx, "monolith")
		if err != nil {
			return err
		}
		defer func() {
			sctx, cancel := e.shutdownCtx()
			defer cancel()
			srv.Shutdown(sctx)
		}()

		const pollers, watchers = 4, 2
		storm := &ReadStorm{Pollers: pollers, Watchers: watchers}
		readCtx, stopReads := context.WithCancel(ctx)
		defer stopReads()

		// Readers report the first contract violation they see; counters
		// accumulate under the same lock.
		var (
			readMu      sync.Mutex
			violation   string
			polled      int
			notModified int
			watchPolls  int
		)
		violate := func(format string, args ...any) {
			readMu.Lock()
			if violation == "" {
				violation = fmt.Sprintf(format, args...)
			}
			readMu.Unlock()
		}

		var rg sync.WaitGroup
		for p := 0; p < pollers; p++ {
			rg.Add(1)
			go func() {
				defer rg.Done()
				var lastVer uint64
				var lastTag string
				for readCtx.Err() == nil {
					status, hdr, _, err := fetchTraffic(readCtx, srv.URL, lastTag)
					if err != nil {
						if readCtx.Err() == nil {
							violate("poller read failed: %v", err)
						}
						return
					}
					ver, perr := strconv.ParseUint(hdr.Get(server.TrafficVersionHeader), 10, 64)
					if perr != nil {
						violate("poller: bad version header %q", hdr.Get(server.TrafficVersionHeader))
						return
					}
					if ver < lastVer {
						violate("poller: version regressed %d -> %d", lastVer, ver)
						return
					}
					lastVer, lastTag = ver, hdr.Get("ETag")
					readMu.Lock()
					if status == http.StatusNotModified {
						notModified++
					} else {
						polled++
					}
					readMu.Unlock()
				}
			}()
		}

		// Each watcher folds deltas into its own row map; the maps
		// outlive the goroutines for the final byte-equivalence check.
		views := make([]map[int]server.SegmentEstimateJSON, watchers)
		lastSeen := make([]uint64, watchers)
		for i := range views {
			views[i] = make(map[int]server.SegmentEstimateJSON)
		}
		for wi := 0; wi < watchers; wi++ {
			wi := wi
			rg.Add(1)
			go func() {
				defer rg.Done()
				for readCtx.Err() == nil {
					out, err := srv.Client.TrafficWatch(readCtx, lastSeen[wi], 0.2)
					if err != nil {
						if readCtx.Err() == nil {
							violate("watcher %d poll failed: %v", wi, err)
						}
						return
					}
					if out.Resync {
						violate("watcher %d forced to resync against a live server", wi)
						return
					}
					if out.Version < lastSeen[wi] {
						violate("watcher %d: version regressed %d -> %d", wi, lastSeen[wi], out.Version)
						return
					}
					applyWatchDelta(views[wi], out)
					lastSeen[wi] = out.Version
					readMu.Lock()
					watchPolls++
					readMu.Unlock()
				}
			}()
		}

		// The write side: the chaos corpus (dup/reorder/delay) ingests
		// while the readers hammer.
		rec := NewLatencyRecorder(e.opts.Clock)
		wc := newWireCounter(srv.Client, rec)
		inj, err := faults.NewInjector(faults.Config{
			Seed:        e.opts.Seed ^ 0x51,
			DupRate:     0.15,
			ReorderRate: 0.15,
			DelayRate:   0.05,
		}, wc)
		if err != nil {
			stopReads()
			rg.Wait()
			return err
		}
		start := e.opts.Clock.Now()
		if err := driveTrips(ctx, inj, corpus); err != nil {
			stopReads()
			rg.Wait()
			return err
		}
		inj.Flush(ctx) //lint:allow errcheckio Injector.Flush returns nothing; held-trip delivery failures land in the wire counter, checked below
		wall := clock.Since(e.opts.Clock, start).Seconds()
		stopReads()
		rg.Wait()
		wc.summarize(r, e.opts.Riders, e.opts.Days, wall)

		readMu.Lock()
		storm.PolledReads, storm.NotModified, storm.WatchPolls = polled, notModified, watchPolls
		firstViolation := violation
		readMu.Unlock()
		if wall > 0 {
			storm.ReadsPerS = float64(storm.PolledReads+storm.NotModified+storm.WatchPolls) / wall
		}
		r.Reads = storm
		e.logf("read-storm: %d full reads, %d 304s, %d watch polls over %.1fs of ingest",
			storm.PolledReads, storm.NotModified, storm.WatchPolls, wall)

		offered, delivered, dup, failed := wc.snapshot()
		r.check("no wire failures under the storm", failed == 0 && delivered+dup == offered,
			fmt.Sprintf("offered %d delivered %d duplicate %d failed %d (%s)", offered, delivered, dup, failed, wc.failDetail()))
		r.check("readers saw no contract violation", firstViolation == "", firstViolation)
		r.check("readers actually ran under ingest", storm.PolledReads > 0 && storm.WatchPolls > 0,
			fmt.Sprintf("%d full reads, %d watch polls", storm.PolledReads, storm.WatchPolls))

		// Quiescent now: each watcher takes one catch-up delta, and its
		// reconstructed map must match a fresh GET byte for byte.
		status, fresh, err := fetchRaw(ctx, srv.URL, "/v1/traffic")
		if err != nil || status != http.StatusOK {
			r.check("final traffic readable", false, fmt.Sprintf("status %d, err %v", status, err))
			return nil
		}
		for wi := range views {
			out, err := srv.Client.TrafficWatch(ctx, lastSeen[wi], 0)
			if err != nil {
				r.check(fmt.Sprintf("watcher %d catches up", wi), false, err.Error())
				continue
			}
			applyWatchDelta(views[wi], out)
			rebuilt := renderTrafficRows(views[wi])
			eq := compareTraffic("fresh GET /v1/traffic after the storm", fresh, rebuilt, trafficRows(fresh))
			if wi == 0 {
				r.Equivalence = eq
			}
			r.check(fmt.Sprintf("watcher %d delta reconstruction byte-identical", wi), eq.ByteIdentical, eq.Detail)
		}

		// With the map quiescent, a conditional GET must move no body.
		status, hdr, _, err := fetchTraffic(ctx, srv.URL, "")
		if err != nil || status != http.StatusOK {
			r.check("quiescent conditional GET answers 304", false, fmt.Sprintf("probe status %d, err %v", status, err))
			return nil
		}
		status, _, body, err := fetchTraffic(ctx, srv.URL, hdr.Get("ETag"))
		r.check("quiescent conditional GET answers 304", err == nil && status == http.StatusNotModified && len(body) == 0,
			fmt.Sprintf("status %d, %d body bytes, err %v", status, len(body), err))
		return nil
	},
}

// fetchTraffic GETs /v1/traffic with an optional If-None-Match tag,
// returning status, response headers, and raw body.
func fetchTraffic(ctx context.Context, baseURL, etag string) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/traffic", nil)
	if err != nil {
		return 0, nil, nil, err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := (&http.Client{Timeout: 30 * time.Second}).Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, resp.Header, nil, err
	}
	return resp.StatusCode, resp.Header, body, nil
}

// applyWatchDelta folds one watch response into a client-side row map,
// exactly as a consuming dashboard would.
func applyWatchDelta(view map[int]server.SegmentEstimateJSON, out server.TrafficWatchJSON) {
	if out.Resync {
		for sid := range view {
			delete(view, sid)
		}
	}
	for _, row := range out.Changed {
		view[row.Segment] = row
	}
	for _, sid := range out.Removed {
		delete(view, sid)
	}
}

// renderTrafficRows renders a reconstructed row map exactly as the
// server renders /v1/traffic (sorted compact JSON plus newline), so
// reconstruction checks can compare raw wire bytes.
func renderTrafficRows(view map[int]server.SegmentEstimateJSON) []byte {
	rows := make([]server.SegmentEstimateJSON, 0, len(view))
	for _, row := range view {
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Segment < rows[j].Segment })
	data, err := json.Marshal(rows)
	if err != nil {
		// Rows are plain structs; a marshal failure is unreachable.
		return nil
	}
	return append(data, '\n')
}

// checkEquivalence replays the corpus serially in process and compares
// the booted server's raw /v1/traffic bytes against the reference
// handler's bytes.
func checkEquivalence(ctx context.Context, e *env, r *Result, srv *serverProc, corpus []probe.Trip, refName string) {
	ref, err := e.dep.ReplayTrips(ctx, corpus, 1)
	if err != nil {
		r.check("reference replay runs", false, err.Error())
		return
	}
	refBytes, err := trafficBytes(ref)
	if err != nil {
		r.check("reference traffic renders", false, err.Error())
		return
	}
	status, sutBytes, err := fetchRaw(ctx, srv.URL, "/v1/traffic")
	if err != nil || status != http.StatusOK {
		r.check("run traffic readable", false, fmt.Sprintf("status %d, err %v", status, err))
		return
	}
	r.Equivalence = compareTraffic(refName, refBytes, sutBytes, trafficRows(refBytes))
	r.check("traffic map byte-identical to reference", r.Equivalence.ByteIdentical, r.Equivalence.Detail)
}

// trafficRows counts the segment rows in a /v1/traffic JSON body
// without decoding it into a schema type: each row is one object in
// the top-level array.
func trafficRows(body []byte) int {
	return strings.Count(string(body), `"segment"`)
}

// checkObsSurfaces asserts the observability endpoints a monitored
// deployment scrapes: the Prometheus exposition carries the pipeline
// counters and the pprof surface answers.
func checkObsSurfaces(ctx context.Context, r *Result, srv *serverProc) {
	status, body, err := fetchRaw(ctx, srv.URL, "/metrics")
	ok := err == nil && status == http.StatusOK && strings.Contains(string(body), "busprobe_trips_received_total")
	r.check("metrics exposition live", ok,
		fmt.Sprintf("status %d, err %v, want busprobe_trips_received_total", status, err))
	status, _, err = fetchRaw(ctx, srv.URL, "/debug/pprof/heap?debug=1")
	r.check("pprof heap profile answers", err == nil && status == http.StatusOK,
		fmt.Sprintf("status %d, err %v", status, err))
}
