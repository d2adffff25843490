package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"busprobe/internal/cellular"
	"busprobe/internal/core/fingerprint"
	"busprobe/internal/server/stage"
)

// stageNames are the pipeline stages in order; each is a layer.
var stageNames = []string{"match", "cluster", "map", "extract", "estimate"}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// perTrip divides by a trip count, reading 0 when nothing ran.
func perTrip(x float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return x / float64(n)
}

// layerRun carries what the traced run measured beside its spans.
type layerRun struct {
	spans        []span
	t0           time.Time
	drive        *drive
	ref          *reference
	recover      time.Duration
	replayed     int
	checkpoint   time.Duration
	storeBytes   int64 // bytes the drive added to the store
	versions     uint64
	pipeline     []stage.Metrics // the program's own /v1/pipeline after the drive
	candPerSamp  float64
	viablePerSmp float64
}

// layers is the traced run's per-layer breakdown.
type layers struct {
	metrics map[string]float64
	recon   [][2]string // reconciliation rows: name, value
	xcheck  []string    // span totals against /v1/pipeline
}

// analyze turns the traced run's spans into per-layer metrics.
func analyze(r *layerRun) *layers {
	m := make(map[string]float64)
	out := &layers{metrics: m}
	children := make(map[int64][]span)
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	ivs := func(ss []span) []interval {
		out := make([]interval, len(ss))
		for i, s := range ss {
			out[i] = s.iv(r.t0)
		}
		return out
	}

	// Ingest path: http → api (server) → store + stages.
	trips := 0
	var httpSelf, apiDur, apiSelf time.Duration
	var appendUs []float64
	stageDur := make(map[string]time.Duration)
	stageIn := make(map[string]int)
	stageOut := make(map[string]int)
	stageDrop := make(map[string]int)
	crossObs, allObs := 0, 0
	for _, s := range r.spans {
		if s.Layer != "http" || (s.Name != "/v1/trips/batch" && s.Name != "/v1/trips") {
			continue
		}
		kids := children[s.ID]
		httpSelf += selfTime(s.iv(r.t0), ivs(kids))
		for _, a := range kids {
			if a.Layer != "api" || a.Name != "ingest" {
				continue
			}
			trips += a.In
			apiDur += a.dur()
			inner := children[a.ID]
			apiSelf += selfTime(a.iv(r.t0), ivs(inner))
			home := make(map[int]bool)
			for _, c := range inner {
				if c.Layer == "match" {
					home[c.Shard] = true
				}
			}
			for _, c := range inner {
				switch c.Layer {
				case "store":
					appendUs = append(appendUs, us(c.dur()))
				case "estimate":
					allObs += c.In
					if !home[c.Shard] {
						crossObs += c.In
					}
				}
				stageDur[c.Layer] += c.dur()
				stageIn[c.Layer] += c.In
				stageOut[c.Layer] += c.Out
				stageDrop[c.Layer] += c.Drop
			}
		}
	}
	m["http.ingest_self_us_per_trip"] = perTrip(us(httpSelf), trips)
	m["http.req_bytes_per_trip"] = perTrip(float64(r.drive.sentBytes), r.drive.trips())
	m["server.ingest_us_per_trip"] = perTrip(us(apiDur), trips)
	m["server.self_us_per_trip"] = perTrip(us(apiSelf), trips)
	sort.Float64s(appendUs)
	m["store.append_us_p50"] = percentile(appendUs, 0.5)
	m["store.append_us_p99"] = percentile(appendUs, 0.99)
	m["store.bytes_per_append"] = perTrip(float64(r.storeBytes), len(appendUs))
	m["store.recover_ms"] = ms(r.recover)
	m["store.records_replayed"] = float64(r.replayed)
	m["store.checkpoint_ms"] = ms(r.checkpoint)
	m["match.us_per_sample"] = perTrip(us(stageDur["match"]), stageIn["match"])
	m["match.matched_frac"] = perTrip(float64(stageOut["match"]), stageIn["match"])
	m["match.cand_per_sample"] = r.candPerSamp
	m["match.viable_per_sample"] = r.viablePerSmp
	for _, st := range []string{"cluster", "map", "extract"} {
		m[st+".us_per_trip"] = perTrip(us(stageDur[st]), trips)
	}
	m["cluster.clusters_per_trip"] = perTrip(float64(stageOut["cluster"]), trips)
	m["map.visits_per_trip"] = perTrip(float64(stageOut["map"]), trips)
	m["extract.obs_per_trip"] = perTrip(float64(stageOut["extract"]), trips)
	m["extract.discard_frac"] = perTrip(float64(stageDrop["extract"]), stageOut["extract"]+stageDrop["extract"])
	m["estimate.us_per_obs"] = perTrip(us(stageDur["estimate"]), stageIn["estimate"])
	m["estimate.late_frac"] = lateFrac(r.ref.Windows)
	m["estimate.versions_per_trip"] = perTrip(float64(r.versions), trips)
	m["coord.cross_shard_obs_frac"] = perTrip(float64(crossObs), allObs)

	// Read path: http → api snapshot (coordinator merge cache).
	readSelf, readN, snapMiss, snapAll, mergeDur := attributeReads(r.spans, r.t0)
	m["http.traffic_self_us"] = perTrip(us(readSelf["/v1/traffic"]), readN["/v1/traffic"])
	m["http.watch_self_us"] = perTrip(us(readSelf["/v1/traffic/watch"]), readN["/v1/traffic/watch"])
	var arrDur time.Duration
	arrN := 0
	for _, s := range r.spans {
		if s.Layer == "http" && s.Name == "/v1/arrivals" {
			arrDur += s.dur()
			arrN++
		}
	}
	m["http.arrivals_us"] = perTrip(us(arrDur), arrN)
	m["coord.merge_us"] = perTrip(us(mergeDur), snapMiss)
	m["coord.merge_hit_frac"] = perTrip(float64(snapAll-snapMiss), snapAll)
	m["gen.late_p99_ms"] = percentile(sortedCopy(r.drive.lateMs), 0.99)

	// Reconciliation: where one trip's client-observed upload time goes.
	var visible float64
	for _, e := range r.drive.uploads {
		visible += e.ms * 1000
	}
	e2e := perTrip(visible, r.drive.trips())
	rows := [][2]string{{"client upload time (sent or due → ack)", fmt.Sprintf("%.1f", e2e)}}
	sum := 0.0
	add := func(name string, v float64) {
		sum += v
		rows = append(rows, [2]string{name, fmt.Sprintf("%.1f", v)})
	}
	add("http self (decode, encode, routing)", m["http.ingest_self_us_per_trip"])
	add("server self (admission, dedup, batching)", m["server.self_us_per_trip"])
	add("store append", perTrip(sumUs(appendUs), trips))
	for _, st := range stageNames {
		add(st, perTrip(us(stageDur[st]), trips))
	}
	rows = append(rows, [2]string{"sum of layer self times", fmt.Sprintf("%.1f", sum)})
	rows = append(rows, [2]string{"remainder: outside the handler (loopback, kernel, client, queueing; negative = parallel stage overlap)", fmt.Sprintf("%.1f", e2e-sum)})
	out.recon = rows
	m["trace.e2e_us_per_trip"] = e2e
	m["trace.outside_us_per_trip"] = e2e - sum

	// Cross-check: every stage span (recovery replay included) against
	// the program's own per-stage counters from the same inputs.
	all := make(map[string]time.Duration)
	runs := make(map[string]int64)
	for _, s := range r.spans {
		all[s.Layer] += s.dur()
		runs[s.Layer]++
	}
	for _, pm := range r.pipeline {
		if pm.DurationNs == 0 {
			continue
		}
		out.xcheck = append(out.xcheck, fmt.Sprintf("%-8s spans %8d runs %10.1f ms | /v1/pipeline %8d runs %10.1f ms | ratio %.4f",
			pm.Stage, runs[pm.Stage], ms(all[pm.Stage]), pm.Runs, ms(pm.Duration()),
			float64(all[pm.Stage])/float64(pm.DurationNs)))
	}
	return out
}

func sumUs(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// attributeReads computes read-request self times. Snapshot calls
// carry no context, so each is charged to the read request whose span
// encloses it, the latest-started one when two overlap.
func attributeReads(spans []span, t0 time.Time) (self map[string]time.Duration, n map[string]int, miss, all int, mergeDur time.Duration) {
	self, n = make(map[string]time.Duration), make(map[string]int)
	var reads, snaps []span
	for _, s := range spans {
		switch {
		case s.Layer == "http" && (s.Name == "/v1/traffic" || s.Name == "/v1/traffic/watch"):
			reads = append(reads, s)
		case s.Layer == "api" && s.Name == "snapshot":
			snaps = append(snaps, s)
			all++
			if s.Miss {
				miss++
				mergeDur += s.dur()
			}
		}
	}
	sort.Slice(reads, func(i, j int) bool { return reads[i].StartNs < reads[j].StartNs })
	kids := make([][]interval, len(reads))
	for _, c := range snaps {
		i := sort.Search(len(reads), func(i int) bool { return reads[i].StartNs > c.StartNs }) - 1
		for ; i >= 0; i-- {
			if reads[i].EndNs >= c.EndNs {
				kids[i] = append(kids[i], c.iv(t0))
				break
			}
			if c.StartNs-reads[i].StartNs > int64(time.Second) {
				break
			}
		}
	}
	for i, s := range reads {
		self[s.Name] += selfTime(s.iv(t0), kids[i])
		n[s.Name]++
	}
	return self, n, miss, all, mergeDur
}

// candidates measures the matching input property exact pruning would
// exploit: per sample, how many surveyed stops share at least one cell
// with it, and how many share the ⌈γ/Match⌉ cells an alignment needs to
// clear γ at all. Every eighth trip is sampled.
func candidates(db *fingerprint.DB, trips []*corpusTrip) (cand, viable float64) {
	need := int(math.Ceil(db.Gamma() / db.Scoring().Match))
	var fps []cellular.Fingerprint
	for _, st := range db.Stops() {
		if fp, ok := db.Get(st); ok {
			fps = append(fps, fp)
		}
	}
	samples, c, v := 0, 0, 0
	for i := 0; i < len(trips); i += 8 {
		for _, s := range trips[i].trip.Samples {
			fp := s.Fingerprint()
			samples++
			for _, sf := range fps {
				if k := fingerprint.CommonIDs(fp, sf); k >= 1 {
					c++
					if k >= need {
						v++
					}
				}
			}
		}
	}
	return perTrip(float64(c), samples), perTrip(float64(v), samples)
}

// printTable writes aligned name/value rows.
func printTable(w *printer, title string, rows [][2]string) {
	w.printf("%s\n", title)
	for _, r := range rows {
		w.printf("  %-58s %s\n", r[0], r[1])
	}
}
