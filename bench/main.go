// Command bench is busprobe's end-to-end benchmark. It builds on the
// real busprobe-server binary and drives it over loopback HTTP with
// three named workloads, checking every served map against an
// in-process replay of the same uploads:
//
//	rush-hour     one day of ~8k riders, uploaded in trip-conclusion
//	              order in 4-trip batches by two closed-loop connections
//	              to a store-backed monolith
//	late-uploads  the same corpus delivered cohort by cohort, each
//	              ~1k-rider cohort syncing its whole day at once
//	map-readers   a -shards 2 server recovered from a pre-built store,
//	              read open-loop at 400 req/s (full, conditional, watch,
//	              arrivals) under a 200 trips/s single-trip trickle
//
// With -trace 1 the same stack runs in-process with spans around each
// layer's public entry points, and the run reports per-layer metrics.
// Run it through bench/run.sh, which builds both binaries first:
//
//	bash bench/run.sh                      # every workload, untraced and traced
//	bash bench/run.sh --workload rush-hour --seed 3 --seconds 25 --trace 0
//
// The last line of standard output is one JSON result object.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"syscall"

	"busprobe/internal/lab"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the deployment sees, reported by
// every untraced run and gated by BENCHMARK.json.
var endToEnd = []metricDef{
	{"trips_per_s", "1/s"},
	{"visible_p50_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"setup_s", "s"},
	{"server_rss_mb", "MB"},
	{"speed_err_kmh", "km/h"},
}

// tails are end-to-end metrics printed with every run but not gated:
// on a shared two-vCPU host their run-to-run spread is far wider than
// any bound the result contract allows (see README.md).
var tails = []metricDef{
	{"server_cpu_us_per_trip", "us"},
	{"visible_p99_ms", "ms"},
	{"read_p99_ms", "ms"},
	{"failed_frac", "ratio"},
}

// perLayer are the traced run's metrics.
var perLayer = []metricDef{
	{"http.ingest_self_us_per_trip", "us"},
	{"http.req_bytes_per_trip", "bytes"},
	{"http.traffic_self_us", "us"},
	{"http.watch_self_us", "us"},
	{"http.arrivals_us", "us"},
	{"server.ingest_us_per_trip", "us"},
	{"server.self_us_per_trip", "us"},
	{"store.append_us_p50", "us"},
	{"store.append_us_p99", "us"},
	{"store.bytes_per_append", "bytes"},
	{"store.recover_ms", "ms"},
	{"store.records_replayed", "count"},
	{"store.checkpoint_ms", "ms"},
	{"match.us_per_sample", "us"},
	{"match.matched_frac", "ratio"},
	{"match.cand_per_sample", "count"},
	{"match.viable_per_sample", "count"},
	{"cluster.us_per_trip", "us"},
	{"cluster.clusters_per_trip", "count"},
	{"map.us_per_trip", "us"},
	{"map.visits_per_trip", "count"},
	{"extract.us_per_trip", "us"},
	{"extract.obs_per_trip", "count"},
	{"extract.discard_frac", "ratio"},
	{"estimate.us_per_obs", "us"},
	{"estimate.late_frac", "ratio"},
	{"estimate.versions_per_trip", "count"},
	{"coord.merge_us", "us"},
	{"coord.merge_hit_frac", "ratio"},
	{"coord.cross_shard_obs_frac", "ratio"},
	{"gen.late_p99_ms", "ms"},
	{"trace.e2e_us_per_trip", "us"},
	{"trace.outside_us_per_trip", "us"},
}

var workloads = []string{"rush-hour", "late-uploads", "map-readers"}

// setupOnlyBoots is how many boots a run times before the boots it
// drives; setup_s is the median over all of them.
const setupOnlyBoots = 6

// options are one invocation's flags.
type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     bool
	serverBin string
	work      string
}

// result is one run's outcome.
type result struct {
	workload  string
	trace     bool
	metrics   map[string]float64
	problems  []string
	attempted int
	failed    int
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "all", "workload: rush-hour, late-uploads, map-readers, or all")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed: the same seed generates the same uploads")
	flag.IntVar(&o.seconds, "seconds", 25, "measured seconds per run")
	flag.IntVar(&trace, "trace", -1, "0 = untraced run, 1 = traced in-process run (default with -workload all: both)")
	flag.StringVar(&o.serverBin, "server-bin", "", "busprobe-server binary built from this tree")
	flag.StringVar(&o.work, "work", ".bench_build", "directory for caches, stores and traces")
	flag.Parse()
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}
	// Fewer collections in the load generator, fewer pauses charged to
	// the server's latencies; the generator's heap stays small.
	debug.SetGCPercent(400)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	out := &printer{w: os.Stdout}
	code, err := run(ctx, o, trace, out)
	if err == nil && out.err != nil {
		code, err = 2, out.err
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err) //lint:allow errcheckio a diagnostic on standard error has nowhere else to go
	}
	stop()
	os.Exit(code)
}

// printer writes the human-readable report and the result line,
// keeping the first write error for main to report.
type printer struct {
	w   io.Writer
	err error
}

func (p *printer) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

// run executes the requested runs and prints the result line.
func run(ctx context.Context, o options, trace int, w *printer) (int, error) {
	if o.serverBin == "" {
		return 2, fmt.Errorf("-server-bin is required (bench/run.sh builds it)")
	}
	if o.seconds < 1 {
		return 2, fmt.Errorf("-seconds must be at least 1")
	}
	names := workloads
	if o.workload != "all" {
		names = []string{o.workload}
	}
	var modes []bool
	switch trace {
	case -1:
		modes = []bool{false, true}
	case 0:
		modes = []bool{false}
	case 1:
		modes = []bool{true}
	default:
		return 2, fmt.Errorf("-trace must be 0 or 1")
	}
	dep, err := newDeployment()
	if err != nil {
		return 2, err
	}
	work, err := filepath.Abs(o.work)
	if err != nil {
		return 2, err
	}
	o.work = work
	var results []*result
	for _, name := range names {
		for _, traced := range modes {
			o.workload, o.trace = name, traced
			res, err := runOne(ctx, dep, o, w)
			if err != nil {
				return 2, fmt.Errorf("%s: %w", name, err)
			}
			results = append(results, res)
		}
	}
	return report(w, results)
}

// runOne generates (or loads) the inputs and runs one workload, traced
// or not, printing its tables.
func runOne(ctx context.Context, dep *lab.Deployment, o options, w *printer) (*result, error) {
	p, err := makePlan(ctx, dep, o.work, o.workload, o.seed, o.seconds)
	if err != nil {
		return nil, err
	}
	ref, err := loadReference(ctx, dep, o.work, p)
	if err != nil {
		return nil, err
	}
	var storeDir string
	if p.workload == "map-readers" {
		if storeDir, err = loadReaderStore(ctx, dep, o.work, p); err != nil {
			return nil, err
		}
	}
	runDir, err := os.MkdirTemp(o.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	printDims(w, dep, p, ref)
	if o.trace {
		return runTraced(ctx, dep, o, p, ref, storeDir, runDir, w)
	}
	return runUntraced(ctx, dep, o, p, ref, storeDir, runDir, w)
}

// freshStore prepares the store directory one boot recovers from: a
// copy of the pre-built store, or an empty directory.
func freshStore(runDir, storeDir string, i int) (string, error) {
	dir := filepath.Join(runDir, "store-"+strconv.Itoa(i))
	if storeDir == "" {
		return dir, os.MkdirAll(dir, 0o755)
	}
	return dir, copyTree(storeDir, dir)
}

// runUntraced boots the real binary and measures. Map-readers drives
// one boot for --seconds. The ingest workloads drive the corpus in
// rounds, each on a fresh server, as long as another round fits in
// --seconds. The boots before the driven ones only time set-up:
// setup_s is the median over every boot.
func runUntraced(ctx context.Context, dep *lab.Deployment, o options, p *plan, ref *reference, storeDir, runDir string, w *printer) (*result, error) {
	mon := startStealMonitor()
	defer mon.close()
	type boot struct{ seconds, steal float64 }
	var boots []boot
	var rss, drove float64
	var drives []*drive
	for i := 0; ; i++ {
		driven := i >= setupOnlyBoots
		if n := len(drives); n > 0 && (p.workload == "map-readers" || drove+drove/float64(n)/2 > float64(p.seconds)) {
			break
		}
		dir, err := freshStore(runDir, storeDir, i)
		if err != nil {
			return nil, err
		}
		args := []string{"-store-dir", dir}
		if p.shards > 1 {
			args = append(args, "-shards", strconv.Itoa(p.shards))
		}
		start := wallNow()
		srv, took, err := bootServer(ctx, o.serverBin, args...)
		if err != nil {
			return nil, err
		}
		boots = append(boots, boot{took.Seconds(), mon.share(start, start.Add(took))})
		if !driven {
			srv.stop()
			continue
		}
		cpu0, err := srv.cpuSeconds()
		if err != nil {
			return nil, err
		}
		d := runDrive(ctx, srv.url, dep, p, ref)
		cpu1, err := srv.cpuSeconds()
		if err != nil {
			return nil, err
		}
		d.serverCPU = cpu1 - cpu0
		peak, err := srv.peakRSSMB()
		srv.stop()
		if err != nil {
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		rss = math.Max(rss, peak)
		drove += d.seconds()
		drives = append(drives, d)
	}
	res := endToEndResult(dep, p, drives, mon, w)
	var setups []float64
	for _, b := range cleanest(boots, func(b boot) float64 { return b.steal }, minCleanBoots) {
		setups = append(setups, b.seconds)
	}
	res.metrics["setup_s"] = median(setups)
	res.metrics["server_rss_mb"] = rss
	printMetrics(w, res, fmt.Sprintf("untraced: busprobe-server process, %d boots (setup_s over the %d least stolen), %d driven",
		len(boots), len(setups), len(drives)))
	return res, nil
}

// runDrive runs the plan's drive against a base URL.
func runDrive(ctx context.Context, url string, dep *lab.Deployment, p *plan, ref *reference) *drive {
	if p.workload == "map-readers" {
		return driveReaders(ctx, url, dep, p, ref)
	}
	return driveIngest(ctx, url, dep, p, ref)
}

// endToEndResult derives the end-to-end metrics of one or more drives
// (ingest rounds, each on a fresh server, or one map-readers drive),
// each metric the median of its values over the run's clean one-second
// slices, and applies the correctness gate to every drive.
func endToEndResult(dep *lab.Deployment, p *plan, drives []*drive, mon *stealMonitor, w *printer) *result {
	res := &result{workload: p.workload, metrics: make(map[string]float64)}
	pooled := &drive{tally: *newTally()}
	var all []slice
	var cpuPerTrip []float64
	for i, d := range drives {
		pooled.merge(&d.tally)
		res.problems = append(res.problems, d.problems...)
		pooled.finalMap = d.finalMap
		if n := d.trips(); n != len(p.deliver) {
			res.problems = append(res.problems, fmt.Sprintf("drive %d: %d of %d uploaded trips acknowledged", i+1, n, len(p.deliver)))
		}
		w.printf("  drive %d: %.1f trips/s over %.2f s, hypervisor steal %.1f%% of CPU time, %d checks\n",
			i+1, float64(d.trips())/d.seconds(), d.seconds(), 100*mon.share(d.start, d.end), d.checksRun)
		if d.serverCPU > 0 {
			cpuPerTrip = append(cpuPerTrip, 1e6*d.serverCPU/float64(d.trips()))
		}
		all = append(all, d.slices(mon)...)
	}
	use := cleanest(all, func(s slice) float64 { return s.steal }, minCleanSlices)
	clean := len(cleanest(all, func(s slice) float64 { return s.steal }, 0))
	w.printf("  %d of %d one-second slices clean (steal ≤ %.0f%%); metrics are medians over the %d least stolen\n",
		clean, len(all), 100*stealLimit, len(use))
	var tput, v50, r50, vis, rds []float64
	for _, s := range use {
		tput = append(tput, float64(s.trips)/s.seconds)
		if len(s.vis) > 0 {
			v50 = append(v50, median(s.vis))
		}
		if len(s.rds) > 0 {
			r50 = append(r50, median(s.rds))
		}
		vis = append(vis, s.vis...)
		rds = append(rds, s.rds...)
	}
	vis, rds = sortedCopy(vis), sortedCopy(rds)
	res.attempted, res.failed = pooled.attempted, pooled.failed
	if pooled.failed > 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d of %d operations failed; first: %s", pooled.failed, pooled.attempted, pooled.firstFail))
	}
	late := sortedCopy(pooled.lateMs)
	if p.workload == "map-readers" && len(late) > 0 && late[len(late)-1] > 1000 {
		res.problems = append(res.problems, "open-loop generator fell more than 1 s behind its schedule; the run is invalid")
	}
	res.metrics["trips_per_s"] = median(tput)
	if len(cpuPerTrip) > 0 {
		res.metrics["server_cpu_us_per_trip"] = median(cpuPerTrip)
	}
	res.metrics["visible_p50_ms"] = median(v50)
	res.metrics["read_p50_ms"] = median(r50)
	res.metrics["visible_p99_ms"] = percentile(vis, 0.99)
	res.metrics["read_p99_ms"] = percentile(rds, 0.99)
	res.metrics["failed_frac"] = perTrip(float64(pooled.failed), pooled.attempted)
	errKmh, n, err := speedError(dep, pooled.finalMap)
	if err != nil {
		res.problems = append(res.problems, err.Error())
	}
	res.metrics["speed_err_kmh"] = errKmh
	w.printf("  p99s pool the same slices: %d uploads (%d beyond p99), %d reads (%d beyond p99)\n",
		len(vis), beyond(len(vis), 0.99), len(rds), beyond(len(rds), 0.99))
	kinds := make([]string, 0, len(pooled.readKind))
	for k := range pooled.readKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		xs := sortedCopy(pooled.readKind[k])
		w.printf("  read %-8s n=%-6d p50 %.3f ms  p99 %.3f ms (all slices)\n", k, len(xs), percentile(xs, 0.5), percentile(xs, 0.99))
	}
	w.printf("  %d of %d operations failed, generator late p99 %.3f ms, %d segments scored for speed error\n",
		pooled.failed, pooled.attempted, percentile(late, 0.99), n)
	return res
}

// printDims reports the workload's measured input dimensions.
func printDims(w *printer, dep *lab.Deployment, p *plan, ref *reference) {
	var samples, bytes int
	for _, t := range p.deliver {
		samples += len(t.trip.Samples)
		bytes += len(t.body)
	}
	cand, viable := candidates(dep.FPDB, p.deliver)
	w.printf("== %s (seed %d, %d s): %d trips uploaded (+%d in the pre-built store), %.1f samples/trip, %.0f bytes/trip, estimate.late_frac %.3f, %.1f candidate stops/sample (%.1f viable)\n",
		p.workload, p.seed, p.seconds, len(p.deliver), len(p.base),
		perTrip(float64(samples), len(p.deliver)), perTrip(float64(bytes), len(p.deliver)), lateFrac(ref.Windows), cand, viable)
}

// printMetrics prints a result's metrics in the order they are defined.
func printMetrics(w *printer, res *result, title string) {
	defs := append(append([]metricDef(nil), endToEnd...), tails...)
	if res.trace {
		defs = perLayer
	}
	var rows [][2]string
	for _, m := range defs {
		if v, ok := res.metrics[m.name]; ok {
			rows = append(rows, [2]string{m.name, fmt.Sprintf("%.4f %s", v, m.unit)})
		}
	}
	printTable(w, "  "+title, rows)
	for _, p := range res.problems {
		w.printf("  CORRECTNESS: %s\n", p)
	}
}

// report prints the JSON result line and picks the exit code: 0 when
// every run was correct, 1 on any correctness-gate breach.
func report(w *printer, results []*result) (int, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]metric)}
	for _, res := range results {
		out.Attempted += res.attempted
		out.Failed += res.failed
		if len(res.problems) > 0 {
			out.Correct = false
		}
		defs := endToEnd
		if res.trace {
			defs = perLayer
		}
		for _, m := range defs {
			name := m.name
			if len(results) > 1 {
				name = res.workload + "." + name
				if res.trace {
					name = res.workload + ".traced." + m.name
				}
			}
			out.Metrics[name] = metric{Value: res.metrics[m.name], Unit: m.unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return 2, err
	}
	w.printf("%s\n", line)
	if !out.Correct {
		return 1, nil
	}
	return 0, nil
}
