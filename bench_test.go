package busprobe

// The benchmark suite regenerates every table and figure of the paper's
// evaluation (go test -bench=. -benchmem). Each benchmark runs the
// corresponding experiment and reports its headline metrics as custom
// benchmark units, so `bench_output.txt` doubles as the numeric record
// behind EXPERIMENTS.md. Campaign-backed figures share one full-scale
// deployment built lazily on first use.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"busprobe/internal/clock"
	"busprobe/internal/eval"
	"busprobe/internal/lab"
	"busprobe/internal/obs"
	"busprobe/internal/probe"
	"busprobe/internal/sim"
)

// benchLab lazily builds the full paper-scale deployment.
var (
	benchLabOnce sync.Once
	benchLabVal  *eval.Lab
	benchLabErr  error
)

func benchLab(b *testing.B) *eval.Lab {
	b.Helper()
	benchLabOnce.Do(func() { benchLabVal, benchLabErr = eval.DefaultLab() })
	if benchLabErr != nil {
		b.Fatal(benchLabErr)
	}
	return benchLabVal
}

// benchCampaign lazily runs the intensive campaign feeding the traffic
// figures (two simulated days, 22 participants).
var (
	benchRunOnce sync.Once
	benchRunVal  *eval.CampaignRun
	benchRunErr  error
)

func benchCampaign(b *testing.B) *eval.CampaignRun {
	b.Helper()
	l := benchLab(b)
	benchRunOnce.Do(func() {
		cfg := sim.DefaultCampaignConfig()
		cfg.Days = 2
		cfg.Participants = 22
		cfg.IntensiveFromDay = 0
		cfg.IntensiveTripsPerDay = 6
		benchRunVal, benchRunErr = eval.RunCampaign(context.Background(), l, cfg, 300)
	})
	if benchRunErr != nil {
		b.Fatal(benchRunErr)
	}
	return benchRunVal
}

func BenchmarkFig1GPSErrorCDF(b *testing.B) {
	var rep eval.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = eval.Fig1GPSError(20000, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Metric("stationary_median"), "stationary-median-m")
	b.ReportMetric(rep.Metric("onbus_median"), "onbus-median-m")
	b.ReportMetric(rep.Metric("onbus_p90"), "onbus-p90-m")
}

func BenchmarkFig2bSelfSimilarity(b *testing.B) {
	l := benchLab(b)
	var rep eval.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = eval.Fig2bSelfSimilarity(l, nil, 8, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Metric("ge3"), "P(score>=3)")
	b.ReportMetric(rep.Metric("ge4"), "P(score>=4)")
}

func BenchmarkFig2cCrossSimilarity(b *testing.B) {
	l := benchLab(b)
	var rep eval.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = eval.Fig2cCrossSimilarity(l, nil, 3, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Metric("zero_eff"), "P(score=0)")
	b.ReportMetric(rep.Metric("lt2_eff"), "P(score<2)")
}

func BenchmarkTable1Matching(b *testing.B) {
	var rep eval.Report
	for i := 0; i < b.N; i++ {
		rep = eval.TableIMatchingInstance()
	}
	b.ReportMetric(rep.Metric("score"), "score")
}

func BenchmarkFig5EpsilonSweep(b *testing.B) {
	l := benchLab(b)
	var rep eval.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = eval.Fig5EpsilonSweep(l, "243", 12, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Metric("acc_0.6"), "accuracy@0.6")
	b.ReportMetric(rep.Metric("acc_2.0"), "accuracy@2.0")
}

func BenchmarkTable2StopIdentification(b *testing.B) {
	l := benchLab(b)
	var rep eval.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = eval.TableIIStopIdentification(l, 7, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*rep.Metric("overall_error_rate"), "error-%")
	b.ReportMetric(100*rep.Metric("worst_route_rate"), "worst-route-error-%")
}

func BenchmarkFig9TrafficMap(b *testing.B) {
	l := benchLab(b)
	run := benchCampaign(b)
	var rep eval.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = eval.Fig9TrafficMap(l, 1, run)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Metric("morning_mean_kmh"), "morning-kmh")
	b.ReportMetric(rep.Metric("evening_mean_kmh"), "evening-kmh")
	b.ReportMetric(100*rep.Metric("coverage"), "coverage-%")
}

func BenchmarkFig10SegmentSeries(b *testing.B) {
	l := benchLab(b)
	run := benchCampaign(b)
	var rep eval.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = eval.Fig10SegmentSeries(l, run, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Metric("corr_A"), "corr-A")
	b.ReportMetric(rep.Metric("low_speed_gap"), "congested-gap-kmh")
	b.ReportMetric(rep.Metric("high_speed_gap"), "light-gap-kmh")
}

func BenchmarkFig11SpeedDifference(b *testing.B) {
	l := benchLab(b)
	run := benchCampaign(b)
	var rep eval.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = eval.Fig11SpeedDifference(l, run)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Metric("low_median"), "low-dv-median")
	b.ReportMetric(rep.Metric("med_median"), "med-dv-median")
	b.ReportMetric(rep.Metric("high_median"), "high-dv-median")
}

func BenchmarkTable3Power(b *testing.B) {
	var rep eval.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = eval.TableIIIPower(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Metric("HTC Sensation/GPS"), "htc-gps-mw")
	b.ReportMetric(rep.Metric("HTC Sensation/Cellular+Mic(Goertzel)"), "htc-app-mw")
}

func BenchmarkGoertzelVsFFT(b *testing.B) {
	var rep eval.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = eval.GoertzelVsFFT(5000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Metric("speedup"), "fft/goertzel-x")
}

func BenchmarkAblationMismatchPenalty(b *testing.B) {
	l := benchLab(b)
	var rep eval.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = eval.AblationMismatchPenalty(l, 4, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Metric("acc_0.3"), "accuracy@0.3")
	b.ReportMetric(rep.Metric("best_penalty"), "best-penalty")
}

func BenchmarkAblationFusion(b *testing.B) {
	l := benchLab(b)
	var rep eval.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = eval.AblationFusion(l, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Metric("bayes_err"), "bayes-err-kmh")
	b.ReportMetric(rep.Metric("naive_err"), "naive-err-kmh")
}

func BenchmarkAblationGPSBaseline(b *testing.B) {
	l := benchLab(b)
	var rep eval.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = eval.AblationGPSBaseline(l, 4, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*rep.Metric("gps_acc"), "gps-acc-%")
	b.ReportMetric(100*rep.Metric("cell_acc"), "cellular-acc-%")
}

func BenchmarkExtRegionInference(b *testing.B) {
	l := benchLab(b)
	run := benchCampaign(b)
	var rep eval.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = eval.ExtRegionInference(l, run, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*rep.Metric("zone_rel_err"), "zone-err-%")
	b.ReportMetric(100*rep.Metric("base_rel_err"), "baseline-err-%")
}

func BenchmarkExtArrivalPrediction(b *testing.B) {
	l := benchLab(b)
	run := benchCampaign(b)
	var rep eval.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = eval.ExtArrivalPrediction(l, run, 1, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Metric("rush_live_mae_s"), "rush-live-mae-s")
	b.ReportMetric(rep.Metric("rush_sched_mae_s"), "rush-sched-mae-s")
}

func BenchmarkExtParticipationSweep(b *testing.B) {
	l := benchLab(b)
	var rep eval.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = eval.ExtParticipationSweep(context.Background(), l, []int{5, 22}, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Metric("n5_covered"), "covered@5")
	b.ReportMetric(rep.Metric("n22_covered"), "covered@22")
}

func BenchmarkBeepDetectionSweep(b *testing.B) {
	var rep eval.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = eval.BeepDetectionSweep([]float64{0.05, 0.35}, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Metric("noise0.05_recall"), "recall@0.05")
	b.ReportMetric(rep.Metric("noise0.35_recall"), "recall@0.35")
}

// benchTrips lazily records one intensive campaign day as a raw trip
// corpus for the ingest benchmarks.
var (
	benchTripsOnce sync.Once
	benchTripsVal  []probe.Trip
	benchTripsErr  error
)

func benchTrips(b *testing.B) []probe.Trip {
	b.Helper()
	l := benchLab(b)
	benchTripsOnce.Do(func() {
		cfg := sim.DefaultCampaignConfig()
		cfg.Days = 1
		cfg.Participants = 22
		cfg.IntensiveFromDay = 0
		cfg.IntensiveTripsPerDay = 6
		benchTripsVal, benchTripsErr = lab.CollectTrips(context.Background(), l.Deployment, cfg)
	})
	if benchTripsErr != nil {
		b.Fatal(benchTripsErr)
	}
	return benchTripsVal
}

// benchIngest replays the recorded corpus into a fresh backend each
// iteration: workers == 1 uses the serial ProcessTrip loop, workers == 0
// the concurrent batch path at GOMAXPROCS. Run with -cpu 1,4 to see the
// batch path scale. With withObs, the backend registers into a live
// observability core and every trip emits its stage spans — the pair of
// results bounds the instrumentation overhead (budget: <= 5%; measure
// with go test -run NONE -bench 'IngestBatch(Obs)?$' -count 6 .).
func benchIngest(b *testing.B, workers int, withObs bool) {
	l := benchLab(b)
	savedObs := l.Cfg.Obs
	defer func() { l.Cfg.Obs = savedObs }()
	l.Cfg.Obs = nil
	if withObs {
		l.Cfg.Obs = obs.NewCore(clock.Wall{})
	}
	benchIngestRaw(b, workers)
}

func benchIngestRaw(b *testing.B, workers int) {
	trips := benchTrips(b)
	l := benchLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		back, err := l.NewBackend() // fresh dedup set every iteration
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if workers == 1 {
			for _, trip := range trips {
				if _, err := back.ProcessTrip(context.Background(), trip); err != nil {
					b.Fatal(err)
				}
			}
		} else {
			for _, r := range back.ProcessTrips(context.Background(), trips, workers) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
	}
	b.ReportMetric(float64(len(trips))*float64(b.N)/b.Elapsed().Seconds(), "trips/s")
}

func BenchmarkIngestSerial(b *testing.B) { benchIngest(b, 1, false) }

func BenchmarkIngestBatch(b *testing.B) { benchIngest(b, 0, false) }

func BenchmarkIngestBatchObs(b *testing.B) { benchIngest(b, 0, true) }

// BenchmarkIngestSerialObs measures the serial path with spans + metrics
// live, the worst case for per-trip instrumentation cost.
func BenchmarkIngestSerialObs(b *testing.B) { benchIngest(b, 1, true) }

// BenchmarkReadUnderIngest measures the traffic read path — one
// lock-free snapshot load plus the defensive clone every renderer
// takes — against an idle backend and against one absorbing a
// continuous re-ingest load. With the copy-on-write snapshot the two
// must stay close: readers never touch the estimator lock, so ingest
// pressure cannot stall the serving path. Measure with
// go test -run NONE -bench ReadUnderIngest -count 6 .
func BenchmarkReadUnderIngest(b *testing.B) {
	trips := benchTrips(b)
	l := benchLab(b)
	back, err := l.NewBackend()
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range back.ProcessTrips(context.Background(), trips, 0) {
		if r.Err != nil {
			b.Fatal(r.Err)
		}
	}
	back.Advance(2 * clock.DayS)
	if len(back.Traffic()) == 0 {
		b.Fatal("seed campaign produced no estimates")
	}

	readLoop := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(back.Traffic()) == 0 {
				b.Fatal("traffic map emptied mid-run")
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reads/s")
	}

	b.Run("idle", readLoop)

	// Interleaved: the corpus re-ingests between timed reads with the
	// clock stopped around every write, so the metric isolates what
	// ingest does to the read path itself (snapshot churn, cache
	// pressure) from plain CPU sharing. This is the number the
	// within-~10%-of-idle budget binds: on a single-core runner the
	// concurrent variant below necessarily pays the writer's whole CPU
	// share as well.
	b.Run("interleaved-ingest", func(b *testing.B) {
		const readsPerWrite = 50
		next, round := 0, 1
		for i := 0; i < b.N; i++ {
			if i%readsPerWrite == 0 {
				b.StopTimer()
				t := trips[next]
				t.ID = fmt.Sprintf("%s#i%d", t.ID, round)
				back.ProcessTrip(context.Background(), t) //lint:allow errcheckio background load generator; a rejection cannot invalidate the read measurement
				if next++; next == len(trips) {
					next, round = 0, round+1
				}
				b.StartTimer()
			}
			if len(back.Traffic()) == 0 {
				b.Fatal("traffic map emptied mid-run")
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reads/s")
	})

	b.Run("during-ingest", func(b *testing.B) {
		// One writer goroutine re-offers the corpus serially under fresh
		// trip IDs (dedup is by ID), so trips keep mapping, folding, and
		// republishing snapshots while the timed loop reads. A single
		// stream keeps this a lock-contention measurement rather than a
		// every-core-busy CPU-starvation one.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 1; ; round++ {
				for i := range trips {
					select {
					case <-stop:
						return
					default:
					}
					t := trips[i]
					t.ID = fmt.Sprintf("%s#r%d", t.ID, round)
					back.ProcessTrip(context.Background(), t) //lint:allow errcheckio background load generator; a rejection cannot invalidate the read measurement
				}
			}
		}()
		b.ResetTimer()
		readLoop(b)
		b.StopTimer()
		close(stop)
		wg.Wait()
	})
}

// BenchmarkEndToEndDay measures a full system day: city, survey,
// campaign, pipeline, estimation.
func BenchmarkEndToEndDay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := DefaultOptions()
		opts.World.Seed = uint64(i + 1)
		sys, err := New(opts)
		if err != nil {
			b.Fatal(err)
		}
		cfg := sim.DefaultCampaignConfig()
		cfg.Days = 1
		cfg.IntensiveFromDay = 0
		if _, err := sys.RunCampaign(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
		if len(sys.Traffic()) == 0 {
			b.Fatal("no estimates")
		}
	}
}
