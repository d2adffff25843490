package lab

import (
	"fmt"
	"strings"
)

// envelope anchors one suite's perf at the load it was measured at:
// the default small scale (defaultRiders x defaultDays; surge at
// defaultSurgeRiders x 1 day). The anchors were measured 2026-08-08 on
// a 2-vCPU container and rounded toward the slow side, so the
// envelopeTolerance bounds catch order-of-magnitude regressions, not
// scheduler jitter on shared CI runners. read-storm's upload anchors
// are intrinsically looser: its six concurrent readers share the CPU
// with the upload driver by design. restart-recovery's throughput
// anchor is the loosest: its wall clock is dominated by ten process
// boots and reboots, not by upload throughput. The zero envelope
// leaves a suite unanchored.
type envelope struct {
	p95S, p99S, tripsPerS float64
}

// envelopeTolerance turns the anchors into pass/fail bounds: a run
// breaches when p95 or p99 exceeds the anchor times this factor, or
// throughput falls below the anchor divided by it.
const envelopeTolerance = 5.0

// anchoredLoad reports whether (defaulted) options offer the load the
// envelopes were measured at; any other load gets no envelope check.
func (o Options) anchoredLoad() bool {
	return o.Scale == "small" && o.Riders == defaultRiders && o.Days == defaultDays &&
		o.SurgeRiders == defaultSurgeRiders
}

// checkEnvelope records the suite's "perf envelope" check when s is
// anchored and opts offered the anchored load. A breach fails the
// suite like any other check.
func checkEnvelope(opts Options, s Scenario, r *Result) {
	a := s.envelope
	if a == (envelope{}) || !opts.anchoredLoad() {
		return
	}
	var breaches []string
	if r.Latency.P95S > a.p95S*envelopeTolerance {
		breaches = append(breaches, fmt.Sprintf("%s: p95 %.4fs exceeds baseline %.4fs x%.1f tolerance",
			r.Suite, r.Latency.P95S, a.p95S, envelopeTolerance))
	}
	if r.Latency.P99S > a.p99S*envelopeTolerance {
		breaches = append(breaches, fmt.Sprintf("%s: p99 %.4fs exceeds baseline %.4fs x%.1f tolerance",
			r.Suite, r.Latency.P99S, a.p99S, envelopeTolerance))
	}
	if r.Throughput.TripsPerS < a.tripsPerS/envelopeTolerance {
		breaches = append(breaches, fmt.Sprintf("%s: throughput %.1f trips/s below baseline %.1f / %.1f tolerance",
			r.Suite, r.Throughput.TripsPerS, a.tripsPerS, envelopeTolerance))
	}
	detail := strings.Join(breaches, "; ")
	if len(breaches) == 0 {
		detail = fmt.Sprintf("p95 %.4fs <= %.4fs, p99 %.4fs <= %.4fs, %.1f trips/s >= %.1f (baseline x%.1f tolerance)",
			r.Latency.P95S, a.p95S*envelopeTolerance, r.Latency.P99S, a.p99S*envelopeTolerance,
			r.Throughput.TripsPerS, a.tripsPerS/envelopeTolerance, envelopeTolerance)
	}
	r.check("perf envelope", len(breaches) == 0, detail)
}
