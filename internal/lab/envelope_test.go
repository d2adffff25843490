package lab

import (
	"strings"
	"testing"
)

// envelopeSuite is the anchor the envelope tests run against: clean
// suite at p95 2 ms, p99 5 ms, 1000 trips/s.
var envelopeSuite = Scenario{
	Name:     "clean",
	envelope: envelope{p95S: 0.002, p99S: 0.005, tripsPerS: 1000},
}

func envelopeResult(p95, p99, tput float64) *Result {
	return &Result{
		Schema: SchemaVersion, Suite: "clean", Pass: true,
		Latency:    Latency{Count: 100, P95S: p95, P99S: p99},
		Throughput: Throughput{TripsPerS: tput},
	}
}

// envelopeCheck runs the envelope check at opts and returns the
// recorded "perf envelope" check, if any.
func envelopeCheck(t *testing.T, opts Options, s Scenario, r *Result) (Check, bool) {
	t.Helper()
	checkEnvelope(opts.withDefaults(), s, r)
	var found []Check
	for _, c := range r.Checks {
		if c.Name == "perf envelope" {
			found = append(found, c)
		}
	}
	if len(found) > 1 {
		t.Fatalf("%d perf envelope checks, want at most 1", len(found))
	}
	if len(found) == 0 {
		return Check{}, false
	}
	return found[0], true
}

// TestGateWithinEnvelope: a run inside every bound passes, even when
// somewhat slower than the anchor.
func TestGateWithinEnvelope(t *testing.T) {
	r := envelopeResult(0.004, 0.01, 600)
	c, ok := envelopeCheck(t, Options{}, envelopeSuite, r)
	if !ok {
		t.Fatal("anchored suite at the default load got no envelope check")
	}
	if !c.Pass || !r.Pass || len(r.Reasons) != 0 {
		t.Fatalf("in-envelope run failed: %+v, reasons %v", c, r.Reasons)
	}
}

// TestGateCatchesSlowRun: a deliberately slowed run breaches p95, p99
// and throughput, and the breach fails the suite.
func TestGateCatchesSlowRun(t *testing.T) {
	r := envelopeResult(0.05, 0.2, 40)
	c, ok := envelopeCheck(t, Options{}, envelopeSuite, r)
	if !ok {
		t.Fatal("no envelope check recorded")
	}
	if c.Pass || r.Pass {
		t.Fatal("slowed run passed the envelope")
	}
	breaches := strings.Split(c.Detail, "; ")
	if len(breaches) != 3 {
		t.Fatalf("want 3 breaches (p95, p99, throughput), got %q", c.Detail)
	}
	for i, want := range []string{"p95 ", "p99 ", "throughput "} {
		if !strings.HasPrefix(breaches[i], "clean: "+want) {
			t.Errorf("breach %d = %q, want prefix %q", i, breaches[i], "clean: "+want)
		}
	}
	if len(r.Reasons) != 1 || !strings.HasPrefix(r.Reasons[0], "perf envelope: ") {
		t.Errorf("reasons = %v, want one perf envelope reason", r.Reasons)
	}
}

// TestGateToleranceScale: each bound sits at exactly envelopeTolerance
// times the anchor — just inside passes, just outside breaches.
func TestGateToleranceScale(t *testing.T) {
	a := envelopeSuite.envelope
	const tol = envelopeTolerance
	inside := envelopeResult(a.p95S*tol*0.99, a.p99S*tol*0.99, a.tripsPerS/tol*1.01)
	if c, _ := envelopeCheck(t, Options{}, envelopeSuite, inside); !c.Pass {
		t.Fatalf("run just inside x%v failed: %s", tol, c.Detail)
	}
	for name, r := range map[string]*Result{
		"p95":        envelopeResult(a.p95S*tol*1.01, a.p99S, a.tripsPerS),
		"p99":        envelopeResult(a.p95S, a.p99S*tol*1.01, a.tripsPerS),
		"throughput": envelopeResult(a.p95S, a.p99S, a.tripsPerS/tol*0.99),
	} {
		c, _ := envelopeCheck(t, Options{}, envelopeSuite, r)
		if c.Pass || !strings.HasPrefix(c.Detail, "clean: "+name+" ") {
			t.Errorf("%s just outside x%v: %+v", name, tol, c)
		}
	}
}

// TestGateSkipsUnanchoredSuites: a suite without an envelope
// (drain-under-load) is left unexamined, however slow the run.
func TestGateSkipsUnanchoredSuites(t *testing.T) {
	r := envelopeResult(10, 10, 0.1)
	r.Suite = scenarioDrain.Name
	if c, ok := envelopeCheck(t, Options{}, scenarioDrain, r); ok || !r.Pass {
		t.Fatalf("unanchored suite examined: %+v", c)
	}
	for _, s := range Scenarios() {
		if anchored := s.envelope != (envelope{}); anchored != (s.Name != scenarioDrain.Name) {
			t.Errorf("suite %s anchored = %t", s.Name, anchored)
		}
	}
}

// TestGateSkipsNonDefaultLoad: the anchors hold only at the load they
// were measured at, so any other scale, campaign shape or surge
// population gets no envelope check.
func TestGateSkipsNonDefaultLoad(t *testing.T) {
	for name, opts := range map[string]Options{
		"scale":        {Scale: "paper"},
		"riders":       {Riders: 10},
		"days":         {Days: 1},
		"surge riders": {SurgeRiders: 1000},
	} {
		r := envelopeResult(10, 10, 0.1)
		if c, ok := envelopeCheck(t, opts, envelopeSuite, r); ok || !r.Pass {
			t.Errorf("%s: non-default load examined: %+v", name, c)
		}
	}
	explicit := Options{Scale: "small", Riders: defaultRiders, Days: defaultDays, SurgeRiders: defaultSurgeRiders}
	if _, ok := envelopeCheck(t, explicit, envelopeSuite, envelopeResult(0.001, 0.001, 5000)); !ok {
		t.Error("explicitly spelled default load got no envelope check")
	}
}
