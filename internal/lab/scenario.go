package lab

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"busprobe/internal/clock"
	"busprobe/internal/probe"
	"busprobe/internal/server"
	"busprobe/internal/sim"
)

// Options configures a harness run. Zero values pick the defaults the
// CI smoke uses.
type Options struct {
	// ServerBin is the busprobe-server binary the scenarios boot.
	ServerBin string
	// OutDir, when set, receives one <suite>.json per scenario run.
	OutDir string
	// Seed is the master world seed (default 1). The harness and every
	// booted process derive the same city and fingerprint DB from it.
	Seed uint64
	// Scale is the world preset: "small" (default) or "paper".
	Scale string
	// SurveyRuns is the fingerprint survey passes per stop (default 4;
	// must match the booted server's -survey-runs).
	SurveyRuns int
	// Riders / Days override the scenario's default campaign shape
	// (0 = default: defaultRiders riders, defaultDays days).
	Riders int
	Days   int
	// SurgeRiders is the surge scenario's rider population
	// (0 = defaultSurgeRiders).
	SurgeRiders int
	// MemoryBoundBytes is the surge driver's heap-growth ceiling
	// (0 = 256 MiB).
	MemoryBoundBytes uint64
	// Clock times the run; nil uses the wall clock.
	Clock clock.Clock
	// Log receives progress lines; nil discards them.
	Log io.Writer
	// BootTimeout bounds one server process's boot (0 = 120s).
	BootTimeout time.Duration
	// DrainTimeout bounds a graceful shutdown wait (0 = 30s).
	DrainTimeout time.Duration
}

// The default campaign shape; the suites' perf envelopes are anchored
// at exactly this load.
const (
	defaultRiders      = 22
	defaultDays        = 2
	defaultSurgeRiders = 100000
)

// withDefaults fills the zero values in.
func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Scale == "" {
		o.Scale = "small"
	}
	if o.SurveyRuns <= 0 {
		o.SurveyRuns = 4
	}
	if o.Riders <= 0 {
		o.Riders = defaultRiders
	}
	if o.Days <= 0 {
		o.Days = defaultDays
	}
	if o.SurgeRiders <= 0 {
		o.SurgeRiders = defaultSurgeRiders
	}
	if o.MemoryBoundBytes == 0 {
		o.MemoryBoundBytes = 256 << 20
	}
	if o.Clock == nil {
		o.Clock = clock.Wall{}
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
	if o.BootTimeout <= 0 {
		o.BootTimeout = 120 * time.Second
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 30 * time.Second
	}
	return o
}

// Scenario is one named conformance suite.
type Scenario struct {
	// Name is the CLI-facing identifier.
	Name string
	// Description restates what the suite proves.
	Description string
	run         func(ctx context.Context, e *env, r *Result) error
	// envelope is the suite's perf anchor (zero = unanchored).
	envelope envelope
}

// Scenarios lists the registered suites in run order.
func Scenarios() []Scenario {
	return []Scenario{
		scenarioClean,
		scenarioChaos,
		scenarioSharded,
		scenarioShardProcs,
		scenarioDrain,
		scenarioRestart,
		scenarioReadStorm,
		scenarioSurge,
	}
}

// Lookup resolves a scenario by name.
func Lookup(name string) (Scenario, bool) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// env is the shared run state scenarios draw on: options, the
// in-process deployment mirror, and a memoized clean corpus.
type env struct {
	opts Options
	dep  *Deployment

	corpus      []probe.Trip
	corpusShape [2]int // riders, days the memoized corpus was built for
}

// newEnv builds the deployment mirror for the configured scale.
func newEnv(opts Options) (*env, error) {
	worldCfg, err := sim.PresetWorldConfig(opts.Scale)
	if err != nil {
		return nil, err
	}
	worldCfg.Seed = opts.Seed
	dep, err := NewDeployment(worldCfg, opts.SurveyRuns)
	if err != nil {
		return nil, err
	}
	return &env{opts: opts, dep: dep}, nil
}

// logf emits one progress line.
func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.opts.Log, "lab: "+format+"\n", args...) //lint:allow errcheckio a lost progress line must not fail the scenario; the result document carries the verdict
}

// campaign shapes the scenario's load: a flat trips-per-day campaign
// over the configured riders and days, seeded off the master seed the
// way busprobe-sim seeds its campaigns.
func (e *env) campaign(riders, days int) sim.CampaignConfig {
	cfg := sim.DefaultCampaignConfig()
	cfg.Days = days
	cfg.Participants = riders
	cfg.SparseTripsPerDay = 3
	cfg.IntensiveTripsPerDay = 3
	cfg.IntensiveFromDay = 0
	cfg.Seed = e.opts.Seed ^ 0xca
	return cfg
}

// cleanCorpus memoizes the fault-free recorded corpus for the run's
// load shape; every scenario replaying "the same trips" shares it.
func (e *env) cleanCorpus(ctx context.Context) ([]probe.Trip, error) {
	shape := [2]int{e.opts.Riders, e.opts.Days}
	if e.corpus != nil && e.corpusShape == shape {
		return e.corpus, nil
	}
	trips, err := CollectTrips(ctx, e.dep, e.campaign(shape[0], shape[1]))
	if err != nil {
		return nil, err
	}
	e.corpus, e.corpusShape = trips, shape
	return trips, nil
}

// serverProc is one booted busprobe-server with its public base URL.
type serverProc struct {
	*Proc
	URL    string
	Client *server.Client
}

// bootArgs are the flags every booted process shares so it derives the
// same world as the harness.
func (e *env) bootArgs(addr string) []string {
	return []string{
		"-addr", addr,
		"-seed", strconv.FormatUint(e.opts.Seed, 10),
		"-world", e.opts.Scale,
		"-survey-runs", strconv.Itoa(e.opts.SurveyRuns),
	}
}

// bootServer starts one busprobe-server with the shared world flags
// plus extra, and waits for it to answer its liveness probe.
func (e *env) bootServer(ctx context.Context, name string, extra ...string) (*serverProc, error) {
	port, err := FreePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	url := "http://" + addr
	args := append(e.bootArgs(addr), extra...)
	p, err := StartProc(name, e.opts.ServerBin, args...)
	if err != nil {
		return nil, err
	}
	bootCtx, cancel := context.WithTimeout(ctx, e.opts.BootTimeout)
	defer cancel()
	if err := p.AwaitHealthy(bootCtx, url); err != nil {
		_ = p.Kill()
		return nil, err
	}
	cli, err := server.NewClient(url, nil)
	if err != nil {
		_ = p.Kill()
		return nil, err
	}
	e.logf("%s healthy at %s", name, url)
	return &serverProc{Proc: p, URL: url, Client: cli}, nil
}

// shutdownCtx is the cleanup-path context for deferred Shutdowns.
func (e *env) shutdownCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), e.opts.DrainTimeout) //lint:allow ctxpropagate cleanup must drain even after the scenario ctx is cancelled; bounded by DrainTimeout
}

// checkDrain SIGTERMs a process and records the graceful-drain checks
// on the result: exit code 0 within the drain timeout, and the drain
// completion line in the log.
func checkDrain(e *env, r *Result, p *serverProc) {
	ctx, cancel := e.shutdownCtx()
	defer cancel()
	code, err := p.Stop(ctx)
	if err != nil {
		r.check("drain: "+p.Name+" exits before timeout", false, err.Error())
		return
	}
	r.check("drain: "+p.Name+" exits 0 on SIGTERM", code == 0, fmt.Sprintf("exit code %d", code))
}

// fetchRaw GETs a path from a booted server, returning status and raw
// body bytes — the exact wire encoding, for byte-equivalence checks.
func fetchRaw(ctx context.Context, baseURL, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+path, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := (&http.Client{Timeout: 30 * time.Second}).Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, body, nil
}

// trafficBytes renders an in-process API's /v1/traffic exactly as the
// wire serves it, by running the real handler against a recorded
// request — the reference side of every byte-equivalence check.
func trafficBytes(api server.API) ([]byte, error) {
	h := server.NewHandler(api, server.HandlerConfig{})
	req := httptest.NewRequest(http.MethodGet, "/v1/traffic", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("lab: reference /v1/traffic status %d", rec.Code)
	}
	return rec.Body.Bytes(), nil
}

// compareTraffic runs the byte-equivalence check of a system under
// test's raw /v1/traffic bytes against the reference bytes.
func compareTraffic(reference string, refBytes, sutBytes []byte, segments int) *Equivalence {
	eq := &Equivalence{Reference: reference, Segments: segments}
	if string(refBytes) == string(sutBytes) {
		eq.ByteIdentical = true
		return eq
	}
	n := len(refBytes)
	if len(sutBytes) < n {
		n = len(sutBytes)
	}
	at := n
	for i := 0; i < n; i++ {
		if refBytes[i] != sutBytes[i] {
			at = i
			break
		}
	}
	eq.Detail = fmt.Sprintf("diverges at byte %d (reference %d bytes, run %d bytes)", at, len(refBytes), len(sutBytes))
	return eq
}

// Run executes the named scenarios in order against one shared
// deployment, returning one standard Result per suite. When outDir is
// non-empty each result is also written to <outDir>/<suite>.json. A
// scenario whose infrastructure fails (boot error, corpus error)
// yields a failing Result rather than aborting the run, so CI always
// gets the full artifact set; the error return is reserved for
// unusable configurations (unknown scenario, missing binary).
func Run(ctx context.Context, opts Options, names []string) ([]*Result, error) {
	opts = opts.withDefaults()
	if opts.ServerBin == "" {
		return nil, fmt.Errorf("lab: no server binary configured")
	}
	if _, err := os.Stat(opts.ServerBin); err != nil {
		return nil, fmt.Errorf("lab: server binary: %w", err)
	}
	var scens []Scenario
	for _, name := range names {
		s, ok := Lookup(name)
		if !ok {
			return nil, fmt.Errorf("lab: unknown scenario %q", name)
		}
		scens = append(scens, s)
	}
	if opts.OutDir != "" {
		if err := os.MkdirAll(opts.OutDir, 0o755); err != nil {
			return nil, fmt.Errorf("lab: out dir: %w", err)
		}
	}
	e, err := newEnv(opts)
	if err != nil {
		return nil, err
	}
	var results []*Result
	for _, s := range scens {
		e.logf("=== %s: %s", s.Name, s.Description)
		r := &Result{
			Schema:      SchemaVersion,
			Suite:       s.Name,
			Description: s.Description,
			Seed:        opts.Seed,
			Scale:       opts.Scale,
			Pass:        true,
			Reasons:     []string{},
			Checks:      []Check{},
		}
		start := opts.Clock.Now()
		if err := s.run(ctx, e, r); err != nil {
			r.check("scenario completes", false, err.Error())
		}
		checkEnvelope(opts, s, r)
		r.DurationS = clock.Since(opts.Clock, start).Seconds()
		e.logf("=== %s: pass=%t (%.1fs)", s.Name, r.Pass, r.DurationS)
		results = append(results, r)
		if opts.OutDir != "" {
			data, err := r.Encode()
			if err != nil {
				return results, err
			}
			path := filepath.Join(opts.OutDir, s.Name+".json")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				return results, fmt.Errorf("lab: write %s: %w", path, err)
			}
		}
	}
	return results, nil
}
