package main

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"busprobe/internal/core/arrival"
	"busprobe/internal/core/traffic"
	"busprobe/internal/probe"
	"busprobe/internal/server"
	"busprobe/internal/server/stage"
	"busprobe/internal/transit"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public entry point. Spans of one request chain through
// parent IDs carried in the request context.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name,omitempty"`
	Shard  int    `json:"shard"`
	In     int    `json:"in,omitempty"`
	Out    int    `json:"out,omitempty"`
	Drop   int    `json:"drop,omitempty"`
	// StartNs and EndNs are offsets from the tracer's start.
	StartNs int64 `json:"startNs"`
	EndNs   int64 `json:"endNs"`
	// Miss marks a coordinator snapshot call that returned a different
	// snapshot than the call before it (a merge, not a cache hit).
	Miss bool `json:"miss,omitempty"`
}

func (s span) iv(t0 time.Time) interval {
	return interval{t0.Add(time.Duration(s.StartNs)), t0.Add(time.Duration(s.EndNs))}
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

type spanKey struct{}

// parentOf returns the span ID the context carries, or 0.
func parentOf(ctx context.Context) int64 {
	id, _ := ctx.Value(spanKey{}).(int64)
	return id
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span //lint:guardedby mu
}

func newTracer() *tracer { return &tracer{t0: wallNow()} }

func (t *tracer) offset(at time.Time) int64 { return int64(at.Sub(t.t0)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// begin opens a span under the context's span and returns the context
// its callees should see plus the function that closes the span.
func (t *tracer) begin(ctx context.Context, layer, name string) (context.Context, func(s span)) {
	id := t.nextID.Add(1)
	parent := parentOf(ctx)
	start := t.offset(wallNow())
	return context.WithValue(ctx, spanKey{}, id), func(s span) {
		s.ID, s.Parent, s.Layer, s.Name = id, parent, layer, name
		s.StartNs, s.EndNs = start, t.offset(wallNow())
		t.record(s)
	}
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// handler wraps the served HTTP surface in one "http" span per request.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, end := t.begin(r.Context(), "http", r.URL.Path)
		next.ServeHTTP(w, r.WithContext(ctx))
		end(span{})
	})
}

// hookStages chains a span-recording hook onto every stage of one
// shard's pipeline. A hook fires when its stage run ends, with the
// run's duration, so the span is [end - d, end].
func (t *tracer) hookStages(p *stage.Pipeline, shard int) {
	for _, st := range p.Stages() {
		prev := st.CurrentHook()
		st.SetHook(func(ctx context.Context, name string, in, out, dropped int, d time.Duration) {
			if prev != nil {
				prev(ctx, name, in, out, dropped, d)
			}
			end := t.offset(wallNow())
			t.record(span{
				ID: t.nextID.Add(1), Parent: parentOf(ctx), Layer: name, Shard: shard,
				In: in, Out: out, Drop: dropped, StartNs: end - int64(d), EndNs: end,
			})
		})
	}
}

// tracedLog is a server.TripLog that records a "store" span around
// every append of the log it wraps.
type tracedLog struct {
	t     *tracer
	inner server.TripLog
	shard int
}

func (l *tracedLog) Append(ctx context.Context, trip probe.Trip) error {
	ctx, end := l.t.begin(ctx, "store", "append")
	err := l.inner.Append(ctx, trip)
	end(span{Shard: l.shard})
	return err
}

// tracedAPI is the server.API the traced run hands to server.NewHandler:
// it records an "api" span around the calls the handlers make.
// Snapshot and arrivals calls take no context, so their spans have no
// parent; the analysis attributes them to the read request whose span
// encloses them.
type tracedAPI struct {
	server.API
	t    *tracer
	mu   sync.Mutex
	last *traffic.Snapshot //lint:guardedby mu
}

func (a *tracedAPI) IngestBatch(ctx context.Context, trips []probe.Trip) []server.TripResult {
	ctx, end := a.t.begin(ctx, "api", "ingest")
	res := a.API.IngestBatch(ctx, trips)
	end(span{In: len(trips)})
	return res
}

func (a *tracedAPI) ProcessTrip(ctx context.Context, trip probe.Trip) (server.ProcessedTrip, error) {
	ctx, end := a.t.begin(ctx, "api", "ingest")
	res, err := a.API.ProcessTrip(ctx, trip)
	end(span{In: 1})
	return res, err
}

func (a *tracedAPI) TrafficSnapshot() *traffic.Snapshot {
	_, end := a.t.begin(context.Background(), "api", "snapshot")
	snap := a.API.TrafficSnapshot()
	a.mu.Lock()
	miss := snap != a.last
	a.last = snap
	a.mu.Unlock()
	end(span{Miss: miss})
	return snap
}

func (a *tracedAPI) PredictArrivals(routeID transit.RouteID, fromIdx int, departS float64) ([]arrival.Prediction, error) {
	_, end := a.t.begin(context.Background(), "api", "arrivals")
	preds, err := a.API.PredictArrivals(routeID, fromIdx, departS)
	end(span{})
	return preds, err
}
