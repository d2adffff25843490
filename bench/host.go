package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"busprobe/internal/clock"
	"busprobe/internal/lab"
	"busprobe/internal/obs"
	"busprobe/internal/server"
)

// hosted is the traced run's in-process server: the stack
// busprobe-server assembles (coordinator, store recovery, handler with
// the observability core), with the benchmark's spans around each
// layer's public entry points and no tracing inside the program.
type hosted struct {
	url     string
	coord   *server.Coordinator
	recs    []*server.StoreRecovery
	tr      *tracer
	srv     *http.Server
	served  chan error
	recover time.Duration
}

// host recovers the stack from dir and serves it on a loopback port.
func host(ctx context.Context, dep *lab.Deployment, dir string, shards int) (*hosted, error) {
	cfg := dep.Cfg
	core := obs.NewCore(clock.Wall{})
	cfg.Obs = core
	coord, err := server.NewCoordinator(cfg, dep.World.Transit, dep.FPDB, shards)
	if err != nil {
		return nil, err
	}
	h := &hosted{coord: coord, tr: newTracer(), served: make(chan error, 1)}
	for i, b := range coord.Shards() {
		h.tr.hookStages(b.Pipeline(), i)
	}
	start := wallNow()
	h.recs, err = coord.RecoverStores(ctx, dir, storeOptions(""), nil)
	h.recover = since(start)
	if err != nil {
		return nil, err
	}
	for i, b := range coord.Shards() {
		if h.recs[i].Err != "" {
			return nil, fmt.Errorf("recover shard %d: %s", i, h.recs[i].Err)
		}
		b.AttachTripLog(&tracedLog{t: h.tr, inner: h.recs[i].Log(), shard: i})
	}
	api := &tracedAPI{API: coord, t: h.tr}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h.url = "http://" + ln.Addr().String()
	h.srv = &http.Server{Handler: h.tr.handler(server.NewHandler(api, server.HandlerConfig{Obs: core}))}
	go func() { h.served <- h.srv.Serve(ln) }()
	return h, nil
}

// versions sums the shards' published snapshot versions.
func (h *hosted) versions() uint64 {
	var v uint64
	for _, b := range h.coord.Shards() {
		v += b.TrafficSnapshot().Version
	}
	return v
}

// stop drains the listener, takes the final checkpoint of every shard
// (timed, as busprobe-server does on SIGTERM) and closes the logs.
func (h *hosted) stop() (checkpoint time.Duration, err error) {
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second) //lint:allow ctxpropagate shutdown must drain even after the run's context is cancelled; bounded by the timeout
	defer cancel()
	if serr := h.srv.Shutdown(sctx); serr != nil {
		err = serr
	}
	if serr := <-h.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	start := wallNow()
	for _, b := range h.coord.Shards() {
		if cerr := b.Checkpoint(); cerr != nil && err == nil {
			err = cerr
		}
	}
	checkpoint = since(start)
	for _, r := range h.recs {
		if cerr := r.Log().Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return checkpoint, err
}
