package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"busprobe/internal/lab"
	"busprobe/internal/server"
	"busprobe/internal/stats"
)

// conn is one keep-alive HTTP connection of the load generator.
type conn struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &conn{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// do sends one request and reads the whole response.
func (c *conn) do(ctx context.Context, method, path string, body []byte, etag string) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, out, err
}

// event is one completed request: when its response arrived, its
// latency, and how many trips it got acknowledged (uploads only).
type event struct {
	at    time.Time
	ms    float64
	trips int
}

// tally is one connection's record of a drive; connections keep their
// own and merge at the end, so recording never contends.
type tally struct {
	uploads   []event // latency from sent (closed loop) or due (open loop) to ack
	reads     []event // latency from sent (closed loop) or due (open loop) to response
	readKind  map[string][]float64
	lateMs    []float64 // send time minus the time the request was due
	attempted int
	failed    int
	firstFail string
	sentBytes int64 // upload request bytes
}

func newTally() *tally { return &tally{readKind: make(map[string][]float64)} }

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if t.firstFail == "" {
		t.firstFail = fmt.Sprintf(format, args...)
	}
}

func (t *tally) merge(o *tally) {
	t.uploads = append(t.uploads, o.uploads...)
	t.reads = append(t.reads, o.reads...)
	for k, v := range o.readKind {
		t.readKind[k] = append(t.readKind[k], v...) //lint:allow maporder each key's samples append once per merge; no order across keys escapes
	}
	t.lateMs = append(t.lateMs, o.lateMs...)
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstFail == "" {
		t.firstFail = o.firstFail
	}
	t.sentBytes += o.sentBytes
}

// trips counts the acknowledged trips.
func (t *tally) trips() int {
	n := 0
	for _, e := range t.uploads {
		n += e.trips
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// upload posts one pre-encoded upload, a batch or a single trip, and
// checks that every trip in it was accepted. Unexpected rejections are
// failures: the corpus holds only valid, distinct trips.
func (t *tally) upload(ctx context.Context, c *conn, body []byte, trips int, batched bool, from time.Time) {
	t.attempted++
	t.sentBytes += int64(len(body))
	path, want := "/v1/trips/batch", http.StatusOK
	if !batched {
		path, want = "/v1/trips", http.StatusAccepted
	}
	status, _, resp, err := c.do(ctx, http.MethodPost, path, body, "")
	now := wallNow()
	e := event{at: now, ms: ms(now.Sub(from))}
	defer func() { t.uploads = append(t.uploads, e) }()
	if err != nil || status != want {
		t.fail("POST %s: status %d, err %v: %.200s", path, status, err, resp)
		return
	}
	if !batched {
		var ack server.UploadResponseJSON
		if err := json.Unmarshal(resp, &ack); err != nil || !ack.Accepted {
			t.fail("POST %s: not accepted: %.200s", path, resp)
			return
		}
		e.trips = 1
		return
	}
	var ack server.BatchUploadResponseJSON
	if err := json.Unmarshal(resp, &ack); err != nil || ack.Accepted != trips || ack.Rejected != 0 {
		t.fail("POST %s: %d of %d accepted: %.200s", path, ack.Accepted, trips, resp)
		return
	}
	e.trips = trips
}

// read issues one read and records its latency from `from`.
func (t *tally) read(ctx context.Context, c *conn, kind, path, etag string, from time.Time) (int, http.Header, []byte) {
	t.attempted++
	status, hdr, body, err := c.do(ctx, http.MethodGet, path, nil, etag)
	now := wallNow()
	d := ms(now.Sub(from))
	t.reads = append(t.reads, event{at: now, ms: d})
	t.readKind[kind] = append(t.readKind[kind], d)
	if err != nil || (status != http.StatusOK && status != http.StatusNotModified) {
		t.fail("GET %s: status %d, err %v: %.200s", path, status, err, body)
		return 0, nil, nil
	}
	return status, hdr, body
}

// watchView is a client's copy of the map, kept current by applying
// /v1/traffic/watch deltas; rendered, it must equal GET /v1/traffic.
type watchView struct {
	version uint64
	rows    map[int]server.SegmentEstimateJSON
}

func newWatchView() *watchView {
	return &watchView{rows: make(map[int]server.SegmentEstimateJSON)}
}

func (v *watchView) path() string {
	return "/v1/traffic/watch?since=" + strconv.FormatUint(v.version, 10) + "&waitS=0"
}

func (v *watchView) apply(body []byte) error {
	var d server.TrafficWatchJSON
	if err := json.Unmarshal(body, &d); err != nil {
		return err
	}
	if d.Resync {
		v.rows = make(map[int]server.SegmentEstimateJSON)
	}
	for _, r := range d.Changed {
		v.rows[r.Segment] = r
	}
	for _, sid := range d.Removed {
		delete(v.rows, sid)
	}
	v.version = d.Version
	return nil
}

// render encodes the view as the server encodes /v1/traffic.
func (v *watchView) render() []byte {
	rows := make([]server.SegmentEstimateJSON, 0, len(v.rows))
	for _, r := range v.rows {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Segment < rows[j].Segment })
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(rows) //lint:allow errcheckio encoding plain structs into a bytes.Buffer cannot fail
	return buf.Bytes()
}

// drive is the outcome of one workload drive against a server.
type drive struct {
	tally
	start, end time.Time // the measured span
	serverCPU  float64   // server CPU seconds spent during the drive
	problems   []string  // correctness-gate breaches
	finalMap   []byte    // /v1/traffic after the drive
	checksRun  int
}

func (d *drive) seconds() float64 { return d.end.Sub(d.start).Seconds() }

func (d *drive) problem(format string, args ...any) {
	d.problems = append(d.problems, fmt.Sprintf(format, args...))
}

// checkMap compares the served map with the reference replay.
func (d *drive) checkMap(ctx context.Context, c *conn, want string, label string) []byte {
	status, _, body, err := c.do(ctx, http.MethodGet, "/v1/traffic", nil, "")
	d.checksRun++
	if err != nil || status != http.StatusOK {
		d.problem("%s: GET /v1/traffic status %d, err %v", label, status, err)
		return nil
	}
	if string(body) != want {
		d.problem("%s: served /v1/traffic (%d bytes) differs from the in-process monolith replay (%d bytes) at byte %d",
			label, len(body), len(want), firstDiff(body, []byte(want)))
	}
	return body
}

// checkView refreshes a watch view and compares it with the served map.
func (d *drive) checkView(ctx context.Context, c *conn, v *watchView, served []byte, label string) {
	status, _, body, err := c.do(ctx, http.MethodGet, v.path(), nil, "")
	d.checksRun++
	if err != nil || status != http.StatusOK {
		d.problem("%s: watch status %d, err %v", label, status, err)
		return
	}
	if err := v.apply(body); err != nil {
		d.problem("%s: watch body: %v", label, err)
		return
	}
	if got := v.render(); !bytes.Equal(got, served) {
		d.problem("%s: map folded from watch deltas differs from /v1/traffic at byte %d", label, firstDiff(got, served))
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) < len(b) {
		return len(a)
	}
	return len(b)
}

// driveIngest runs an ingest workload: two closed-loop connections post
// the pre-encoded batches in order, each following every ack with a
// watch poll that keeps its map copy current. At every check the two
// connections drain, and the served map must equal the reference
// replay of exactly the trips acknowledged so far: ack means visible.
// Each check also asks for a few arrival forecasts, which must succeed.
func driveIngest(ctx context.Context, base string, dep *lab.Deployment, p *plan, ref *reference) *drive {
	var bodies [][]byte
	var sizes []int
	for i := 0; i < len(p.deliver); i += p.batch {
		j := i + p.batch
		if j > len(p.deliver) {
			j = len(p.deliver)
		}
		bodies = append(bodies, batchBody(p.deliver[i:j]))
		sizes = append(sizes, j-i)
	}
	conns := []*conn{newConn(base), newConn(base)}
	views := []*watchView{newWatchView(), newWatchView()}
	tallies := []*tally{newTally(), newTally()}
	defer func() {
		for _, c := range conns {
			c.close()
		}
	}()
	d := &drive{tally: *newTally(), start: wallNow()}
	queries := arrivalQueries(dep, p.seed, 4*len(p.checks))
	var next atomic.Int64
	for k, at := range p.checks {
		stop := int64((at + p.batch - 1) / p.batch)
		start := wallNow()
		var wg sync.WaitGroup
		for ci := range conns {
			wg.Add(1)
			go func(c *conn, v *watchView, t *tally) {
				defer wg.Done()
				due := start
				for {
					i := next.Add(1) - 1
					if i >= stop || ctx.Err() != nil {
						next.Add(-1)
						return
					}
					sent := wallNow()
					t.lateMs = append(t.lateMs, ms(sent.Sub(due)))
					t.upload(ctx, c, bodies[i], sizes[i], true, sent)
					polled := wallNow()
					if status, _, body := t.read(ctx, c, "watch", v.path(), "", polled); status == http.StatusOK {
						if err := v.apply(body); err != nil {
							t.fail("watch body: %v", err)
						}
					}
					due = wallNow()
				}
			}(conns[ci], views[ci], tallies[ci])
		}
		wg.Wait()
		d.end = wallNow()
		d.finalMap = d.checkMap(ctx, conns[0], ref.Maps[k], fmt.Sprintf("check %d/%d (%d trips acked)", k+1, len(p.checks), at))
		for _, q := range queries[4*k : 4*k+4] {
			d.checksRun++
			if status, _, body, err := conns[0].do(ctx, http.MethodGet, q, nil, ""); err != nil || status != http.StatusOK {
				d.problem("GET %s: status %d, err %v: %.200s", q, status, err, body)
			}
		}
	}
	for ci := range conns {
		d.checkView(ctx, conns[ci], views[ci], d.finalMap, fmt.Sprintf("connection %d watch view", ci))
		d.merge(tallies[ci])
	}
	return d
}

// readMix is map-readers' fixed request mix, cycled in order: four
// full maps, three conditional GETs, two watch polls, one arrivals.
var readMix = []string{"full", "cond", "watch", "full", "cond", "arrivals", "full", "watch", "cond", "full"}

// arrivalQueries are seeded /v1/arrivals queries over the world's routes.
func arrivalQueries(dep *lab.Deployment, seed uint64, n int) []string {
	rng := stats.NewRNG(seed ^ 0xa77).Fork("arrivals")
	routes := dep.World.Transit.Routes()
	out := make([]string, n)
	for i := range out {
		rt := routes[rng.Intn(len(routes))]
		stop := rng.Intn(len(rt.Stops) - 1)
		depart := 6*3600 + rng.Intn(14*3600)
		out[i] = fmt.Sprintf("/v1/arrivals?route=%s&stop=%d&depart=%d", rt.ID, stop, depart)
	}
	return out
}

// driveReaders runs map-readers: an open-loop reader connection issues
// the read mix at readRate while an open-loop uploader connection sends
// the trickle at trickleRate, both for the run's seconds. Latencies run
// from each request's due time, so a stall also charges the requests
// queued behind it.
//
// The ack-means-visible checks hold the reader off while they run. A
// coordinator read that loses the merge lock to a concurrent read
// serves the previous merged map (the documented TryLock fallback of
// Coordinator.TrafficSnapshot), so only a read with no other read in
// flight is promised the acknowledged upload.
func driveReaders(ctx context.Context, base string, dep *lab.Deployment, p *plan, ref *reference) *drive {
	reader, uploader := newConn(base), newConn(base)
	defer reader.close()
	defer uploader.close()
	rt, ut := newTally(), newTally()
	start := wallNow().Add(20 * time.Millisecond)
	span := time.Duration(p.seconds) * time.Second
	d := &drive{tally: *newTally(), start: start}
	view := newWatchView()
	queries := arrivalQueries(dep, p.seed, 64)
	var quiet sync.RWMutex // read-held by every read, write-held by a check
	waitUntil := func(due time.Time) {
		if d := due.Sub(wallNow()); d > 0 {
			time.Sleep(d)
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		etag := ""
		for i := 0; ctx.Err() == nil; i++ {
			due := start.Add(time.Duration(i) * time.Second / readRate)
			if !due.Before(start.Add(span)) {
				return
			}
			waitUntil(due)
			quiet.RLock()
			rt.lateMs = append(rt.lateMs, ms(wallNow().Sub(due)))
			switch kind := readMix[i%len(readMix)]; kind {
			case "full", "cond":
				tag := ""
				if kind == "cond" {
					tag = etag
				}
				if status, hdr, _ := rt.read(ctx, reader, kind, "/v1/traffic", tag, due); status == http.StatusOK {
					etag = hdr.Get("ETag")
				}
			case "watch":
				if status, _, body := rt.read(ctx, reader, kind, view.path(), "", due); status == http.StatusOK {
					if err := view.apply(body); err != nil {
						rt.fail("watch body: %v", err)
					}
				}
			case "arrivals":
				rt.read(ctx, reader, kind, queries[i%len(queries)], "", due)
			}
			quiet.RUnlock()
		}
	}()
	go func() {
		defer wg.Done()
		k := 0
		for j := 0; j < len(p.deliver) && ctx.Err() == nil; j++ {
			due := start.Add(time.Duration(j) * time.Second / trickleRate)
			waitUntil(due)
			ut.lateMs = append(ut.lateMs, ms(wallNow().Sub(due)))
			ut.upload(ctx, uploader, p.deliver[j].body, 1, false, due)
			if k < len(p.checks) && j+1 == p.checks[k] {
				quiet.Lock()
				d.finalMap = d.checkMap(ctx, uploader, ref.Maps[k], fmt.Sprintf("check %d/%d (%d trickle trips acked)", k+1, len(p.checks), j+1))
				quiet.Unlock()
				k++
			}
		}
	}()
	wg.Wait()
	d.end = wallNow()
	d.checkView(ctx, reader, view, d.finalMap, "reader watch view")
	d.merge(rt)
	d.merge(ut)
	return d
}
