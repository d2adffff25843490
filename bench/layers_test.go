package main

import (
	"math"
	"testing"
	"time"
)

// TestAnalyzeSelfTimes runs the per-layer arithmetic over a hand-built
// trace: one batch upload whose two trips append, match on parallel
// workers and fold partly on another shard, plus overlapping reads.
func TestAnalyzeSelfTimes(t *testing.T) {
	at := func(id, parent int64, layer, name string, shard int, from, to int64) span {
		return span{ID: id, Parent: parent, Layer: layer, Name: name, Shard: shard,
			StartNs: from * int64(time.Microsecond), EndNs: to * int64(time.Microsecond)}
	}
	spans := []span{
		at(1, 0, "http", "/v1/trips/batch", 0, 0, 1000),
		at(2, 1, "api", "ingest", 0, 100, 900),
		at(3, 2, "store", "append", 0, 150, 200),
		at(4, 2, "store", "append", 0, 150, 250),
		at(5, 2, "match", "", 0, 200, 500),
		at(6, 2, "match", "", 0, 300, 600),
		at(7, 2, "estimate", "", 0, 600, 800),
		at(8, 2, "estimate", "", 1, 800, 850),
		at(9, 0, "http", "/v1/traffic", 0, 2000, 2300),
		at(10, 0, "api", "snapshot", 0, 2100, 2150),
		at(11, 0, "http", "/v1/traffic/watch", 0, 2200, 2500),
		at(12, 0, "api", "snapshot", 0, 2400, 2420),
		at(13, 0, "http", "/v1/arrivals", 0, 3000, 3100),
	}
	spans[1].In = 2
	spans[4].In, spans[4].Out = 10, 9
	spans[5].In, spans[5].Out = 10, 10
	spans[6].In, spans[6].Out = 3, 3
	spans[7].In, spans[7].Out = 1, 1
	spans[9].Miss = true
	d := &drive{tally: *newTally()}
	d.sentBytes, d.uploads = 9000, []event{{ms: 1.5, trips: 2}}
	l := analyze(&layerRun{spans: spans, t0: time.Unix(0, 0), drive: d, ref: &reference{}})
	for name, want := range map[string]float64{
		"http.ingest_self_us_per_trip": 100, // 1000 - 800 api, over 2 trips
		"http.req_bytes_per_trip":      4500,
		"server.ingest_us_per_trip":    400,
		"server.self_us_per_trip":      50, // 800 - union [150, 850]
		"store.append_us_p50":          75,
		"store.append_us_p99":          99.5,
		"match.us_per_sample":          30,
		"match.matched_frac":           0.95,
		"estimate.us_per_obs":          62.5,
		"coord.cross_shard_obs_frac":   0.25,
		"http.traffic_self_us":         250, // its snapshot call is 50 µs
		"http.watch_self_us":           280, // the later-started read encloses the second call
		"http.arrivals_us":             100,
		"coord.merge_us":               50,
		"coord.merge_hit_frac":         0.5,
		"trace.e2e_us_per_trip":        750,
		"trace.outside_us_per_trip":    100, // 750 - (100 + 50 + 75 + 300 + 125)
	} {
		if got := l.metrics[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestSlices(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	m := &stealMonitor{samples: []stealSample{
		{at(0), 0, 0}, {at(1000), 200, 0}, {at(2000), 400, 20}, {at(3000), 600, 20},
	}}
	d := &drive{start: t0, end: at(3000)}
	d.uploads = []event{{at(500), 4, 4}, {at(1500), 6, 4}, {at(2500), 5, 2}}
	d.reads = []event{{at(2900), 1, 0}}
	got := d.slices(m)
	if len(got) != 3 {
		t.Fatalf("%d slices, want 3", len(got))
	}
	for i, want := range []struct {
		steal float64
		trips int
		vis   float64
		reads int
	}{{0, 4, 4, 0}, {0.1, 4, 6, 0}, {0, 2, 5, 1}} {
		s := got[i]
		if s.seconds != 1 || math.Abs(s.steal-want.steal) > 1e-12 || s.trips != want.trips ||
			len(s.vis) != 1 || s.vis[0] != want.vis || len(s.rds) != want.reads {
			t.Errorf("slice %d = %+v, want %+v", i, s, want)
		}
	}
	if got, want := m.share(t0, at(3000)), 20.0/600; math.Abs(got-want) > 1e-12 {
		t.Errorf("share over the run = %v, want %v", got, want)
	}
	if got := (&stealMonitor{}).share(t0, at(1000)); got != 0 {
		t.Errorf("share without samples = %v, want 0", got)
	}
}

func TestCleanest(t *testing.T) {
	steal := func(x float64) float64 { return x }
	for _, tc := range []struct {
		in      []float64
		atLeast int
		want    []float64
	}{
		{[]float64{0.2, 0.01, 0.5, 0.0, 0.03}, 0, []float64{0, 0.01, 0.03}},
		{[]float64{0.2, 0.01, 0.5, 0.0, 0.03}, 4, []float64{0, 0.01, 0.03, 0.2}},
		{[]float64{0.2, 0.5}, 3, []float64{0.2, 0.5}},
		{nil, 2, []float64{}},
	} {
		got := cleanest(tc.in, steal, tc.atLeast)
		if len(got) != len(tc.want) {
			t.Errorf("cleanest(%v, %d) = %v, want %v", tc.in, tc.atLeast, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("cleanest(%v, %d) = %v, want %v", tc.in, tc.atLeast, got, tc.want)
				break
			}
		}
	}
}
