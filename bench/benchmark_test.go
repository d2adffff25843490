package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics pins BENCHMARK.json to the metrics
// the benchmark reports: same names, units and order, and the bounds
// the result contract allows.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i] || w.Why == "" {
			t.Errorf("workload %d: %q (why %q), want %q with a why", i, w.Name, w.Why, workloads[i])
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d reported", len(b.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, reported %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Bound > maxBound {
			maxBound = m.Bound
		}
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && (m.Bound != maxBound || m.Better != "lower" || m.Unit != "s") {
			t.Errorf("setup_s must be in s, lower-better, with the largest bound")
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d reported", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, reported %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
}

func TestLateFrac(t *testing.T) {
	for _, tc := range []struct {
		windows [][]int32
		want    float64
	}{
		{nil, 0},
		{[][]int32{{1, 2}, {3}}, 0},
		{[][]int32{{5, 6}, {1, 2}}, 0.5},
		{[][]int32{{3}, {3, 2}, {4, 1}}, 0.4},
	} {
		if got := lateFrac(tc.windows); got != tc.want {
			t.Errorf("lateFrac(%v) = %v, want %v", tc.windows, got, tc.want)
		}
	}
}
