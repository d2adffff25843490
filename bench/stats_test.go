package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	one := []float64{7}
	five := []float64{1, 2, 3, 4, 5}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{one, 0.99, 7},
		{five, 0, 1},
		{five, 0.5, 3},
		{five, 0.25, 2},
		{five, 0.9, 4.6},
		{five, 1, 5},
		{hundred, 0.5, 50.5},
		{hundred, 0.99, 99.01},
	} {
		if got := percentile(tc.xs, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.xs, tc.q, got, tc.want)
		}
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

func TestBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want int
	}{
		{0, 0.99, 0},
		{1000, 0.99, 10},
		{999, 0.99, 10},
		{100, 0.99, 1},
		{100, 0.5, 50},
	} {
		if got := beyond(tc.n, tc.q); got != tc.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", tc.n, tc.q, got, tc.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(a, b int) interval {
		return interval{t0.Add(time.Duration(a) * time.Millisecond), t0.Add(time.Duration(b) * time.Millisecond)}
	}
	parent := at(0, 100)
	for _, tc := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"leaf", nil, 100 * time.Millisecond},
		{"disjoint", []interval{at(10, 20), at(30, 50)}, 70 * time.Millisecond},
		{"overlapping workers count once", []interval{at(10, 40), at(20, 60), at(55, 70)}, 40 * time.Millisecond},
		{"nested", []interval{at(10, 60), at(20, 30)}, 50 * time.Millisecond},
		{"clipped to parent", []interval{at(-20, 10), at(90, 130)}, 80 * time.Millisecond},
		{"outside parent", []interval{at(100, 120), at(-5, 0)}, 100 * time.Millisecond},
		{"touching", []interval{at(10, 20), at(20, 30)}, 80 * time.Millisecond},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %v, want %v", tc.name, got, tc.want)
		}
	}
}
