package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// A run is measured in one-second slices. A slice during which the
// hypervisor stole more than stealLimit of the machine's CPU time
// measured the neighbouring tenants as much as busprobe: on a shared
// two-vCPU host such bursts last tens of seconds and slow every layer
// by up to half. The end-to-end metrics are medians over the clean
// slices, and over the minCleanSlices least-stolen ones when fewer are
// clean. Set-up boots are chosen the same way, at least minCleanBoots.
const (
	sliceWidth     = time.Second
	stealLimit     = 0.03
	minCleanSlices = 10
	minCleanBoots  = 5
)

// cleanest returns the items measured with at most stealLimit of the
// CPU time stolen or, when fewer than atLeast are, the atLeast least
// stolen.
func cleanest[T any](items []T, steal func(T) float64, atLeast int) []T {
	sorted := append([]T(nil), items...)
	sort.SliceStable(sorted, func(i, j int) bool { return steal(sorted[i]) < steal(sorted[j]) })
	n := 0
	for n < len(sorted) && steal(sorted[n]) <= stealLimit {
		n++
	}
	if n < atLeast {
		n = atLeast
	}
	if n > len(sorted) {
		n = len(sorted)
	}
	return sorted[:n]
}

// stealSample is one reading of the machine-wide CPU counters.
type stealSample struct {
	at           time.Time
	total, steal int64
}

// stealMonitor samples /proc/stat every 50 ms until closed.
type stealMonitor struct {
	mu      sync.Mutex
	samples []stealSample //lint:guardedby mu
	stop    chan struct{}
	done    chan struct{}
}

func startStealMonitor() *stealMonitor {
	m := &stealMonitor{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			if total, steal, err := cpuTicks(); err == nil {
				m.mu.Lock()
				m.samples = append(m.samples, stealSample{wallNow(), total, steal})
				m.mu.Unlock()
			}
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

func (m *stealMonitor) close() {
	close(m.stop)
	<-m.done
}

// share is the stolen fraction of CPU time between the last sample at
// or before from and the first at or after to; 0 without samples.
func (m *stealMonitor) share(from, to time.Time) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.samples
	if len(s) < 2 {
		return 0
	}
	i := sort.Search(len(s), func(i int) bool { return s[i].at.After(from) }) - 1
	if i < 0 {
		i = 0
	}
	j := sort.Search(len(s), func(j int) bool { return !s[j].at.Before(to) })
	if j >= len(s) {
		j = len(s) - 1
	}
	if j <= i {
		return 0
	}
	return perTrip(float64(s[j].steal-s[i].steal), int(s[j].total-s[i].total))
}

// cpuTicks reads the machine-wide CPU time counters from /proc/stat:
// all ticks, and the ticks the hypervisor stole from this machine's
// virtual CPUs.
func cpuTicks() (total, steal int64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}

// slice is one equal share of a drive's span and what completed in it.
type slice struct {
	seconds  float64
	steal    float64
	trips    int
	vis, rds []float64
}

// slices splits a drive's span into about-one-second slices of equal
// width and files every completed request under the slice it ended in.
func (d *drive) slices(m *stealMonitor) []slice {
	span := d.end.Sub(d.start)
	n := int((span + sliceWidth/2) / sliceWidth)
	if n < 1 {
		n = 1
	}
	width := span / time.Duration(n)
	out := make([]slice, n)
	for i := range out {
		from := d.start.Add(time.Duration(i) * width)
		out[i].seconds = width.Seconds()
		out[i].steal = m.share(from, from.Add(width))
	}
	index := func(at time.Time) int {
		i := int(at.Sub(d.start) / width)
		if i < 0 {
			return 0
		}
		if i >= n {
			return n - 1
		}
		return i
	}
	for _, e := range d.uploads {
		s := &out[index(e.at)]
		s.trips += e.trips
		s.vis = append(s.vis, e.ms)
	}
	for _, e := range d.reads {
		s := &out[index(e.at)]
		s.rds = append(s.rds, e.ms)
	}
	return out
}
