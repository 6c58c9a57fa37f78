package main

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples a percentile needs above it to be
// reported.
const minBeyond = 10

// percentileLadder lists the percentiles a tail falls back through, in
// tenths of a percent.
var percentileLadder = []int{999, 990, 980, 950, 900, 750, 500}

// rank is the nearest-rank position (1-based) of permille p among n
// samples.
func rank(n, p int) int { return (p*n + 999) / 1000 }

// supported returns the highest percentile (in tenths of a percent) at or
// below want that leaves at least minBeyond of n samples above it; ok is
// false when even the median does not.
func supported(n, want int) (p int, ok bool) {
	for _, p := range percentileLadder {
		if p <= want && n-rank(n, p) >= minBeyond {
			return p, true
		}
	}
	return 500, false
}

// quantile is the permille-p nearest-rank value of sorted samples (0 when
// there are none).
func quantile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(rank(len(sorted), p), 1)-1]
}

// latency is one reported percentile: its value, the percentile actually
// used and the sample count behind it.
type latency struct {
	value float64
	p, n  int
	ok    bool
}

// percentile applies the reporting rule: the wanted percentile if at
// least minBeyond samples lie beyond it, otherwise the next lower one that
// has them.
func percentile(samples []float64, want int) latency {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	p, ok := supported(len(s), want)
	return latency{value: quantile(s, p), p: p, n: len(s), ok: ok}
}

func (l latency) String() string {
	s := fmt.Sprintf("p%g of %d samples", float64(l.p)/10, l.n)
	if !l.ok {
		s += fmt.Sprintf(", fewer than %d beyond it", minBeyond)
	}
	return s
}

// parseMetrics reads the unlabeled samples of a Prometheus text page, plus
// the histogram's _sum and _count.
func parseMetrics(page []byte) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(page))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("metrics line %q", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// runtimeSample is the process-level counters read around a timed window.
type runtimeSample struct {
	cpu             time.Duration // user + system CPU of the process
	allocBytes      uint64
	gcCPU, totalCPU float64
}

var runtimeKeys = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() (runtimeSample, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return runtimeSample{}, fmt.Errorf("getrusage: %w", err)
	}
	ms := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		ms[i].Name = k
	}
	metrics.Read(ms)
	return runtimeSample{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: ms[0].Value.Uint64(),
		gcCPU:      ms[1].Value.Float64(),
		totalCPU:   ms[2].Value.Float64(),
	}, nil
}

// liveHeapBytes is the heap the last GC cycle marked live: unlike the heap
// in use, it does not depend on when the collector happened to run.
func liveHeapBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 500)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
