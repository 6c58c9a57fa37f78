package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n, want, p int
		ok         bool
	}{
		{n: 1000, want: 990, p: 990, ok: true}, // exactly ten beyond p99
		{n: 999, want: 990, p: 980, ok: true},  // nine beyond p99: fall to p98
		{n: 600, want: 990, p: 980, ok: true},
		{n: 499, want: 990, p: 950, ok: true},
		{n: 300, want: 990, p: 950, ok: true},
		{n: 5000, want: 990, p: 990, ok: true}, // never above the wanted one
		{n: 20, want: 500, p: 500, ok: true},
		{n: 19, want: 500, p: 500, ok: false}, // nine beyond the median
		{n: 0, want: 990, p: 500, ok: false},
	} {
		p, ok := supported(c.n, c.want)
		if p != c.p || ok != c.ok {
			t.Errorf("supported(%d, %d) = %d, %v; want %d, %v", c.n, c.want, p, ok, c.p, c.ok)
		}
	}
}

func TestPercentileValue(t *testing.T) {
	samples := make([]float64, 1000)
	for i := range samples {
		samples[len(samples)-1-i] = float64(i + 1) // 1..1000, unsorted
	}
	if l := percentile(samples, 990); l.value != 990 || l.p != 990 || l.n != 1000 {
		t.Errorf("p99 of 1..1000 = %+v, want 990 at p99", l)
	}
	if l := percentile(samples[:999], 990); l.p != 980 {
		t.Errorf("999 samples reported p%d, want p98", l.p/10)
	}
	if l := percentile(nil, 500); l.value != 0 || l.ok {
		t.Errorf("empty percentile = %+v", l)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "handler", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", Parent: 0, Start: 10 * ms, End: 30 * ms},
		{Name: "b", Parent: 0, Start: 20 * ms, End: 50 * ms},  // overlaps a
		{Name: "c", Parent: 0, Start: 90 * ms, End: 120 * ms}, // runs past the parent
		{Name: "a.1", Parent: 1, Start: 12 * ms, End: 18 * ms},
		{Name: "other", Parent: -1, Start: 0, End: 5 * ms},
	}
	got := selfTimes(spans)
	// handler: 100 - [10,50] - [90,100] = 50; a: 20 - 6 = 14.
	want := []time.Duration{50 * ms, 14 * ms, 30 * ms, 30 * ms, 6 * ms, 5 * ms}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestParseMetrics(t *testing.T) {
	page := "# HELP x y\n# TYPE x counter\nsqpr_a_total 3\nsqpr_h_bucket{le=\"0.1\"} 2\nsqpr_h_sum 0.25\nsqpr_h_count 4\n"
	m, err := parseMetrics([]byte(page))
	if err != nil {
		t.Fatal(err)
	}
	if m["sqpr_a_total"] != 3 || m["sqpr_h_sum"] != 0.25 || m["sqpr_h_count"] != 4 || len(m) != 3 {
		t.Errorf("parsed %v", m)
	}
}

// TestSmoke runs both workloads briefly in both modes and checks that every
// metric BENCHMARK.json names is reported with its unit and that the
// correctness checks pass.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the daemon and plans for about a minute")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		for _, traced := range []bool{false, true} {
			want := bench.EndToEnd
			if traced {
				want = bench.PerLayer
			}
			res, err := measure(w.Name, 1, 3*time.Second, traced, t.TempDir(), io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s has unit %q, want %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}
