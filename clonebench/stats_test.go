package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"

	"nephele/internal/obs"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{ten, 0.5, 5},
		{ten, 0.9, 9},
		{ten, 1, 10},
		{ten, 0.01, 1},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 3, 2, 1}, 0.5, 2},
		{[]float64{7}, 0.9, 7},
		{nil, 0.5, 0},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	// p*n with float error above an exact rank must not move the rank up.
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := percentile(hundred, 0.55); got != 55 {
		t.Errorf("percentile(1..100, 0.55) = %v, want 55", got)
	}
	if ten[0] != 10 || ten[9] != 5 {
		t.Errorf("percentile reordered its input: %v", ten)
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	// op [0,100) has three children: a [10,40) and b [30,60) overlap each
	// other, c [90,120) runs past op's end; b has a child d [35,45).
	recs := []obs.SpanRecord{
		{ID: 1, Name: "op", WallNS: 100},
		{ID: 2, Parent: 1, Name: "a", WallNS: 30},
		{ID: 3, Parent: 1, Name: "b", WallNS: 30},
		{ID: 4, Parent: 3, Name: "d", WallNS: 10},
		{ID: 5, Parent: 1, Name: "c", WallNS: 30},
	}
	starts := []int64{0, 10, 30, 35, 90}
	got := selfTimes(recs, starts)
	// op: children cover [10,60) and [90,100), 60 of its 100.
	want := []int64{40, 30, 20, 10, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", recs[i].Name, got[i], want[i])
		}
	}
}

func TestSelfTimesOfSequentialTreeAddUp(t *testing.T) {
	recs := []obs.SpanRecord{
		{ID: 1, Name: "op", WallNS: 50},
		{ID: 2, Parent: 1, Name: "a", WallNS: 20},
		{ID: 3, Parent: 2, Name: "b", WallNS: 5},
		{ID: 4, Parent: 1, Name: "c", WallNS: 10},
	}
	starts := []int64{100, 105, 110, 130}
	var sum int64
	for _, s := range selfTimes(recs, starts) {
		sum += s
	}
	if sum != recs[0].WallNS {
		t.Errorf("self times add up to %d, want the root's %d", sum, recs[0].WallNS)
	}
}

// TestLayersTraceSpans checks that a traced operation records its spans
// in the program's own trace format with a wall start for each.
func TestLayersTraceSpans(t *testing.T) {
	l := newLayers(traced)
	l.begin(nil)
	l.call("hv.clone", func() { time.Sleep(time.Millisecond) })
	l.check(func() {})
	l.end()
	spans := l.trace.Spans()
	if len(spans) != 3 || len(l.startNS) != 3 {
		t.Fatalf("got %d spans and %d starts, want 3 each", len(spans), len(l.startNS))
	}
	names := []string{opSpan, "hv.clone", checkSpan}
	for i, s := range spans {
		if s.Name != names[i] {
			t.Errorf("span %d is %q, want %q", i, s.Name, names[i])
		}
		if i > 0 && s.Parent != 1 {
			t.Errorf("span %q has parent %d, want the operation", s.Name, s.Parent)
		}
	}
	if self := selfTimes(spans, l.startNS); self[1] < int64(time.Millisecond) {
		t.Errorf("hv.clone self time %d ns, want at least the 1 ms it slept", self[1])
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMetricNames checks the names the benchmark prints against the
// naming rule and against BENCHMARK.json, which must list exactly the
// metrics each mode prints.
func TestMetricNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for i, w := range spec.Workloads {
		if i >= len(workloads) || workloads[i].name != w.Name {
			t.Errorf("BENCHMARK.json workload %d is %q, not the benchmark's", i, w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	w := workloads[0]
	for _, c := range []struct {
		trace  bool
		listed []struct{ Name string }
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		var res *result
		if c.trace {
			res, err = runTraced(w, 1, time.Millisecond, "")
		} else {
			res, err = runEndToEnd(w, 1, time.Millisecond)
		}
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 {
			t.Errorf("trace=%v: %d operations failed: %v", c.trace, res.failed, res.errs)
		}
		printed := map[string]bool{}
		for _, m := range res.metrics {
			if !metricName.MatchString(m.name) {
				t.Errorf("metric name %q breaks the naming rule", m.name)
			}
			if printed[m.name] {
				t.Errorf("metric %q printed twice", m.name)
			}
			printed[m.name] = true
		}
		for _, m := range c.listed {
			if !printed[m.Name] {
				t.Errorf("trace=%v: BENCHMARK.json lists %q, which is not printed", c.trace, m.Name)
			}
			delete(printed, m.Name)
		}
		for n := range printed {
			t.Errorf("trace=%v: printed metric %q is not in BENCHMARK.json", c.trace, n)
		}
	}
}
