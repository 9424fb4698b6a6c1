package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"vstore/internal/trace"
)

func us(n int) time.Duration { return time.Duration(n) * time.Microsecond }

func TestPercentileNearestRank(t *testing.T) {
	var s []time.Duration
	for i := 1; i <= 2000; i++ {
		s = append(s, us(i))
	}
	for _, tc := range []struct {
		q          float64
		wantUS     float64
		wantBeyond int
	}{
		{0.5, 1000, 1000},
		{0.99, 1980, 20},
		{1, 2000, 0},
		{0.0001, 1, 1999},
	} {
		got := percentile(s, tc.q)
		if got.US != tc.wantUS || got.N != 2000 || got.Beyond != tc.wantBeyond {
			t.Errorf("percentile(%v) = %+v, want %v µs with %d beyond", tc.q, got, tc.wantUS, tc.wantBeyond)
		}
	}
	if q := percentile([]time.Duration{us(7)}, 0.5); q.US != 7 || q.N != 1 {
		t.Errorf("single sample: %+v", q)
	}
	if q := percentile(nil, 0.5); q.N != 0 {
		t.Errorf("no samples: %+v", q)
	}
}

func TestP99NeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want bool
	}{{999, false}, {1000, true}, {5000, true}, {100, false}} {
		s := make([]time.Duration, tc.n)
		if got := percentile(s, 0.99).supported(); got != tc.want {
			t.Errorf("n=%d: p99 supported = %v, want %v", tc.n, got, tc.want)
		}
	}
	out := &outcome{metrics: map[string]value{}}
	setPercentiles(out, "put", make([]time.Duration, 500))
	if _, ok := out.metrics["put_p99_us"]; ok {
		t.Error("p99 of 500 samples was reported")
	}
	if v, ok := out.metrics["put_p50_us"]; !ok || v.n != 500 {
		t.Errorf("p50 = %+v, %v; want it with n=500", v, ok)
	}
}

func TestUnionWithin(t *testing.T) {
	for _, tc := range []struct {
		name string
		ivs  []interval
		want int64
	}{
		{"none", nil, 0},
		{"disjoint", []interval{{10, 20}, {30, 40}}, 20},
		{"overlapping", []interval{{10, 30}, {20, 40}}, 30},
		{"nested", []interval{{10, 90}, {20, 30}, {40, 50}}, 80},
		{"unsorted", []interval{{60, 70}, {10, 20}, {15, 25}}, 25},
		{"clipped at both ends", []interval{{-10, 5}, {95, 200}}, 10},
		{"outside", []interval{{200, 300}, {-50, -1}}, 0},
	} {
		if got := unionWithin(0, 100, tc.ivs); got != tc.want {
			t.Errorf("%s: got %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(offUS int) time.Time { return t0.Add(us(offUS)) }
	// A coordinator span of 100 µs whose three replica spans overlap;
	// the third outlives the coordinator (it answered after the
	// quorum).
	root := trace.SpanData{
		TraceID: 1, Op: "client.get", Start: at(0), DurationUS: 120,
		Children: []trace.SpanData{{
			Op: "coord.get", Start: at(10), DurationUS: 100,
			Children: []trace.SpanData{
				{Op: "node.get", Start: at(20), DurationUS: 30, Attrs: map[string]string{"lsm_runs": "3"}},
				{Op: "node.digest", Start: at(40), DurationUS: 30, Attrs: map[string]string{"lsm_runs": "5"}},
				{Op: "node.digest", Start: at(100), DurationUS: 50},
			},
		}},
	}
	if got := selfNS(root.Children[0]); got != int64(us(100-50-10)) {
		t.Errorf("coord.get self = %v, want 40µs", time.Duration(got))
	}
	agg := newSpanAgg()
	agg.add(root)
	for name, want := range map[string]float64{
		"client.get":  20,
		"coord.get":   40,
		"node.get":    30,
		"node.digest": 40,
	} {
		if got := agg.selfMeanUS(name); got != want {
			t.Errorf("%s mean self = %v µs, want %v", name, got, want)
		}
	}
	if agg.count("node.digest") != 2 || agg.lsmReads != 2 || agg.lsmRuns != 8 {
		t.Errorf("counts: digest=%d lsmReads=%d lsmRuns=%d", agg.count("node.digest"), agg.lsmReads, agg.lsmRuns)
	}
	if agg.byName["coord.get"].totalUS != 100 {
		t.Errorf("coord.get total = %d", agg.byName["coord.get"].totalUS)
	}
}

// runOutput runs one short, scaled-down invocation and returns its
// metric lines by name and the parsed result line.
func runOutput(t *testing.T, args ...string) (map[string][]string, resultLine) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr, 100); code != 0 {
		t.Fatalf("run %v: exit %d: %s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
	}
	metrics := map[string][]string{}
	for _, l := range lines {
		if f := strings.Fields(l); len(f) >= 4 && f[0] == "metric" {
			metrics[f[1]] = f[2:]
		}
		if strings.HasPrefix(l, "failure: ") {
			t.Error(l)
		}
	}
	if !strings.HasPrefix(lines[0], "env {") {
		t.Errorf("first line is not the environment stamp: %q", lines[0])
	}
	return metrics, res
}

// TestWorkloadsEmitEveryMetric runs each workload briefly, untraced and
// traced, and checks that every metric the catalog names for it is
// printed with its unit, that the result line carries exactly the
// end-to-end or per-layer set, and that every output check passed.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+traced, func(t *testing.T) {
				metrics, res := runOutput(t, "--workload", w.name, "--seed", "7", "--seconds", "0.5", "--trace", traced)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("result: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				kind := map[string]string{"0": "end_to_end", "1": "per_layer"}[traced]
				want := 0
				for _, m := range cat.Metrics {
					if m.Kind == kind {
						want++
						got, ok := res.Metrics[m.Name]
						if !ok || got.Unit != m.Unit {
							t.Errorf("result line: %s = %+v, want unit %s", m.Name, got, m.Unit)
						}
					}
					if m.Kind == "per_layer" && traced == "0" || m.Kind != "per_layer" && traced == "1" || !m.reports(w.name) {
						continue
					}
					f, ok := metrics[m.Name]
					if !ok && strings.HasSuffix(m.Name, "_p99_us") {
						// A p99 is printed only with ten samples beyond.
						p50 := metrics[strings.TrimSuffix(m.Name, "_p99_us")+"_p50_us"]
						if len(p50) < 3 || !strings.HasPrefix(p50[2], "n=") {
							t.Errorf("%s: no p50 sample count either", m.Name)
						} else if n, _ := strconv.Atoi(strings.TrimPrefix(p50[2], "n=")); n >= 1000 {
							t.Errorf("%s missing with %d samples", m.Name, n)
						}
						continue
					}
					if !ok || f[1] != m.Unit {
						t.Errorf("metric %s printed as %v, want unit %s", m.Name, f, m.Unit)
					}
					if strings.Contains(m.Name, "_p") && strings.HasSuffix(m.Name, "_us") {
						if len(f) < 3 || !strings.HasPrefix(f[2], "n=") {
							t.Errorf("percentile %s printed without its sample count: %v", m.Name, f)
						}
					}
				}
				if len(res.Metrics) != want {
					t.Errorf("result line has %d metrics, want the %d %s ones", len(res.Metrics), want, kind)
				}
				// Propagate roots finishing in a burst can push a few
				// roots out of the ring between two collections.
				if lost := res.Metrics["trace.roots_lost"].Value; traced == "1" && lost > float64(res.Attempted)/100 {
					t.Errorf("traced run lost %v roots of %d calls", lost, res.Attempted)
				}
			})
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "skew", "--trace", "2"},
		{"--workload", "skew", "--seconds", "0"},
		{"--bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr, 100); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps metrics.json and the
// repository's BENCHMARK.json in step: the same workloads, and the same
// end-to-end and per-layer metrics with the same units and directions.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if errors.Is(err, fs.ErrNotExist) {
		t.Skip("no BENCHMARK.json next to the benchmark")
	}
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	var catNames, runNames []string
	for _, w := range cat.Workloads {
		catNames = append(catNames, w.Name)
	}
	for _, w := range workloads {
		runNames = append(runNames, w.name)
	}
	if strings.Join(names, ",") != strings.Join(catNames, ",") || strings.Join(names, ",") != strings.Join(runNames, ",") {
		t.Errorf("workloads: BENCHMARK.json %v, metrics.json %v, program %v", names, catNames, runNames)
	}
	for kind, list := range map[string][]struct{ Name, Unit, Better string }{"end_to_end": bench.EndToEnd, "per_layer": bench.PerLayer} {
		var want []string
		for _, m := range cat.Metrics {
			if m.Kind == kind {
				want = append(want, m.Name+" "+m.Unit+" "+m.Better)
			}
		}
		var got []string
		for _, m := range list {
			got = append(got, m.Name+" "+m.Unit+" "+m.Better)
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s differs:\nBENCHMARK.json:\n%s\nmetrics.json:\n%s", kind, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}
