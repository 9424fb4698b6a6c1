package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"vstore/internal/trace"
)

// opClass names a kind of timed client call.
type opClass int

const (
	classGet opClass = iota
	classViewRead
	classIndexRead
	classPut
	// classVisible is not a call: it is the time from a sampled Put's
	// acknowledgement until a session GetView of its new key returns the
	// row (Definition 4 visibility).
	classVisible
	numClasses
)

// classMetric is the metric-name stem of each class.
var classMetric = [numClasses]string{"get", "view_read", "index_read", "put", "view_visible"}

// recorder collects one client's per-operation samples and outcomes.
// Each client goroutine owns one; they are merged after the window.
type recorder struct {
	lat       [numClasses][]time.Duration
	attempted int
	failed    int
	errs      []string
	// slices[k] holds the latencies of the calls that completed in the
	// k-th sliceLen of the window that began at start; calls completing
	// after the last slice are left out of them. Nil outside a window.
	start    time.Time
	sliceLen time.Duration
	slices   [][]time.Duration
}

// sliced returns a recorder that also sorts calls into n slices of
// length l from start.
func sliced(start time.Time, l time.Duration, n int) *recorder {
	return &recorder{start: start, sliceLen: l, slices: make([][]time.Duration, n)}
}

// observe records one call's latency and outcome.
func (r *recorder) observe(c opClass, d time.Duration, err error) {
	r.attempted++
	if err != nil {
		r.fail(err.Error())
		return
	}
	r.lat[c] = append(r.lat[c], d)
	if r.slices != nil {
		if k := int(since(r.start) / r.sliceLen); k < len(r.slices) {
			r.slices[k] = append(r.slices[k], d)
		}
	}
}

// fail counts a failed operation, keeping the first few reasons.
func (r *recorder) fail(reason string) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, reason)
	}
}

// merge folds o into r.
func (r *recorder) merge(o *recorder) {
	for c := range r.lat {
		r.lat[c] = append(r.lat[c], o.lat[c]...)
	}
	if r.slices == nil && o.slices != nil {
		r.slices = make([][]time.Duration, len(o.slices))
		r.sliceLen = o.sliceLen
	}
	for k := range o.slices {
		r.slices[k] = append(r.slices[k], o.slices[k]...)
	}
	r.attempted += o.attempted
	r.failed += o.failed
	for _, e := range o.errs {
		if len(r.errs) < 5 {
			r.errs = append(r.errs, e)
		}
	}
}

// quantile is an exact nearest-rank percentile of raw samples.
type quantile struct {
	// US is the sample at rank ceil(q·n), in microseconds.
	US float64
	// N is the number of samples; Beyond how many lie above the rank.
	N, Beyond int
}

// minBeyond is how many samples must lie above a percentile before it
// is reported.
const minBeyond = 10

// supported reports whether enough samples lie beyond the percentile.
func (q quantile) supported() bool { return q.N > 0 && q.Beyond >= minBeyond }

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of
// sorted.
func percentile(sorted []time.Duration, q float64) quantile {
	n := len(sorted)
	if n == 0 {
		return quantile{}
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return quantile{US: float64(sorted[rank-1]) / float64(time.Microsecond), N: n, Beyond: n - rank}
}

// sliceStats summarises the window slice by slice: the median over
// slices of the calls completed per second, and of each slice's p50
// and p90. Medians over slices keep a burst of GC or a noisy neighbour
// in one slice from moving the run's figures.
func (r *recorder) sliceStats() (perSec float64, p50, p90 quantile) {
	var rates, p50s, p90s []float64
	n := 0
	for _, s := range r.slices {
		n += len(s)
		rates = append(rates, float64(len(s))/r.sliceLen.Seconds())
		if len(s) == 0 {
			continue
		}
		sortDurations(s)
		p50s = append(p50s, percentile(s, 0.5).US)
		p90s = append(p90s, percentile(s, 0.9).US)
	}
	return median(rates), quantile{US: median(p50s), N: n}, quantile{US: median(p90s), N: n}
}

// median of values (the mean of the middle two for an even count),
// zero when empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// sortDurations sorts samples ascending in place.
func sortDurations(s []time.Duration) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

// interval is a half-open time range in nanoseconds.
type interval struct{ lo, hi int64 }

// unionWithin returns how much of [lo, hi) the union of ivs covers.
// ivs is reordered.
func unionWithin(lo, hi int64, ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv.lo, cur), min(iv.hi, hi)
		if b > a {
			covered += b - a
			cur = b
		}
	}
	return covered
}

// selfNS is a span's duration minus the part of it its children cover.
// Children may outlive their parent (a coordinator returns once a
// quorum answered, before the last replica's handler finishes); only
// the overlap with the parent counts.
func selfNS(s trace.SpanData) int64 {
	lo := s.Start.UnixNano()
	dur := s.DurationUS * int64(time.Microsecond)
	ivs := make([]interval, 0, len(s.Children))
	for _, c := range s.Children {
		clo := c.Start.UnixNano()
		ivs = append(ivs, interval{clo, clo + c.DurationUS*int64(time.Microsecond)})
	}
	return dur - unionWithin(lo, lo+dur, ivs)
}

// spanTotals accumulates one span name's count, total and self time.
type spanTotals struct {
	count           int64
	totalUS, selfNS int64
}

// spanAgg aggregates collected span trees by span name.
type spanAgg struct {
	byName map[string]*spanTotals
	// lsmRuns sums the lsm_runs attribute of replica read spans;
	// lsmReads counts the spans that carried it.
	lsmRuns, lsmReads int64
}

func newSpanAgg() *spanAgg { return &spanAgg{byName: map[string]*spanTotals{}} }

// add folds one span tree into the aggregate.
func (a *spanAgg) add(s trace.SpanData) {
	t := a.byName[s.Op]
	if t == nil {
		t = &spanTotals{}
		a.byName[s.Op] = t
	}
	t.count++
	t.totalUS += s.DurationUS
	t.selfNS += selfNS(s)
	if v, ok := s.Attrs["lsm_runs"]; ok {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			a.lsmRuns += n
			a.lsmReads++
		}
	}
	for _, c := range s.Children {
		a.add(c)
	}
}

// selfMeanUS is the mean self time of one span of the name, in µs.
func (a *spanAgg) selfMeanUS(name string) float64 {
	t := a.byName[name]
	if t == nil || t.count == 0 {
		return 0
	}
	return float64(t.selfNS) / float64(t.count) / float64(time.Microsecond)
}

// count returns how many spans of the name were aggregated.
func (a *spanAgg) count(name string) int64 {
	if t := a.byName[name]; t != nil {
		return t.count
	}
	return 0
}

// names lists the aggregated span names, sorted.
func (a *spanAgg) names() []string {
	out := make([]string, 0, len(a.byName))
	for n := range a.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ratio is num/den, zero when den is zero.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cpuStat is the machine-wide CPU time counters of /proc/stat, in
// clock ticks; both zero where the file is missing.
type cpuStat struct{ total, steal int64 }

// readCPUStat reads the aggregate "cpu" line. On a virtual machine the
// steal column is time a runnable vCPU waited for the hypervisor,
// which slows every timing the window takes.
func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat") //lint:ignore physcheck host CPU counters for the benchmark's noise report, not store data
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}
	}
	var st cpuStat
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i := 1; i <= 8; i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		st.total += v
		if i == 8 {
			st.steal = v
		}
	}
	return st
}

// stealPctSince is the percentage of CPU time stolen since prev.
func (s cpuStat) stealPctSince(prev cpuStat) float64 {
	return 100 * ratio(float64(s.steal-prev.steal), float64(s.total-prev.total))
}
