// Command mvperf is vstore's benchmark. It opens an in-process
// vstore.DB on the zero-latency fabric, drives one named workload with
// two closed-loop clients for a fixed window, checks every answer, and
// prints each metric by name with its unit, then one JSON result line.
//
//	mvperf --workload read-mix --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// untraced. With --trace 1 it carries the per-layer metrics: counters
// read from DB.Stats, DB.TableStats and runtime.ReadMemStats over an
// untraced window, and span self times from a second, traced window
// of the same workload and seed on a fresh store. metrics.json lists
// every metric with its unit, direction, workloads and layer.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"vstore"
)

//go:embed metrics.json
var catalogJSON []byte

// catalog is metrics.json: every workload and metric the benchmark
// knows. The file also records what each metric measures and the
// layer-to-end-to-end mapping, which the program does not read.
type catalog struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	Metrics []metricDef `json:"metrics"`
}

type metricDef struct {
	Name      string   `json:"name"`
	Unit      string   `json:"unit"`
	Better    string   `json:"better"`
	Kind      string   `json:"kind"` // end_to_end, detail or per_layer
	Workloads []string `json:"workloads"`
}

// reports says whether the workload reports the metric.
func (m metricDef) reports(workload string) bool {
	for _, w := range m.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

func loadCatalog() (catalog, error) {
	var c catalog
	err := json.Unmarshal(catalogJSON, &c)
	return c, err
}

// value is one measured metric. n and beyond qualify a percentile
// over the whole window; n and slices one taken as the median over
// the window's one-second slices.
type value struct {
	v                 float64
	n, beyond, slices int
}

// outcome is everything one invocation measured.
type outcome struct {
	metrics   map[string]value
	attempted int
	failed    int
	errs      []string
}

func (o *outcome) set(name string, v float64) { o.metrics[name] = value{v: v} }

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, 1)) }

// run parses args, measures, and prints. scale divides the workload
// size (tests pass a large one). It returns the process exit code.
func run(args []string, stdout, stderr io.Writer, scale int) int {
	fs := flag.NewFlagSet("mvperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: read-mix, write-view or skew")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an untraced and a traced window")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "mvperf: need --workload read-mix|write-view|skew, --seconds > 0, --trace 0|1\n")
		return 2
	}
	cat, err := loadCatalog()
	if err != nil {
		fmt.Fprintf(stderr, "mvperf: metrics.json: %v\n", err)
		return 1
	}
	sz := w.full
	sz.rows = max(sz.rows/scale, 4)
	sz.warmOps = max(sz.warmOps/scale, 10)
	window := time.Duration(*seconds * float64(time.Second))

	printEnv(stdout, w.name, *seed, *seconds, *traced)
	ctx := context.Background()
	var out *outcome
	if *traced == 1 {
		out, err = measureLayers(ctx, stdout, w, sz, *seed, window)
	} else {
		out, err = measureEndToEnd(ctx, w, sz, *seed, window)
	}
	if err != nil {
		fmt.Fprintf(stderr, "mvperf: %s: %v\n", w.name, err)
		return 1
	}
	kind := "end_to_end"
	if *traced == 1 {
		kind = "per_layer"
	}
	res := resultLine{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]resultValue{}}
	for _, m := range cat.Metrics {
		v, have := out.metrics[m.Name]
		if m.Kind == kind && !have {
			// Every workload measures every result-line metric; a
			// missing one means the run went wrong.
			fmt.Fprintf(stderr, "mvperf: %s: metric %s not measured\n", w.name, m.Name)
			return 1
		}
		if !have || (m.Kind == "detail" && !m.reports(w.name)) {
			continue
		}
		line := fmt.Sprintf("metric %-30s %14.4f %-5s", m.Name, v.v, m.Unit)
		switch {
		case v.slices > 0:
			line += fmt.Sprintf(" n=%d slices=%d", v.n, v.slices)
		case v.n > 0:
			line += fmt.Sprintf(" n=%d beyond=%d", v.n, v.beyond)
		}
		fmt.Fprintln(stdout, line)
		if m.Kind == kind {
			res.Metrics[m.Name] = resultValue{Value: v.v, Unit: m.Unit}
		}
	}
	for _, e := range out.errs {
		fmt.Fprintf(stdout, "failure: %s\n", e)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "mvperf: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// printEnv stamps the output with the code and machine that produced
// it. run.sh passes the commit, a digest of the Go sources and the CPU
// model in the environment.
func printEnv(w io.Writer, workload string, seed int64, seconds float64, traced int) {
	env := map[string]any{
		"commit":     envOr("MVPERF_COMMIT", "unknown"),
		"source":     envOr("MVPERF_SOURCE", "unknown"),
		"go":         runtime.Version(),
		"cpu":        envOr("MVPERF_CPU", runtime.GOARCH),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"clients":    numClients,
		"workload":   workload,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      traced,
	}
	b, _ := json.Marshal(env) // a map of plain values always marshals
	fmt.Fprintf(w, "env %s\n", b)
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// setUp builds a fixture and warms it: each client runs sz.warmOps
// steps, then the views drain, so the window starts from a quiet
// store with warm caches.
func setUp(ctx context.Context, w workload, sz size, seed int64) (*fixture, error) {
	fx, err := w.setup(ctx, seed, sz)
	if err != nil {
		return nil, err
	}
	rec := &recorder{}
	clients := newClients(fx, seed, 0, nil)
	for _, cs := range clients {
		for i := 0; i < sz.warmOps; i++ {
			fx.step(ctx, cs)
		}
		rec.merge(cs.rec)
	}
	if rec.failed > 0 {
		fx.db.Close()
		return nil, fmt.Errorf("warm-up: %d of %d calls failed: %s", rec.failed, rec.attempted, strings.Join(rec.errs, "; "))
	}
	if err := fx.db.QuiesceViews(ctx); err != nil {
		fx.db.Close()
		return nil, fmt.Errorf("warm-up drain: %w", err)
	}
	return fx, nil
}

// newClients makes the closed-loop clients of one phase. Their random
// streams derive from the seed and the phase, so the same seed replays
// the same operations.
func newClients(fx *fixture, seed int64, phase int64, sink *traceSink) []*clientState {
	out := make([]*clientState, numClients)
	for c := range out {
		out[c] = &clientState{
			id:    c,
			phase: phase,
			cl:    fx.db.Client(c),
			rng:   rand.New(rand.NewSource(seed*1000 + phase*10 + int64(c))),
			rec:   &recorder{},
			sink:  sink,
		}
		if sink != nil {
			out[c].opts = []vstore.Option{vstore.WithTracing()}
		}
	}
	return out
}

// drainTimeout bounds the post-window QuiesceViews.
const drainTimeout = 60 * time.Second

// windowResult is one measured window and its drain.
type windowResult struct {
	rec        *recorder
	elapsed    time.Duration
	drain      time.Duration
	pendingMax int
	// stealPct is the share of the machine's CPU time the hypervisor
	// took during the window.
	stealPct float64
	// before is taken after warm-up, after the drain.
	before, after vstore.Stats
	memBefore     runtime.MemStats
	memAfter      runtime.MemStats
}

// measureWindow runs the clients for d, then drains the views and
// runs the workload's checks. Abandoned propagations and failed checks
// count as failed operations.
func measureWindow(ctx context.Context, fx *fixture, seed int64, d time.Duration, sink *traceSink) (*windowResult, error) {
	wr := &windowResult{}
	clients := newClients(fx, seed, 1, sink)
	wr.before = fx.db.Stats()
	runtime.ReadMemStats(&wr.memBefore)

	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			if p := fx.db.Stats().Views.Pending; p > wr.pendingMax {
				wr.pendingMax = p
			}
			select {
			case <-stop:
				return
			case <-wall.After(10 * time.Millisecond):
			}
		}
	}()

	// One slice per whole second of the window, at least one.
	slices := max(int(d/time.Second), 1)
	cpu0 := readCPUStat()
	start := wall.Now()
	deadline := start.Add(d)
	wr.rec = sliced(start, d/time.Duration(slices), slices)
	var wg sync.WaitGroup
	for _, cs := range clients {
		cs.rec = sliced(start, d/time.Duration(slices), slices)
		wg.Add(1)
		go func(cs *clientState) {
			defer wg.Done()
			for wall.Now().Before(deadline) {
				fx.step(ctx, cs)
			}
		}(cs)
	}
	wg.Wait()
	wr.elapsed = since(start)
	wr.stealPct = readCPUStat().stealPctSince(cpu0)
	close(stop)
	sampler.Wait()

	dctx, cancel := context.WithTimeout(ctx, drainTimeout)
	defer cancel()
	ds := wall.Now()
	if err := fx.db.QuiesceViews(dctx); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	wr.drain = since(ds)
	runtime.ReadMemStats(&wr.memAfter)
	wr.after = fx.db.Stats()
	if sink != nil {
		sink.finish()
	}

	for _, cs := range clients {
		wr.rec.merge(cs.rec)
	}
	delta := wr.after.Delta(wr.before)
	for i := int64(0); i < delta.Views.PropagationsDropped; i++ {
		wr.rec.fail("a Put's view propagation was abandoned")
	}
	checked, bad := fx.verify(ctx)
	wr.rec.attempted += checked
	for _, b := range bad {
		wr.rec.fail(b)
	}
	return wr, nil
}

// calls is how many client calls succeeded in the window.
func (wr *windowResult) calls() int {
	n := 0
	for c := opClass(0); c < numClasses; c++ {
		if c != classVisible {
			n += len(wr.rec.lat[c])
		}
	}
	return n
}

// setups is how many times a --trace 0 run sets its store up; setup_s
// is their median and the last one is measured.
const setups = 3

// measureEndToEnd times several set-ups, measures an untraced window
// on the last, and reports the end-to-end metrics.
func measureEndToEnd(ctx context.Context, w workload, sz size, seed int64, d time.Duration) (*outcome, error) {
	var fx *fixture
	var setupS []time.Duration
	for i := 0; i < setups; i++ {
		if fx != nil {
			fx.db.Close()
			fx = nil
			runtime.GC()
		}
		start := wall.Now()
		var err error
		if fx, err = setUp(ctx, w, sz, seed); err != nil {
			return nil, err
		}
		setupS = append(setupS, since(start))
	}
	defer fx.db.Close()
	// The loaded store's footprint. The heap at the end of the run
	// grows with the window's throughput wherever writes add data (the
	// write-view WAL stays in memory), so it is reported but not gated.
	heapSetup := liveHeapMB()
	wr, err := measureWindow(ctx, fx, seed, d, nil)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]value{}, attempted: wr.rec.attempted, failed: wr.rec.failed, errs: wr.rec.errs}
	out.set("heap_mb", heapSetup)
	sortDurations(setupS)
	out.set("setup_s", percentile(setupS, 0.5).US/1e6)
	perSec, p50, p90 := wr.rec.sliceStats()
	out.set("ops_per_s", perSec)
	out.metrics["op_p50_us"] = value{v: p50.US, n: p50.N, slices: len(wr.rec.slices)}
	out.metrics["op_p90_us"] = value{v: p90.US, n: p90.N, slices: len(wr.rec.slices)}
	var all []time.Duration
	for c := opClass(0); c < numClasses; c++ {
		if c != classVisible {
			all = append(all, wr.rec.lat[c]...)
		}
	}
	sortDurations(all)
	if q := percentile(all, 0.99); q.supported() {
		out.metrics["op_p99_us"] = value{v: q.US, n: q.N, beyond: q.Beyond}
	}
	out.set("failed_ratio", ratio(float64(wr.rec.failed), float64(wr.rec.attempted)))
	out.set("drain_ms", float64(wr.drain)/float64(time.Millisecond))
	out.set("host.steal_pct", wr.stealPct)
	if bf := fx.backfill; bf != nil {
		out.set("backfill_rows_per_s", float64(bf.rows)/bf.wall.Seconds())
	}
	for c := opClass(0); c < numClasses; c++ {
		sortDurations(wr.rec.lat[c])
		setPercentiles(out, classMetric[c], wr.rec.lat[c])
	}

	// The samples are dead by now; only the store remains.
	out.set("heap_end_mb", liveHeapMB())
	return out, nil
}

// liveHeapMB is the live heap after a full GC, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// setPercentiles reports the median and, where at least minBeyond
// samples lie beyond it, the 99th percentile of sorted samples.
func setPercentiles(out *outcome, stem string, sorted []time.Duration) {
	if len(sorted) == 0 {
		return
	}
	for _, p := range []struct {
		suffix string
		q      float64
	}{{"_p50_us", 0.5}, {"_p99_us", 0.99}} {
		if q := percentile(sorted, p.q); p.q == 0.5 || q.supported() {
			out.metrics[stem+p.suffix] = value{v: q.US, n: q.N, beyond: q.Beyond}
		}
	}
}

// measureLayers reports the per-layer metrics: counters over an
// untraced window, then span self times over a traced window of the
// same workload and seed on a fresh store.
func measureLayers(ctx context.Context, stdout io.Writer, w workload, sz size, seed int64, d time.Duration) (*outcome, error) {
	out := &outcome{metrics: map[string]value{}}

	fx, err := setUp(ctx, w, sz, seed)
	if err != nil {
		return nil, err
	}
	wr, err := measureWindow(ctx, fx, seed, d, nil)
	if err == nil {
		layerCounters(out, fx, wr)
	}
	fx.db.Close()
	if err != nil {
		return nil, err
	}
	untracedOps := float64(wr.calls()) / wr.elapsed.Seconds()
	out.set("host.steal_pct", wr.stealPct)
	out.attempted, out.failed, out.errs = wr.rec.attempted, wr.rec.failed, wr.rec.errs
	wr = nil
	runtime.GC()

	if fx, err = setUp(ctx, w, sz, seed); err != nil {
		return nil, err
	}
	defer fx.db.Close()
	sink := newTraceSink(fx.db)
	twr, err := measureWindow(ctx, fx, seed, d, sink)
	if err != nil {
		return nil, err
	}
	out.attempted += twr.rec.attempted
	out.failed += twr.rec.failed
	out.errs = append(out.errs, twr.rec.errs...)
	tracedCalls := float64(twr.calls())
	out.set("trace.overhead_ratio", ratio(untracedOps, tracedCalls/twr.elapsed.Seconds()))
	out.set("trace.roots_lost", float64(sink.rootsLost()))
	spanMetrics(out, sink.agg, float64(sink.clientRoots))
	printSpans(stdout, sink.agg)
	return out, nil
}

// layerCounters derives the counter-based per-layer metrics from a
// window's Stats delta, the stores' TableStats and the runtime.
func layerCounters(out *outcome, fx *fixture, wr *windowResult) {
	d := wr.after.Delta(wr.before)
	calls := float64(wr.calls())
	puts := float64(len(wr.rec.lat[classPut]))
	rounds := float64(d.Reads.Gets + d.Writes.Puts + d.Reads.MultiGets)
	readRounds := float64(d.Reads.Gets + d.Reads.MultiGets)

	out.set("coord.rounds_per_op", ratio(rounds, calls))
	out.set("coord.digest_mismatch_ratio", ratio(float64(d.Reads.DigestMismatches), float64(d.Reads.DigestReads)))
	out.set("coord.multiget_rows_per_round", ratio(float64(d.Reads.MultiGetRows), float64(d.Reads.MultiGets)))
	out.set("coord.quorum_fails", float64(d.Writes.QuorumFails))
	out.set("coord.read_repairs", float64(d.Reads.ReadRepairs))

	var flushes, compactions, segments int
	for _, t := range fx.db.Tables() {
		for _, ts := range fx.db.TableStats(t) {
			flushes += ts.Flushes
			compactions += ts.Compactions
			segments += ts.Segments
		}
	}
	out.set("lsm.pruned_per_read", ratio(float64(d.Storage.RunsPruned), readRounds))
	out.set("lsm.flushes", float64(flushes))
	out.set("lsm.compactions", float64(compactions))
	out.set("lsm.segments_end", float64(segments))

	wa, ws := d.Storage.WALAppend, d.Storage.WALSync
	out.set("wal.appends_per_put", ratio(float64(wa.Count), puts))
	out.set("wal.append_mean_us", wa.Mean())
	out.set("wal.syncs_per_append", ratio(float64(ws.Count), float64(wa.Count)))
	out.set("wal.sync_mean_us", ws.Mean())

	v := d.Views
	out.set("core.attempts_per_prop", ratio(float64(v.Propagations+v.PropagationFailures), float64(v.Propagations)))
	out.set("core.abandoned", float64(v.PropagationsDropped))
	out.set("core.noops", float64(v.NoOps))
	out.set("core.chain_hops_per_lookup", ratio(float64(v.ChainHops), float64(v.LiveKeyLookups)))
	// Each lookup reads its start row, then one row per hop.
	out.set("core.hops_saved_ratio", ratio(float64(v.ChainHopsSaved), float64(v.LiveKeyLookups+v.ChainHops)))
	out.set("core.read_spins_per_view_read", ratio(float64(v.ReadSpins), float64(v.Reads)))
	out.set("core.pending_max", float64(wr.pendingMax))
	out.set("core.lag_mean_us", v.PropagationLag.Mean())
	out.set("session.wait_mean_us", v.SessionWait.Mean())
	attemptsPerRow := 0.0
	if bf := fx.backfill; bf != nil {
		attemptsPerRow = ratio(float64(bf.attempts), float64(bf.rows))
	}
	out.set("backfill.attempts_per_row", attemptsPerRow)

	mb, ma := wr.memBefore, wr.memAfter
	out.set("runtime.allocs_per_op", ratio(float64(ma.Mallocs-mb.Mallocs), calls))
	out.set("runtime.bytes_per_op", ratio(float64(ma.TotalAlloc-mb.TotalAlloc), calls))
	out.set("runtime.gc_cycles", float64(ma.NumGC-mb.NumGC))
	out.set("runtime.gc_pause_ms", float64(ma.PauseTotalNs-mb.PauseTotalNs)/1e6)
}

// spanMetrics derives the traced per-layer metrics. Span durations are
// whole microseconds (truncated), so a span's self time is biased up
// by less than 1 µs per child and its total down by less than 1 µs.
func spanMetrics(out *outcome, agg *spanAgg, roots float64) {
	for metric, span := range map[string]string{
		"coord.get.self_us":       "coord.get",
		"coord.put.self_us":       "coord.put",
		"coord.preread.self_us":   "coord.preread",
		"node.get.self_us":        "node.get",
		"node.put.self_us":        "node.put",
		"node.digest.self_us":     "node.digest",
		"node.multiget.self_us":   "node.multiget",
		"core.propagate.self_us":  "propagate",
		"core.chain_walk.self_us": "chain.walk",
		"secindex.query.self_us":  "client.queryindex",
	} {
		out.set(metric, agg.selfMeanUS(span))
	}
	var nodeSpans int64
	for _, n := range agg.names() {
		if strings.HasPrefix(n, "node.") {
			nodeSpans += agg.count(n)
		}
	}
	out.set("node.spans_per_op", ratio(float64(nodeSpans), roots))
	out.set("lsm.runs_per_read", ratio(float64(agg.lsmRuns), float64(agg.lsmReads)))
}

// printSpans lists every span name of the traced run with its count,
// total and self time.
func printSpans(w io.Writer, agg *spanAgg) {
	for _, n := range agg.names() {
		t := agg.byName[n]
		fmt.Fprintf(w, "span %-20s count=%d total_us=%d self_us=%.0f self_mean_us=%.3f\n",
			n, t.count, t.totalUS, float64(t.selfNS)/1e3, agg.selfMeanUS(n))
	}
}
