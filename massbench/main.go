// Command massbench is the repository benchmark. It drives massf from
// outside, through the public functions of each module, over four
// workloads (see NOTE.md beside this file and BENCHMARK.json at the
// repository root):
//
//	fig6-packet    the paper's Section 4 testbed, packet level, HPROF, k=2
//	fig10-hybrid   the Section 5 multi-AS testbed, fluid background, HTOP, k=2
//	online-ingest  the massfd service stack in one process, live ingest
//	dist-loopback  a distributed run: coordinator + two loopback workers
//
// Usage, from the repository root:
//
//	bash massbench/run.sh --workload fig6-packet --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the last line of standard output is one JSON object
// holding every end-to-end metric; with --trace 1 it holds every per-layer
// metric instead, taken from a separate traced run that records spans,
// attaches telemetry and takes a CPU profile. Every run also checks the
// program's outputs and writes its provenance and per-run samples under
// .bench_build/out.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"massf/internal/memstat"
)

// metricDef is one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"events_per_s", "1/s"},
	{"sim_per_wall", "s/s"},
	{"modeled_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_ratio", "ratio"},
	{"first_window_ms_p50", "ms"},
	{"first_window_ms_p90", "ms"},
	{"excess_ms_p50.light", "ms"},
	{"excess_ms_p99.light", "ms"},
	{"excess_ms_p50.heavy", "ms"},
	{"excess_ms_p99.heavy", "ms"},
}

// perLayer are the traced run's metrics, named <module>.<metric>. A layer
// a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"topology.gen_s", "s"},
	{"routing.build_s", "s"},
	{"profile.run_s", "s"},
	{"core.map_s", "s"},
	{"fluid.build_s", "s"},
	{"fluid.flows", "count"},
	{"netsim.build_s", "s"},
	{"core.mll_ms", "ms"},
	{"core.imbalance", "ratio"},
	{"pdes.windows", "count"},
	{"pdes.remote_ratio", "ratio"},
	{"pdes.compute_s", "s"},
	{"pdes.barrier_wait_s", "s"},
	{"pdes.exchange_s", "s"},
	{"pdes.seq_run_s", "s"},
	{"pdes.speedup", "ratio"},
	{"des.events", "count"},
	{"des.max_pending", "count"},
	{"cpu.des", "share"},
	{"cpu.netsim", "share"},
	{"cpu.pdes", "share"},
	{"cpu.cluster", "share"},
	{"cpu.fluid", "share"},
	{"cpu.routing", "share"},
	{"cpu.gc", "share"},
	{"netsim.flows_done_ratio", "ratio"},
	{"netsim.drops", "count"},
	{"netsim.retransmits", "count"},
	{"runctl.submit_ms_p50", "ms"},
	{"runctl.queue_wait_ms_p50", "ms"},
	{"runctl.setup_ms_warm", "ms"},
	{"runctl.cache_hit_ratio", "ratio"},
	{"agent.send_us_p99", "us"},
	{"agent.backpressured", "count"},
	{"agent.dropped", "count"},
	{"agent.delivered_ratio", "ratio"},
	{"agent.gen_late_ms", "ms"},
	{"dist.windows", "count"},
	{"dist.ms_per_window", "ms"},
	{"dist.worker_build_s", "s"},
	{"dist.worker_heap_mb", "MB"},
	{"trace.overhead", "ratio"},
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(*Bench) error{
	"fig6-packet":   runFig6,
	"fig10-hybrid":  runFig10,
	"online-ingest": runOnline,
	"dist-loopback": runDist,
}

// Bench is one benchmark invocation: a workload, its seed and time
// budget, and everything measured so far.
type Bench struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	OutDir   string

	// tr records spans in traced runs; nil otherwise.
	tr *Tracer

	e2e     map[string]float64
	layer   map[string]float64
	samples map[string][]float64
	// dists summarizes per-message distributions too large to keep as
	// samples.
	dists map[string]Summary
	// live holds every live message's excess delay in ms, per phase, in
	// the order sent.
	live map[string][]float64

	attempted, failed int
	wrong             int // checks whose outputs were wrong
	failures          []string
	start             time.Time
	stat0             []uint64 // /proc/stat CPU ticks at the start
}

// Budget returns the share f of the run's measuring time.
func (b *Bench) Budget(f float64) time.Duration {
	return time.Duration(f * b.Seconds * float64(time.Second))
}

// E2E sets an end-to-end metric.
func (b *Bench) E2E(name string, v float64) { b.e2e[name] = v }

// Layer sets a per-layer metric.
func (b *Bench) Layer(name string, v float64) { b.layer[name] = v }

// Sample appends a per-run sample to the provenance record.
func (b *Bench) Sample(name string, v float64) { b.samples[name] = append(b.samples[name], v) }

// Check counts one attempted operation whose output is checked: unless
// ok, it failed and the run's outputs are not correct.
func (b *Bench) Check(ok bool, format string, args ...any) {
	b.CheckN(1, boolInt(!ok), ok, format, args...)
}

// CheckN counts n attempted operations of which bad failed; correct
// reports whether their outputs were right. An operation the program
// refused or shed by design fails without making the outputs wrong.
func (b *Bench) CheckN(n, bad int, correct bool, format string, args ...any) {
	b.attempted += n
	b.failed += bad
	if !correct {
		b.wrong++
	}
	if (bad > 0 || !correct) && len(b.failures) < 20 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

func boolInt(v bool) int {
	if v {
		return 1
	}
	return 0
}

// Span opens a traced span (no-op when untraced) and returns its closer.
func (b *Bench) Span(name string, parent int) (id int, end func()) {
	id = b.tr.Start(name, parent)
	return id, func() { b.tr.End(id) }
}

// Timed runs fn inside a span and returns its wall time in seconds.
func (b *Bench) Timed(name string, parent int, fn func() error) (float64, error) {
	_, end := b.Span(name, parent)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0).Seconds()
	end()
	return d, err
}

func main() {
	var b Bench
	var trace int
	var rev string
	flag.StringVar(&b.Workload, "workload", "", "workload name: fig6-packet, fig10-hybrid, online-ingest, dist-loopback")
	flag.Int64Var(&b.Seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&b.Seconds, "seconds", 15, "measuring time of one run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.StringVar(&b.OutDir, "out", filepath.Join(".bench_build", "out"), "directory for provenance, spans and profiles")
	flag.StringVar(&rev, "rev", "unknown", "source revision recorded in the provenance")
	flag.Parse()

	run, ok := workloads[b.Workload]
	if !ok || b.Seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "massbench: bad arguments (workload %q, seconds %g, trace %d)\n", b.Workload, b.Seconds, trace)
		os.Exit(2)
	}
	b.Trace = trace == 1
	b.e2e, b.layer, b.samples, b.dists, b.live = map[string]float64{}, map[string]float64{}, map[string][]float64{}, map[string]Summary{}, map[string][]float64{}
	for _, m := range perLayer {
		b.layer[m.name] = 0
	}
	if err := os.MkdirAll(b.OutDir, 0o755); err != nil {
		fatal(err)
	}
	runID := fmt.Sprintf("%s-s%d-t%d", b.Workload, b.Seed, trace)
	if b.Trace {
		b.tr = NewTracer(runID)
	}
	b.start, b.stat0 = time.Now(), readCPUStat()
	if err := run(&b); err != nil {
		fatal(fmt.Errorf("%s: %w", b.Workload, err))
	}
	// A traced run reports no end-to-end metric, and its probes are too
	// short for the percentile rule.
	if !b.Trace {
		for _, report := range []func() error{b.warmMetrics, b.liveMetrics} {
			if err := report(); err != nil {
				fatal(fmt.Errorf("%s: %w", b.Workload, err))
			}
		}
	}
	for _, m := range perLayer {
		if xs, ok := b.samples[m.name]; ok {
			b.Layer(m.name, Median(xs))
		}
	}
	b.E2E("peak_rss_mb", float64(memstat.Read().PeakRSS)/(1<<20))
	if b.attempted > 0 {
		b.E2E("ok_ratio", 1-float64(b.failed)/float64(b.attempted))
	}

	defs, vals := endToEnd, b.e2e
	if b.Trace {
		defs, vals = perLayer, b.layer
		if err := b.tr.WriteFile(filepath.Join(b.OutDir, runID+"-spans.json")); err != nil {
			fatal(err)
		}
	}
	metrics := map[string]any{}
	for _, m := range defs {
		v, ok := vals[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fatal(fmt.Errorf("%s: metric %s was not measured", b.Workload, m.name))
		}
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}

	prov := provenance(&b, rev)
	record := map[string]any{
		"provenance": prov, "end_to_end": b.e2e, "per_layer": b.layer,
		"samples": b.samples, "distributions": b.dists, "live_excess_ms": b.live, "attempted": b.attempted, "failed": b.failed,
		"error_rate": errorRate(&b), "wrong_outputs": b.wrong, "failures": b.failures,
	}
	if b.Trace {
		self := map[string]float64{}
		for name, d := range SelfTimes(b.tr.Spans()) {
			self[name] = d.Seconds()
		}
		record["self_time_s"] = self
	}
	if data, err := json.MarshalIndent(record, "", " "); err == nil {
		_ = os.WriteFile(filepath.Join(b.OutDir, runID+".json"), data, 0o644) // provenance copy; stdout has the result
	}

	w := bufio.NewWriter(os.Stdout)
	keys := make([]string, 0, len(prov))
	for k := range prov {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "# %s: %v\n", k, prov[k])
	}
	for _, name := range sortedKeys(b.samples) {
		fmt.Fprintf(w, "# sample %s: %s; all %s\n", name, Summarize(b.samples[name]), fmtFloats(b.samples[name]))
	}
	fmt.Fprintf(w, "# error_rate: %g (%d failed of %d attempted; %d wrong outputs)\n", errorRate(&b), b.failed, b.attempted, b.wrong)
	for _, f := range b.failures {
		fmt.Fprintf(w, "# failure: %s\n", f)
	}
	for _, m := range defs {
		fmt.Fprintf(w, "%-26s %14.6g %s\n", m.name, vals[m.name], m.unit)
	}
	res, _ := json.Marshal(map[string]any{
		"correct": b.wrong == 0, "attempted": b.attempted, "failed": b.failed, "metrics": metrics,
	})
	fmt.Fprintf(w, "%s\n", res)
	if err := w.Flush(); err != nil {
		os.Exit(1)
	}
}

func errorRate(b *Bench) float64 {
	if b.attempted == 0 {
		return 0
	}
	return float64(b.failed) / float64(b.attempted)
}

// provenance records where and how the numbers were made, including how
// much CPU the host took away from this machine while the run measured.
func provenance(b *Bench, rev string) map[string]any {
	return map[string]any{
		"workload": b.Workload, "seed": b.Seed, "seconds": b.Seconds, "trace": b.Trace,
		"cpu_model": cpuModel(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "revision": rev,
		"wall_s":      time.Since(b.start).Seconds(),
		"steal_share": stealShare(b.stat0, readCPUStat()),
	}
}

// readCPUStat returns the aggregate "cpu" line of /proc/stat as tick
// counters (nil where /proc is unavailable).
func readCPUStat() []uint64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 2 || fields[0] != "cpu" {
		return nil
	}
	var ticks []uint64
	for _, f := range fields[1:] {
		var v uint64
		fmt.Sscan(f, &v)
		ticks = append(ticks, v)
	}
	return ticks
}

// stealShare is the share of all CPU ticks between two /proc/stat
// readings that the hypervisor stole (the eighth counter).
func stealShare(a, b []uint64) float64 {
	const steal = 7
	if len(a) <= steal || len(b) != len(a) {
		return 0
	}
	var total uint64
	for i := range a {
		total += b[i] - a[i]
	}
	if total == 0 {
		return 0
	}
	return float64(b[steal]-a[steal]) / float64(total)
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func sortedKeys(m map[string][]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fmtFloats(xs []float64) string {
	const show = 12
	parts := make([]string, 0, show+1)
	for i, x := range xs {
		if i == show {
			parts = append(parts, fmt.Sprintf("… (%d more in the provenance file)", len(xs)-show))
			break
		}
		parts = append(parts, fmt.Sprintf("%.6g", x))
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "massbench: %v\n", err)
	os.Exit(1)
}

// LayerTime times fn in a span named after the per-layer metric (without
// its _s suffix) and records the duration as a sample of that metric; the
// reported value is the median over the run's repetitions.
func (b *Bench) LayerTime(metric string, parent int, fn func() error) error {
	d, err := b.Timed(strings.TrimSuffix(metric, "_s"), parent, fn)
	b.Sample(metric, d)
	return err
}

// Count scales a repetition count calibrated for a 15 s run to the run's
// --seconds, never below least. Counts, not deadlines, bound the work, so
// every run of a workload does the same work.
func (b *Bench) Count(at15, least int) int {
	return max(least, int(float64(at15)*b.Seconds/15+0.5))
}
