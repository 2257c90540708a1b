// Command perfbench is the repository's end-to-end benchmark. It drives the
// public serving path (gateway → Cluster.Submit → providers over tcp) and
// the public planning path (System.PlanCached) with seeded workloads,
// checks their outputs, and prints one JSON result line.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload serve_bulk --seed 1 --seconds 20 --trace 0
//
// Workloads: serve_bulk, serve_open, plan_stream (or all). With --trace 0
// the result carries the end-to-end metrics; with --trace 1 it carries the
// per-layer metrics of a traced run, measured beside an untraced run of the
// same length so the tracing overhead shows, and the spans are written
// under .bench_build/perfbench/. Parameters live in spec.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload with --trace 0.
var endToEnd = []metricDef{
	{"sustained_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"plan_pred_ips", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics of single layers, reported by every workload
// with --trace 1 (0 where the workload does not exercise the layer).
var perLayer = []metricDef{
	{"gateway.wait_ms_mean", "ms"},
	{"gateway.expired", "count"},
	{"gateway.late", "count"},
	{"runtime.submit_ms_p50", "ms"},
	{"runtime.submit_ms_p99", "ms"},
	{"runtime.steps_per_image", "count"},
	{"runtime.batch_ratio", "ratio"},
	{"runtime.compute_busy_ms_per_image", "ms"},
	{"transport.send_us_mean", "us"},
	{"transport.bytes_per_image", "bytes"},
	{"transport.msgs_per_image", "count"},
	{"transport.flushes_per_msg", "ratio"},
	{"emulation.cpu_share", "frac"},
	{"gateway.cpu_share", "frac"},
	{"runtime.cpu_share", "frac"},
	{"transport.cpu_share", "frac"},
	{"plancache.cpu_share", "frac"},
	{"plancache.hit_ratio", "frac"},
	{"plancache.warm_ratio", "frac"},
	{"plancache.hit_ms_p50", "ms"},
	{"search.cold_ms_mean", "ms"},
	{"search.warm_ms_mean", "ms"},
	{"search.cpu_share.partition", "frac"},
	{"search.cpu_share.splitter", "frac"},
	{"search.cpu_share.rl", "frac"},
	{"search.cpu_share.nn", "frac"},
	{"search.cpu_share.tensor", "frac"},
	{"search.cpu_share.sim", "frac"},
	{"search.cpu_share.device", "frac"},
	{"proc.alloc_bytes_per_op", "bytes"},
	{"proc.gc_cycles", "count"},
	{"proc.gc_pause_ms", "ms"},
	{"loadgen.lag_ms_max", "ms"},
	{"trace.overhead_frac", "frac"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one workload run's result.
type report struct {
	attempted, failed int
	metrics           map[string]float64 // by name; the units come from the defs
	extra             []string           // human-readable lines printed before the result
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) note(format string, args ...any) {
	r.extra = append(r.extra, fmt.Sprintf(format, args...))
}

// checks collects output-check misses; any miss fails the run.
type checks struct{ misses []string }

func (c *checks) fail(format string, args ...any) {
	c.misses = append(c.misses, fmt.Sprintf(format, args...))
}

func (c *checks) expect(ok bool, format string, args ...any) {
	if !ok {
		c.fail(format, args...)
	}
}

type runFunc func(spec *benchSpec, seed int64, seconds float64, trace bool, chk *checks) (*report, error)

var workloads = map[string]runFunc{
	"serve_bulk":  runServeBulk,
	"serve_open":  runServeOpen,
	"plan_stream": runPlanStream,
}

func main() {
	workload := flag.String("workload", "", "serve_bulk, serve_open, plan_stream or all")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatalf("perfbench: need --seconds > 0 and --trace 0|1")
	}
	spec, err := loadSpec()
	if err != nil {
		fatalf("perfbench: %v", err)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = []string{"serve_bulk", "serve_open", "plan_stream"}
	}
	allCorrect := true
	for _, name := range names {
		run, ok := workloads[name]
		if !ok {
			fatalf("perfbench: unknown workload %q (want serve_bulk|serve_open|plan_stream|all)", name)
		}
		if !runOne(name, run, spec, *seed, *seconds, *trace == 1) {
			allCorrect = false
		}
	}
	if !allCorrect {
		os.Exit(1)
	}
}

// runOne runs one workload and prints its metrics, then its JSON result
// line. It reports whether every output check held.
func runOne(name string, run runFunc, spec *benchSpec, seed int64, seconds float64, trace bool) bool {
	chk := &checks{}
	rep, err := run(spec, seed, seconds, trace, chk)
	if err != nil {
		fatalf("perfbench: %s: %v", name, err)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	fmt.Printf("== %s (seed %d, %gs, trace %v)\n", name, seed, seconds, trace)
	for _, line := range rep.extra {
		fmt.Println("   " + line)
	}
	out := map[string]metric{}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		switch {
		case !ok:
			chk.fail("metric %s not measured", d.name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			// A percentile past the share of requests that failed reads
			// +Inf; JSON cannot carry it, and the run is not correct.
			chk.fail("metric %s is %v", d.name, v)
			v = 0
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Printf("   %-30s %14.6g %s\n", d.name, v, d.unit)
	}
	for _, m := range chk.misses {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", name, m)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(chk.misses) == 0, rep.attempted, rep.failed, out})
	if err != nil {
		fatalf("perfbench: %v", err)
	}
	fmt.Println(string(line))
	return len(chk.misses) == 0
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// secondsDur converts fractional seconds to a Duration.
func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
