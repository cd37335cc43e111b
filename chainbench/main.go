// Command chainbench is the repository's end-to-end and per-layer benchmark.
// It drives the Levioso chain — LevC compile → assemble → annotate →
// engine → secure/cpu/mem (+ ref) → harness | dispatch → serve — through the
// layers' public functions from one process, under one of three workloads,
// each made of a single kind of operation:
//
//	sweep   harness.Supervise passes over the 12-kernel × 7-policy suite
//	cached  levserve /v1/simulate requests that all hit the result cache
//	batch   levserve /v1/batch requests of fresh programs, dispatched over TCP
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	chainbench --workload sweep|cached|batch --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it records
// spans around every public call it makes, prints a self-time waterfall per
// layer to standard error, writes the spans to .bench_build/, and prints the
// per-layer metrics. The last line of standard output is always one JSON
// object {"correct","attempted","failed","metrics"}. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// metricDef names one reported metric and its unit. The tables below are
// the single source of the printed names; TestMetricNamesMatchBenchmarkJSON
// pins them to BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p5_ms", "ms"},
	{"ok_frac", "frac"},
	{"rss_median_mb", "MiB"},
	{"allocs_per_op", "1/op"},
	{"alloc_kb_per_op", "KiB/op"},
	{"sim_ipc", "inst/cycle"},
}

var perLayer = []metricDef{
	{"workloads.build_us", "us"},
	{"workloads.build_kb", "KiB"},
	{"lang.compile_us", "us"},
	{"asm.assemble_us", "us"},
	{"core.annotate_us", "us"},
	{"engine.cachekey_us", "us"},
	{"engine.cachekey_kb", "KiB"},
	{"engine.run_overhead_us", "us"},
	{"cpu.new_us", "us"},
	{"cpu.ns_per_cycle.unsafe", "ns/cycle"},
	{"cpu.allocs_per_kinst", "1/kinst"},
	{"secure.cost_ratio.fence", "ratio"},
	{"secure.cost_ratio.delay", "ratio"},
	{"secure.cost_ratio.invisible", "ratio"},
	{"secure.cost_ratio.taint", "ratio"},
	{"secure.cost_ratio.levioso", "ratio"},
	{"secure.cost_ratio.prospect", "ratio"},
	{"cpu.sim_cycles", "cycles"},
	{"cpu.committed", "insts"},
	{"cpu.policy_wait_events", "count"},
	{"ref.ns_per_inst", "ns/inst"},
	{"harness.busy_frac", "frac"},
	{"harness.cell_overhead_us", "us"},
	{"dispatch.execute_us", "us"},
	{"dispatch.tcp_overhead_us", "us"},
	{"dispatch.retries", "count"},
	{"serve.rejected", "count"},
	{"serve.overhead_us", "us"},
	{"trace.overhead_frac", "frac"},
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// render fills every metric of defs from vals; a layer off the workload's
// path has no entry in vals and reads 0. A value whose name defs lacks is an
// error, so a misspelled name cannot vanish from the output.
func render(defs []metricDef, vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("measured %s, which is not a printed metric", name)
		}
	}
	return out, nil
}

// workload is one benchmark workload. run measures the window and returns
// the end-to-end values; with a tracer it also records spans and returns the
// per-layer values from its replay.
type workload struct {
	name string
	run  func(cfg runConfig) (*outcome, error)
}

var workloadTable = []workload{
	{"sweep", runSweep},
	{"cached", runCached},
	{"batch", runBatch},
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed   uint64
	window time.Duration
	tr     *tracer // nil unless --trace 1
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int64
	e2e               map[string]float64 // end-to-end values (untraced runs)
	layers            map[string]float64 // per-layer values (traced runs)
}

func main() {
	name := flag.String("workload", "", "workload: sweep, cached or batch")
	seed := flag.Uint64("seed", 0, "input seed")
	seconds := flag.Int("seconds", 0, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "chainbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds, trace int) error {
	var w *workload
	for i := range workloadTable {
		if workloadTable[i].name == name {
			w = &workloadTable[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q (want sweep, cached or batch)", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	cfg := runConfig{seed: seed, window: time.Duration(seconds) * time.Second}
	if trace == 1 {
		cfg.tr = newTracer()
	}
	out, err := w.run(cfg)
	if err != nil {
		return err
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
	}
	if cfg.tr != nil {
		if res.Metrics, err = render(perLayer, out.layers); err != nil {
			return err
		}
		cfg.tr.waterfall(os.Stderr)
		if path, err := cfg.tr.writeFile(name, seed); err != nil {
			fmt.Fprintln(os.Stderr, "chainbench: writing spans:", err)
		} else {
			fmt.Fprintln(os.Stderr, "spans written to", path)
		}
	} else if res.Metrics, err = render(endToEnd, out.e2e); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
