package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"levioso/internal/cpu"
	"levioso/internal/engine"
	"levioso/internal/harness"
	"levioso/internal/isa"
	"levioso/internal/obs"
	"levioso/internal/ref"
	"levioso/internal/workloads"
)

// sweepSetups is how many times a sweep run builds the suite and its
// references before the window: one set-up takes under a tenth of a
// second, and the median of eleven keeps slow builds (a GC, a page-fault
// burst, a spell of host contention) out of setup_s.
const sweepSetups = 11

// kernel is one suite workload built at SizeTest with its reference result.
type kernel struct {
	w    workloads.Workload
	prog *isa.Program
	want ref.Result
}

// buildKernels builds every suite kernel at SizeTest and runs it on the
// reference interpreter: the inputs and expected answers of sweep and
// cached.
func buildKernels() ([]kernel, error) {
	var ks []kernel
	for _, w := range workloads.All() {
		prog, err := w.Build(workloads.SizeTest)
		if err != nil {
			return nil, err
		}
		want, err := engine.Reference(context.Background(), prog, ref.Limits{})
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", w.Name, err)
		}
		ks = append(ks, kernel{w: w, prog: prog, want: want})
	}
	return ks, nil
}

// cellID names one (workload, policy) cell of the sweep.
type cellID struct{ workload, policy string }

// sweepCheck holds what every cell is checked against: the reference exit
// codes and the statistics of the cell's first run.
type sweepCheck struct {
	exits map[string]uint64
	cells int // cells per checked result
	first map[cellID]cpu.Stats
}

// check counts the failed cells of one result: cells the supervisor failed
// or never returned, exit codes that differ from the reference, and
// statistics that differ from the same cell's first run. The first run of a
// cell sets the statistics its later runs must repeat.
func (c *sweepCheck) check(res *harness.SweepResult, err error) (failed int64, committed, cycles uint64) {
	if err != nil {
		return int64(c.cells), 0, 0
	}
	failed = int64(len(res.Failures))
	if missing := c.cells - len(res.Runs) - len(res.Failures); missing > 0 {
		failed += int64(missing)
	}
	if c.first == nil {
		c.first = map[cellID]cpu.Stats{}
	}
	for _, r := range res.Runs {
		id := cellID{r.Workload, r.Policy}
		want, ok := c.exits[r.Workload]
		bad := !ok || r.ExitCode != want
		if st, seen := c.first[id]; !seen {
			c.first[id] = r.Stats
		} else if st != r.Stats {
			bad = true
		}
		if bad {
			failed++
			continue
		}
		committed += r.Stats.Committed
		cycles += r.Stats.Cycles
	}
	return failed, committed, cycles
}

// sweepSpec is levbench's default sweep at SizeTest: 12 kernels × the 7
// eval policies in levbench's cell order, verified against the reference,
// on a pool of GOMAXPROCS workers. SizeTest keeps a pass near four seconds
// on a 2-vCPU host, so a 30-second window holds about seven passes: that
// many latencies per kernel to take a quantile of.
func sweepSpec() harness.Spec {
	spec := harness.DefaultSpec()
	spec.Size = workloads.SizeTest
	return spec
}

// kernelSpecs splits spec into one spec per kernel, in spec order, each
// with every policy: supervising them one after another runs the pass's
// cells in the same order, and times each kernel apart. A whole pass
// builds and verifies each kernel once, as one Supervise of spec does.
func kernelSpecs(spec harness.Spec) []harness.Spec {
	specs := make([]harness.Spec, len(spec.Workloads))
	for i, w := range spec.Workloads {
		specs[i] = spec
		specs[i].Workloads = []workloads.Workload{w}
	}
	return specs
}

func runSweep(cfg runConfig) (*outcome, error) {
	ks, setups, err := setUp(sweepSetups, buildKernels, nil)
	if err != nil {
		return nil, err
	}
	specs := kernelSpecs(sweepSpec())
	chk := &sweepCheck{exits: map[string]uint64{}, cells: len(specs[0].Policies)}
	for _, k := range ks {
		chk.exits[k.w.Name] = k.want.ExitCode
	}
	reg := obs.NewRegistry()
	ctx := obs.WithRegistry(context.Background(), reg)
	tr := cfg.tr

	// One client: the parallelism is the supervisor's pool. An operation is
	// one kernel's cells, and the window ends on a whole pass.
	w := measure(1, cfg.window, len(specs), func(seq int) sample {
		root := tr.begin("bench.op", 0, int64(seq))
		defer root.end()
		k := seq % len(specs)
		var (
			res *harness.SweepResult
			err error
		)
		lat := tr.call("harness.Supervise", root.id, int64(seq), func() {
			res, err = harness.Supervise(ctx, specs[k])
		})
		s := sample{input: k, lat: lat, units: int64(chk.cells)}
		tr.call("bench.check", root.id, int64(seq), func() {
			s.failed, s.committed, s.cycles = chk.check(res, err)
		})
		s.work = float64(s.committed)
		return s
	})
	w.setup, w.latLabel = setups, "kernel sweeps"
	return finish(cfg, "sweep", w, func() (map[string]float64, error) {
		return sweepLayers(cfg, ks, reg, w)
	})
}

// finish turns a measured window into the workload's outcome: end-to-end
// values for an untraced run, the replayed per-layer values plus the
// tracing overhead for a traced one.
func finish(cfg runConfig, name string, w *window, layers func() (map[string]float64, error)) (*outcome, error) {
	units, failed, _, _ := w.totals()
	out := &outcome{attempted: units, failed: failed}
	w.report(os.Stderr, name)
	if cfg.tr == nil {
		out.e2e = w.endToEnd()
		return out, nil
	}
	// The window's spans are a few per operation; their share of the
	// operations' own time is what tracing added to them.
	spans := cfg.tr.count()
	var busy time.Duration
	for _, s := range w.samples {
		busy += s.lat
	}
	vals, err := layers()
	if err != nil {
		return nil, err
	}
	vals["trace.overhead_frac"] = float64(spans) * float64(spanCost(spanCostSamples)) / float64(busy)
	out.layers = vals
	return out, nil
}

// spanCostSamples is how many spans the trace-cost measurement records:
// enough that the per-span figure is stable to a few nanoseconds.
const spanCostSamples = 200_000
