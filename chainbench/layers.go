package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"levioso/internal/asm"
	"levioso/internal/core"
	"levioso/internal/cpu"
	"levioso/internal/engine"
	"levioso/internal/isa"
	"levioso/internal/lang"
	"levioso/internal/obs"
	"levioso/internal/ref"
	"levioso/internal/secure"
	"levioso/internal/workloads"
)

// The per-layer metrics of a traced run come from replaying a deterministic
// sample of the window's inputs through the layers' public functions, each
// call inside a span, after the window has ended. Every helper here opens a
// root span "bench.replay.<what>" with one child span per public call.

// replayReps is how many times each replayed build, compile, key or
// reference call repeats, and each batch cell's simulation: enough that a
// per-call mean over the sample does not hinge on one GC pause. A sweep
// kernel's simulation runs once per cell: it takes tens of milliseconds,
// and the policy/unsafe alternation already cancels drift.
const replayReps = 3

// overheadPairs is how many alternated pairs the A−B overhead figures
// (engine.Run − engine.Simulate, TCP − in-process, HTTP − direct) average:
// a pair costs about a millisecond, and the differences are tens to
// hundreds of microseconds, so 500 pairs bring the mean's noise down to a
// microsecond or two.
const overheadPairs = 500

// tinySource is the minimal program the A−B overhead figures run, so the
// difference is the layer's fixed cost and not simulation work.
const tinySource = "func main() { return 7; }"

// allocDelta measures f's process-wide heap allocations (count and bytes).
// Callers run it with the rest of the process idle.
func allocDelta(f func()) (mallocs, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// source is one LevC program to compile.
type source struct{ name, text string }

// buildLayer times Workload.Build(SizeTest) per kernel, with its heap bytes.
func buildLayer(tr *tracer, ws []workloads.Workload, vals map[string]float64) error {
	root := tr.begin("bench.replay.build", 0, 0)
	defer root.end()
	var total time.Duration
	var bytes uint64
	var err error
	for r := 0; r < replayReps; r++ {
		for i, w := range ws {
			_, b := allocDelta(func() {
				total += tr.call("workloads.Build", root.id, int64(i), func() {
					_, err = w.Build(workloads.SizeTest)
				})
			})
			if err != nil {
				return err
			}
			bytes += b
		}
	}
	n := float64(replayReps * len(ws))
	vals["workloads.build_us"] = us(total) / n
	vals["workloads.build_kb"] = float64(bytes) / 1024 / n
	return nil
}

// compileLayers times the three compile stages separately on each source:
// lang.CompileToAsm, asm.Assemble and core.Annotate.
func compileLayers(tr *tracer, srcs []source, vals map[string]float64) error {
	root := tr.begin("bench.replay.compile", 0, 0)
	defer root.end()
	var tl, ta, tc time.Duration
	for r := 0; r < replayReps; r++ {
		for i, s := range srcs {
			var (
				text string
				prog *isa.Program
				err  error
			)
			req := int64(i)
			tl += tr.call("lang.CompileToAsm", root.id, req, func() { text, err = lang.CompileToAsm(s.name, s.text) })
			if err != nil {
				return fmt.Errorf("compile %s: %w", s.name, err)
			}
			ta += tr.call("asm.Assemble", root.id, req, func() { prog, err = asm.Assemble(s.name+".s", text) })
			if err != nil {
				return fmt.Errorf("assemble %s: %w", s.name, err)
			}
			tc += tr.call("core.Annotate", root.id, req, func() { _, err = core.Annotate(prog) })
			if err != nil {
				return fmt.Errorf("annotate %s: %w", s.name, err)
			}
		}
	}
	n := float64(replayReps * len(srcs))
	vals["lang.compile_us"] = us(tl) / n
	vals["asm.assemble_us"] = us(ta) / n
	vals["core.annotate_us"] = us(tc) / n
	return nil
}

// cacheKeyLayer times engine.CacheKey on each program image under the
// default configuration, the key levserve and the dispatch tier derive.
func cacheKeyLayer(tr *tracer, progs []*isa.Program, vals map[string]float64) {
	root := tr.begin("bench.replay.cachekey", 0, 0)
	defer root.end()
	cfg := cpu.DefaultConfig()
	var total time.Duration
	var bytes uint64
	for r := 0; r < replayReps; r++ {
		for i, p := range progs {
			_, b := allocDelta(func() {
				total += tr.call("engine.CacheKey", root.id, int64(i), func() {
					engine.CacheKey(p, engine.BaselinePolicy(), cfg, false, false)
				})
			})
			bytes += b
		}
	}
	n := float64(replayReps * len(progs))
	vals["engine.cachekey_us"] = us(total) / n
	vals["engine.cachekey_kb"] = float64(bytes) / 1024 / n
}

// simLayers replays every (program, eval policy) cell directly on the core:
// secure.New + cpu.New cost, Core.Run host time per simulated cycle and heap
// allocations per 1000 committed instructions, the summed statistics of one
// pass over the cells, and each policy's host cost per cycle relative to
// unsafe — every policy run alternated with an unsafe run of the same
// program, so host drift cancels in the ratio. Each cell runs reps times;
// the summed statistics count the first.
func simLayers(tr *tracer, progs []*isa.Program, reps int, vals map[string]float64) error {
	root := tr.begin("bench.replay.sim", 0, 0)
	defer root.end()
	cfg := cpu.DefaultConfig()
	base := engine.BaselinePolicy()
	var (
		newTime               time.Duration
		newCount              int
		mallocs, committedAll uint64
		runNS                 = map[string]time.Duration{}
		runCycles             = map[string]uint64{}
		sum                   cpu.Stats
		req                   int64
	)
	// runOne constructs and runs one core, accumulating its costs.
	runOne := func(p *isa.Program, pol string) (cpu.Stats, error) {
		req++
		var (
			c   *cpu.Core
			err error
		)
		newTime += tr.call("cpu.New", root.id, req, func() {
			var sp cpu.Policy
			if sp, err = secure.New(pol); err == nil {
				c, err = cpu.New(p, cfg, sp)
			}
		})
		newCount++
		if err != nil {
			return cpu.Stats{}, err
		}
		var res cpu.Result
		m, _ := allocDelta(func() {
			runNS[pol] += tr.call("cpu.Run", root.id, req, func() { res, err = c.Run() })
		})
		if err != nil {
			return cpu.Stats{}, err
		}
		mallocs += m
		committedAll += res.Stats.Committed
		runCycles[pol] += res.Stats.Cycles
		return res.Stats, nil
	}
	for _, p := range progs {
		for _, pol := range engine.EvalPolicies() {
			for r := 0; r < reps; r++ {
				if pol != base {
					if _, err := runOne(p, base); err != nil {
						return err
					}
				}
				st, err := runOne(p, pol)
				if err != nil {
					return err
				}
				if r == 0 {
					sum.Cycles += st.Cycles
					sum.Committed += st.Committed
					sum.PolicyWaitEvents += st.PolicyWaitEvents
				}
			}
		}
	}
	perCycle := func(pol string) float64 { return float64(runNS[pol]) / float64(runCycles[pol]) }
	vals["cpu.new_us"] = us(newTime) / float64(newCount)
	vals["cpu.ns_per_cycle."+base] = perCycle(base)
	vals["cpu.allocs_per_kinst"] = 1000 * float64(mallocs) / float64(committedAll)
	for _, pol := range engine.EvalPolicies() {
		if pol != base {
			vals["secure.cost_ratio."+pol] = perCycle(pol) / perCycle(base)
		}
	}
	vals["cpu.sim_cycles"] = float64(sum.Cycles)
	vals["cpu.committed"] = float64(sum.Committed)
	vals["cpu.policy_wait_events"] = float64(sum.PolicyWaitEvents)
	return nil
}

// tinyProgram compiles the minimal program the overhead figures use.
func tinyProgram() (*isa.Program, error) {
	prog, _, err := engine.Compile("tiny", tinySource, true)
	return prog, err
}

// runOverheadLayer is engine.Run's cost on top of engine.Simulate: the two
// run the same minimal cell, alternated.
func runOverheadLayer(tr *tracer, vals map[string]float64) error {
	root := tr.begin("bench.replay.engine", 0, 0)
	defer root.end()
	prog, err := tinyProgram()
	if err != nil {
		return err
	}
	ctx := context.Background()
	cfg := cpu.DefaultConfig()
	base := engine.BaselinePolicy()
	var tRun, tSim time.Duration
	for i := 0; i < overheadPairs; i++ {
		req := int64(i)
		tRun += tr.call("engine.Run", root.id, req, func() {
			_, err = engine.Run(ctx, engine.Request{Name: "tiny", Program: prog, Overrides: engine.Overrides{Policy: base}})
		})
		if err != nil {
			return err
		}
		tSim += tr.call("engine.Simulate", root.id, req, func() {
			_, err = engine.Simulate(ctx, prog, cfg, base)
		})
		if err != nil {
			return err
		}
	}
	vals["engine.run_overhead_us"] = us(tRun-tSim) / overheadPairs
	return nil
}

// refLayer is the reference interpreter's host time per instruction.
func refLayer(tr *tracer, progs []*isa.Program, vals map[string]float64) error {
	root := tr.begin("bench.replay.ref", 0, 0)
	defer root.end()
	var total time.Duration
	var insts uint64
	for r := 0; r < replayReps; r++ {
		for i, p := range progs {
			var err error
			total += tr.call("engine.Reference", root.id, int64(i), func() {
				var res ref.Result
				res, err = engine.Reference(context.Background(), p, ref.Limits{})
				insts += res.Insts
			})
			if err != nil {
				return err
			}
		}
	}
	vals["ref.ns_per_inst"] = float64(total) / float64(insts)
	return nil
}

// harnessLayer reads the supervisor's own stage histograms from the registry
// the window's passes recorded into: the share of the pool's time spent
// inside cells, and each cell's time outside the engine's simulate and
// verify stages.
func harnessLayer(reg *obs.Registry, w *window, vals map[string]float64) {
	stage := func(family, name string) obs.HistSnapshot {
		return reg.HistogramVec(family+"_stage_seconds", family+" pipeline stage duration by stage and outcome",
			obs.LatencyBuckets(), "stage", "outcome").With(name, obs.OutcomeOK).Snapshot()
	}
	cells := stage("harness", "cell")
	sim := stage("engine", "simulate")
	verify := stage("engine", "verify")
	var passes time.Duration
	for _, s := range w.samples {
		passes += s.lat
	}
	if cells.Count == 0 || passes == 0 {
		return
	}
	vals["harness.busy_frac"] = cells.Sum / (passes.Seconds() * float64(runtime.GOMAXPROCS(0)))
	vals["harness.cell_overhead_us"] = (cells.Sum - sim.Sum - verify.Sum) * 1e6 / float64(cells.Count)
}

// kernelLayers replays the kernels through Workload.Build and the three
// compile stages, and returns their programs.
func kernelLayers(tr *tracer, ks []kernel, vals map[string]float64) ([]*isa.Program, error) {
	ws := make([]workloads.Workload, len(ks))
	srcs := make([]source, len(ks))
	progs := make([]*isa.Program, len(ks))
	for i, k := range ks {
		ws[i], progs[i] = k.w, k.prog
		srcs[i] = source{k.w.Name, k.w.Source(workloads.SizeTest)}
	}
	if err := buildLayer(tr, ws, vals); err != nil {
		return nil, err
	}
	return progs, compileLayers(tr, srcs, vals)
}

// sweepLayers is the traced sweep's replay: the kernels through build,
// compile, core and reference, engine.Run's overhead, and the harness
// histograms of the window's passes.
func sweepLayers(cfg runConfig, ks []kernel, reg *obs.Registry, w *window) (map[string]float64, error) {
	vals := map[string]float64{}
	progs, err := kernelLayers(cfg.tr, ks, vals)
	if err != nil {
		return nil, err
	}
	if err := simLayers(cfg.tr, progs, 1, vals); err != nil {
		return nil, err
	}
	if err := runOverheadLayer(cfg.tr, vals); err != nil {
		return nil, err
	}
	if err := refLayer(cfg.tr, progs, vals); err != nil {
		return nil, err
	}
	harnessLayer(reg, w, vals)
	return vals, nil
}
