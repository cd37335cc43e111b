package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"levioso/internal/cpu"
	"levioso/internal/dispatch"
	"levioso/internal/engine"
	"levioso/internal/isa"
	"levioso/internal/obs"
	"levioso/internal/ref"
	"levioso/internal/serve"
	"levioso/internal/workloads"
)

// batchSetups is how many times a batch run starts the daemon, the server
// and its TCP connections. One start takes a few milliseconds, so eleven
// cost nothing and their median is steady.
const batchSetups = 41

// batchProcs is how many processors the batch run uses: its clients, the
// server's dispatch workers and TCP connections number one each. A cell
// passes through half a dozen goroutines (client, handler, coordinator, TCP
// writer and reader, daemon), and with two processors each hand-off may
// wake the other vCPU, which on a shared VM costs whatever the host's load
// makes it. Over six pairs of 25-second runs, one and two processors
// alternated while the host's load rose, the 10th-percentile batch latency
// had an IQR of 10% of its median on one processor and 19% on two, and
// rose 8% from first to last pair on one against 35% on two.
const batchProcs = 1

// batchSample is how many of the window's programs the traced run replays
// through the layers: 16 programs × 7 policies is over a hundred cells.
const batchSample = 16

// batchSynth is the generator configuration of the batch programs: the
// default shape with 4 main-loop iterations over 64-word arrays, so a cell
// compiles in about half a millisecond and simulates in about one — the
// size of a user's own short kernel, where serving and dispatch cost as
// much as simulating. Nesting stops at depth 2: depth 3 nests loops in
// loops around helper calls, and the rare long programs that makes carry
// the window's summed IPC with them (across seeds, 250 programs × 7
// policies vary 9% in IPC at depth 3 and 1.2% at depth 2).
func batchSynth(seed uint64) workloads.SynthConfig {
	cfg := workloads.DefaultSynthConfig(seed)
	cfg.OuterIters = 4
	cfg.ArrayLen = 64
	cfg.MaxDepth = 2
	return cfg
}

// splitmix64 scrambles x (Steele et al.'s SplitMix64 finalizer).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// batchSource is the i-th program of the run with the given seed.
func batchSource(seed uint64, i int) source {
	w := workloads.Synthesize(batchSynth(splitmix64(seed ^ splitmix64(uint64(i)))))
	return source{w.Name, w.Source(workloads.SizeTest)}
}

// batchBody renders one program as a /v1/batch request: one cell per eval
// policy.
func batchBody(src source) []byte {
	var br serve.BatchRequest
	for _, p := range engine.EvalPolicies() {
		br.Cells = append(br.Cells, serve.SimRequest{Name: src.name, Source: src.text, Policy: p})
	}
	b, _ := json.Marshal(br) // a struct of strings always marshals
	return b
}

// batchLine is one NDJSON line of a /v1/batch reply: a cell or the trailer.
type batchLine struct {
	serve.BatchCellResult
	Done      bool `json:"done"`
	Completed int  `json:"completed"`
	Failed    int  `json:"failed"`
}

// cellResult is what the window keeps of one cell for the check after it.
type cellResult struct {
	exit   uint64
	output string
	stats  cpu.Stats
}

// parseBatch checks the shape of one reply — one line per cell, every cell
// without error, the trailer last — and returns the cells by index.
func parseBatch(body []byte, ncells int) ([]cellResult, error) {
	cells := make([]cellResult, ncells)
	seen := make([]bool, ncells)
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, len(body)+1)
	var trailer *batchLine
	for sc.Scan() {
		if trailer != nil {
			return nil, fmt.Errorf("line after the trailer")
		}
		var l batchLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, err
		}
		if l.Done {
			trailer = &l
			continue
		}
		switch {
		case l.Index < 0 || l.Index >= ncells || seen[l.Index]:
			return nil, fmt.Errorf("bad or repeated cell index %d", l.Index)
		case l.Error != nil:
			return nil, fmt.Errorf("cell %d: %s: %s", l.Index, l.Error.Kind, l.Error.Message)
		case l.Stats == nil:
			return nil, fmt.Errorf("cell %d: no statistics", l.Index)
		}
		seen[l.Index] = true
		cells[l.Index] = cellResult{exit: l.Exit, output: l.Output, stats: *l.Stats}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for i, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("cell %d missing", i)
		}
	}
	if trailer == nil || trailer.Completed != ncells || trailer.Failed != 0 {
		return nil, fmt.Errorf("missing or wrong trailer %+v", trailer)
	}
	return cells, nil
}

// verifyProgram checks one program's cells after the window: each cell's
// exit code and output equal the reference, and its statistics equal a
// direct engine.Simulate of the same program and policy. It returns the
// number of failed cells; a program that no longer builds fails them all.
func verifyProgram(tr *tracer, req int64, src source, cells []cellResult) int64 {
	root := tr.begin("bench.verify", 0, req)
	defer root.end()
	ctx := context.Background()
	var (
		prog *isa.Program
		want ref.Result
		err  error
	)
	tr.call("engine.Compile", root.id, req, func() { prog, _, err = engine.Compile(src.name, src.text, true) })
	if err == nil {
		tr.call("engine.Reference", root.id, req, func() { want, err = engine.Reference(ctx, prog, ref.Limits{}) })
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "batch: %s: %v\n", src.name, err)
		return int64(len(cells))
	}
	var failed int64
	for i, pol := range engine.EvalPolicies() {
		var res cpu.Result
		tr.call("engine.Simulate", root.id, req, func() { res, err = engine.Simulate(ctx, prog, cpu.DefaultConfig(), pol) })
		c := cells[i]
		if err != nil || c.exit != want.ExitCode || c.output != want.Output || c.stats != res.Stats {
			fmt.Fprintf(os.Stderr, "batch: %s/%s: cell differs from the reference or a direct simulation (%v)\n", src.name, pol, err)
			failed++
		}
	}
	return failed
}

// verifyAll checks every program the window completed, from clients()
// goroutines, and returns the failed cells by operation number.
func verifyAll(tr *tracer, seed uint64, results map[int][]cellResult) map[int]int64 {
	seqs := make(chan int)
	var (
		mu     sync.Mutex
		failed = map[int]int64{}
		wg     sync.WaitGroup
	)
	for g := 0; g < clients(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := range seqs {
				if n := verifyProgram(tr, int64(seq), batchSource(seed, seq), results[seq]); n > 0 {
					mu.Lock()
					failed[seq] = n
					mu.Unlock()
				}
			}
		}()
	}
	for seq := range results {
		seqs <- seq
	}
	close(seqs)
	wg.Wait()
	return failed
}

// batchServer is the batch workload's system: a worker daemon on loopback
// TCP and a levserve server dispatching its batch tier to it, the
// `levserve -remote` shape.
type batchServer struct {
	daemon *workerDaemon
	h      *httpServer
}

func startBatchServer(daemonOpts dispatch.ListenOptions, cfg serve.Config) (*batchServer, error) {
	d, err := startDaemon(daemonOpts)
	if err != nil {
		return nil, err
	}
	cfg.Remote = []string{d.addr}
	srv, err := serve.New(cfg)
	if err != nil {
		d.close()
		return nil, err
	}
	h, err := startHTTP(srv)
	if err != nil {
		srv.Close()
		d.close()
		return nil, err
	}
	return &batchServer{daemon: d, h: h}, nil
}

func (b *batchServer) close() error {
	err := b.h.close()
	if derr := b.daemon.close(); err == nil {
		err = derr
	}
	return err
}

// batchConfig is the window's server: default caches, one dispatch worker
// (TCP connection) per client.
func batchConfig() serve.Config {
	return serve.Config{Dispatch: &dispatch.Config{Workers: clients()}}
}

func runBatch(cfg runConfig) (*outcome, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(batchProcs))
	b, setups, err := setUp(batchSetups, func() (*batchServer, error) {
		return startBatchServer(dispatch.ListenOptions{}, batchConfig())
	}, (*batchServer).close)
	if err != nil {
		return nil, err
	}
	defer b.close()
	client := newClient()
	defer client.CloseIdleConnections()
	ncells := len(engine.EvalPolicies())

	var (
		mu      sync.Mutex
		results = map[int][]cellResult{}
	)
	tr := cfg.tr
	w := measure(clients(), cfg.window, 1, func(seq int) sample {
		root := tr.begin("bench.op", 0, int64(seq))
		defer root.end()
		body := batchBody(batchSource(cfg.seed, seq))
		var (
			reply []byte
			err   error
		)
		lat := tr.call("serve.batch", root.id, int64(seq), func() {
			reply, err = post(client, b.h.url+"/v1/batch", body)
		})
		s := sample{lat: lat, units: int64(ncells), work: float64(ncells)}
		var cells []cellResult
		tr.call("bench.check", root.id, int64(seq), func() {
			if err == nil {
				cells, err = parseBatch(reply, ncells)
			}
		})
		if err != nil {
			s.failed = int64(ncells)
			fmt.Fprintln(os.Stderr, "batch: check failed:", err)
			return s
		}
		for _, c := range cells {
			s.committed += c.stats.Committed
			s.cycles += c.stats.Cycles
		}
		mu.Lock()
		results[seq] = cells
		mu.Unlock()
		return s
	})
	w.setup, w.latLabel = setups, "batches"

	// Check every cell against the reference and a direct simulation, now
	// that the window is over; a program with a failed cell leaves sim_ipc.
	for seq, n := range verifyAll(tr, cfg.seed, results) {
		w.fail(seq, n)
	}
	return finish(cfg, "batch", w, func() (map[string]float64, error) {
		return batchLayers(cfg, b)
	})
}

// batchLayers is the traced batch run's replay over the window's first
// batchSample programs: compile stages, key derivation and the core on
// them; engine.Run's overhead; the dispatch coordinator in-process and over
// TCP; the HTTP batch round trip against the direct engine and dispatch
// path; and the window server's retry and rejection counters. The replay's
// daemon, coordinators and server run with every cache off, so repeating a
// sample program misses like the window's fresh programs did.
func batchLayers(cfg runConfig, b *batchServer) (map[string]float64, error) {
	tr := cfg.tr
	vals := map[string]float64{}
	srcs := make([]source, batchSample)
	progs := make([]*isa.Program, batchSample)
	for i := range srcs {
		srcs[i] = batchSource(cfg.seed, i)
		var err error
		if progs[i], _, err = engine.Compile(srcs[i].name, srcs[i].text, true); err != nil {
			return nil, err
		}
	}
	if err := compileLayers(tr, srcs, vals); err != nil {
		return nil, err
	}
	cacheKeyLayer(tr, progs, vals)
	if err := simLayers(tr, progs, replayReps, vals); err != nil {
		return nil, err
	}
	if err := runOverheadLayer(tr, vals); err != nil {
		return nil, err
	}
	if err := dispatchLayers(tr, srcs, progs, vals); err != nil {
		return nil, err
	}
	st := b.h.srv.Stats()
	vals["dispatch.retries"] = float64(st.Dispatch.Retries)
	vals["serve.rejected"] = float64(st.Rejected)
	return vals, nil
}

// dispatchLayers measures the dispatch and serve tiers on the sample.
func dispatchLayers(tr *tracer, srcs []source, progs []*isa.Program, vals map[string]float64) error {
	ctx := context.Background()
	reg := obs.NewRegistry()
	noCache := dispatch.ListenOptions{CacheEntries: -1}
	bs, err := startBatchServer(noCache, serve.Config{
		CacheEntries: -1,
		Dispatch:     &dispatch.Config{Workers: clients(), CacheEntries: -1},
	})
	if err != nil {
		return err
	}
	defer bs.close()
	inproc, err := dispatch.New(ctx, dispatch.Config{Workers: 1, CacheEntries: -1, Registry: reg})
	if err != nil {
		return err
	}
	defer inproc.Close()
	fleet, err := dispatch.NewRemote(dispatch.RemoteConfig{Registry: reg}, bs.daemon.addr)
	if err != nil {
		return err
	}
	remote, err := dispatch.New(ctx, dispatch.Config{
		Workers: clients(), Spawn: fleet.Spawner(), CacheEntries: -1, Registry: reg,
	})
	if err != nil {
		return err
	}
	defer remote.Close()
	root := tr.begin("bench.replay.dispatch", 0, 0)
	defer root.end()

	// Coordinator.Execute per cell, in-process.
	var tExec time.Duration
	n := 0
	for i, p := range progs {
		for _, pol := range engine.EvalPolicies() {
			tExec += tr.call("dispatch.Execute", root.id, int64(i), func() {
				_, err = inproc.Execute(ctx, &dispatch.Cell{Name: srcs[i].name, Program: p, Overrides: engine.Overrides{Policy: pol}})
			})
			if err != nil {
				return err
			}
			n++
		}
	}
	vals["dispatch.execute_us"] = us(tExec) / float64(n)

	// One minimal cell over TCP against in-process, alternated.
	tiny, err := tinyProgram()
	if err != nil {
		return err
	}
	base := engine.BaselinePolicy()
	var tTCP, tLocal time.Duration
	for i := 0; i < overheadPairs; i++ {
		tTCP += tr.call("dispatch.ExecuteTCP", root.id, int64(i), func() {
			_, err = remote.Execute(ctx, &dispatch.Cell{Name: "tiny", Program: tiny, Overrides: engine.Overrides{Policy: base}})
		})
		if err != nil {
			return err
		}
		tLocal += tr.call("dispatch.Execute", root.id, int64(i), func() {
			_, err = inproc.Execute(ctx, &dispatch.Cell{Name: "tiny", Program: tiny, Overrides: engine.Overrides{Policy: base}})
		})
		if err != nil {
			return err
		}
	}
	vals["dispatch.tcp_overhead_us"] = us(tTCP-tLocal) / overheadPairs

	// The HTTP batch round trip against the same cells resolved and
	// dispatched directly, alternated per program.
	client := newClient()
	defer client.CloseIdleConnections()
	var tHTTP, tDirect time.Duration
	n = 0
	for r := 0; r < replayReps; r++ {
		for i, src := range srcs {
			var reply []byte
			tHTTP += tr.call("serve.batch", root.id, int64(i), func() {
				if reply, err = post(client, bs.h.url+"/v1/batch", batchBody(src)); err == nil {
					_, err = parseBatch(reply, len(engine.EvalPolicies()))
				}
			})
			if err != nil {
				return err
			}
			tDirect += tr.call("engine.direct", root.id, int64(i), func() { err = directBatch(ctx, remote, src) })
			if err != nil {
				return err
			}
			n++
		}
	}
	vals["serve.overhead_us"] = us(tHTTP-tDirect) / float64(n)
	return nil
}

// directBatch runs a batch's cells the way the server does, without HTTP:
// each cell resolved from source and executed on the coordinator,
// concurrently.
func directBatch(ctx context.Context, co *dispatch.Coordinator, src source) error {
	pols := engine.EvalPolicies()
	errs := make([]error, len(pols))
	var wg sync.WaitGroup
	for i, pol := range pols {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := engine.Request{Name: src.name, Source: src.text, Overrides: engine.Overrides{Policy: pol}}
			if errs[i] = req.Normalize(); errs[i] != nil {
				return
			}
			prog, _, err := engine.Resolve(ctx, &req)
			if err != nil {
				errs[i] = err
				return
			}
			_, errs[i] = co.Execute(ctx, &dispatch.Cell{Name: src.name, Program: prog, Overrides: req.Overrides})
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
