package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"time"

	"levioso/internal/cpu"
	"levioso/internal/engine"
	"levioso/internal/isa"
	"levioso/internal/serve"
	"levioso/internal/workloads"
)

// cachedSetups is how many times a cached run starts a server and warms its
// cache. One warm-up simulates all 84 cells, a few seconds, so three keep
// the run short while the median still drops one outlier.
const cachedSetups = 3

// cachedRounds is how many seeded shuffles of the 84 pairs make up the
// request order; the window walks it cyclically. Every round is a whole
// permutation, so at any point of the window each pair has been requested
// as often as any other, give or take one.
const cachedRounds = 64

// pair is one (kernel, policy) request of the cached workload.
type pair struct {
	kernel int // index into the kernels
	policy string
}

// cachedPairs lists every (kernel, eval policy) pair, kernel-major.
func cachedPairs(nkernels int) []pair {
	var ps []pair
	for k := 0; k < nkernels; k++ {
		for _, p := range engine.EvalPolicies() {
			ps = append(ps, pair{k, p})
		}
	}
	return ps
}

// cachedOrder is the seeded, balanced request order: cachedRounds
// permutations of the n pair indices back to back.
func cachedOrder(seed uint64, n int) []int {
	rng := rand.New(rand.NewSource(int64(seed)))
	order := make([]int, 0, n*cachedRounds)
	for r := 0; r < cachedRounds; r++ {
		order = append(order, rng.Perm(n)...)
	}
	return order
}

// simBody renders a pair as a /v1/simulate request by workload name.
func simBody(ks []kernel, p pair) []byte {
	// A struct of strings always marshals.
	b, _ := json.Marshal(serve.SimRequest{Workload: ks[p.kernel].w.Name, Policy: p.policy})
	return b
}

// checkHit checks one cached reply: a cache hit whose exit code and output
// equal the reference and whose statistics equal the warm-up reply.
func checkHit(resp serve.SimResponse, k kernel, warm cpu.Stats) error {
	switch {
	case !resp.Cached:
		return fmt.Errorf("%s: not served from the cache", k.w.Name)
	case resp.Exit != k.want.ExitCode || resp.Output != k.want.Output:
		return fmt.Errorf("%s: exit %d output %q, reference %d %q",
			k.w.Name, resp.Exit, resp.Output, k.want.ExitCode, k.want.Output)
	case resp.Stats != warm:
		return fmt.Errorf("%s: statistics differ from the warm-up reply", k.w.Name)
	}
	return nil
}

// simulate posts one /v1/simulate request and decodes the reply.
func simulate(c *http.Client, url string, body []byte) (serve.SimResponse, error) {
	var resp serve.SimResponse
	b, err := post(c, url+"/v1/simulate", body)
	if err == nil {
		err = json.Unmarshal(b, &resp)
	}
	return resp, err
}

// warmCache posts every pair once from clients() goroutines and checks each
// reply against the reference, returning the replies' statistics.
func warmCache(c *http.Client, url string, ks []kernel, pairs []pair, bodies [][]byte) ([]cpu.Stats, error) {
	stats := make([]cpu.Stats, len(pairs))
	errs := make([]error, len(pairs))
	next := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < clients(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				resp, err := simulate(c, url, bodies[i])
				k := ks[pairs[i].kernel]
				if err == nil && (resp.Exit != k.want.ExitCode || resp.Output != k.want.Output) {
					err = fmt.Errorf("%s/%s: warm-up reply differs from the reference", k.w.Name, pairs[i].policy)
				}
				stats[i], errs[i] = resp.Stats, err
			}
		}()
	}
	for i := range pairs {
		next <- i
	}
	close(next)
	wg.Wait()
	return stats, errors.Join(errs...)
}

// cachedServer is a levserve server whose cache holds every pair, with
// the warm-up replies' statistics.
type cachedServer struct {
	h    *httpServer
	warm []cpu.Stats
}

// startCached starts a default levserve server and warms its cache with
// every pair: the cached workload's set-up.
func startCached(c *http.Client, ks []kernel, pairs []pair, bodies [][]byte) (*cachedServer, error) {
	srv, err := serve.New(serve.Config{})
	if err != nil {
		return nil, err
	}
	h, err := startHTTP(srv)
	if err != nil {
		srv.Close()
		return nil, err
	}
	warm, err := warmCache(c, h.url, ks, pairs, bodies)
	if err != nil {
		h.close()
		return nil, err
	}
	return &cachedServer{h: h, warm: warm}, nil
}

func runCached(cfg runConfig) (*outcome, error) {
	ks, err := buildKernels()
	if err != nil {
		return nil, err
	}
	pairs := cachedPairs(len(ks))
	bodies := make([][]byte, len(pairs))
	for i, p := range pairs {
		bodies[i] = simBody(ks, p)
	}
	order := cachedOrder(cfg.seed, len(pairs))
	client := newClient()
	defer client.CloseIdleConnections()

	cs, setups, err := setUp(cachedSetups, func() (*cachedServer, error) {
		return startCached(client, ks, pairs, bodies)
	}, func(cs *cachedServer) error { return cs.h.close() })
	if err != nil {
		return nil, err
	}
	defer cs.h.close()
	h, warm := cs.h, cs.warm

	tr := cfg.tr
	w := measure(clients(), cfg.window, 1, func(seq int) sample {
		root := tr.begin("bench.op", 0, int64(seq))
		defer root.end()
		i := order[seq%len(order)]
		var (
			resp serve.SimResponse
			err  error
		)
		lat := tr.call("serve.simulate", root.id, int64(seq), func() {
			resp, err = simulate(client, h.url, bodies[i])
		})
		s := sample{input: i, lat: lat, units: 1, work: 1}
		tr.call("bench.check", root.id, int64(seq), func() {
			if err == nil {
				err = checkHit(resp, ks[pairs[i].kernel], warm[i])
			}
		})
		if err != nil {
			s.failed = 1
			fmt.Fprintln(os.Stderr, "cached: check failed:", err)
			return s
		}
		s.committed, s.cycles = resp.Stats.Committed, resp.Stats.Cycles
		return s
	})
	w.setup, w.latLabel = setups, "requests"
	return finish(cfg, "cached", w, func() (map[string]float64, error) {
		return cachedLayers(cfg, ks, pairs, bodies, client, h)
	})
}

// cachedLayers is the traced cached run's replay: the kernels through
// build, compile and key derivation, the server's own counters, and the
// HTTP round trip of a hit against the direct engine path of the same
// request (build plus key), alternated.
func cachedLayers(cfg runConfig, ks []kernel, pairs []pair, bodies [][]byte, client *http.Client, h *httpServer) (map[string]float64, error) {
	vals := map[string]float64{}
	progs, err := kernelLayers(cfg.tr, ks, vals)
	if err != nil {
		return nil, err
	}
	cacheKeyLayer(cfg.tr, progs, vals)

	tr := cfg.tr
	root := tr.begin("bench.replay.serve", 0, 0)
	defer root.end()
	kcfg := cpu.DefaultConfig()
	var tHTTP, tDirect time.Duration
	for n := 0; n < overheadPairs; n++ {
		i := n % len(pairs)
		tHTTP += tr.call("serve.simulate", root.id, int64(n), func() {
			_, err = simulate(client, h.url, bodies[i])
		})
		if err != nil {
			return nil, err
		}
		tDirect += tr.call("engine.direct", root.id, int64(n), func() {
			var prog *isa.Program
			if prog, err = ks[pairs[i].kernel].w.Build(workloads.SizeTest); err == nil {
				engine.CacheKey(prog, pairs[i].policy, kcfg, false, false)
			}
		})
		if err != nil {
			return nil, err
		}
	}
	vals["serve.overhead_us"] = us(tHTTP-tDirect) / overheadPairs
	vals["serve.rejected"] = float64(h.srv.Stats().Rejected)
	return vals, nil
}
