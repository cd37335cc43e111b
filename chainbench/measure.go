package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one completed operation of a measurement window.
type sample struct {
	seq       int // operation number (see closedLoop)
	input     int // which of the workload's recurring inputs the operation ran
	lat       time.Duration
	units     int64   // attempted units of work: cells or requests
	failed    int64   // units whose output check failed
	work      float64 // throughput numerator: committed insts, requests or cells
	committed uint64  // simulated instructions over the checked results
	cycles    uint64  // simulated cycles over the checked results
}

// closedLoop runs op from clients goroutines, each sending its next
// operation only after the previous one completed, until d has elapsed and
// the operations started make whole passes of pass operations (pass > 1
// needs a single client). The seq argument numbers operations in the order
// they start, so the i-th operation always gets the i-th input whatever the
// timing. It returns every sample and the wall time until the last
// operation finished.
func closedLoop(clients int, d time.Duration, pass int, op func(seq int) sample) ([]sample, time.Duration) {
	var (
		mu      sync.Mutex
		samples []sample
		next    atomic.Int64
		wg      sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d || next.Load()%int64(pass) != 0 {
				seq := int(next.Add(1) - 1)
				s := op(seq)
				s.seq = seq
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

// rssSampler reads the process's resident set every interval until stopped.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	mb   []float64
}

// rssInterval spaces the resident-set samples: 20 Hz gives a few hundred
// samples per window without the reads showing up in a profile.
const rssInterval = 50 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			if mb, err := residentMB(); err == nil {
				s.mb = append(s.mb, mb)
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// median stops the sampler and returns the median resident set in MiB.
func (s *rssSampler) median() float64 {
	close(s.stop)
	<-s.done
	return quantile(s.mb, 0.5)
}

// residentMB reads the resident set size from /proc/self/statm.
func residentMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0, fmt.Errorf("statm: %q", b)
	}
	pages, err := strconv.ParseUint(string(f[1]), 10, 64)
	if err != nil {
		return 0, err
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20), nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified). Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// medianDuration is the median of ds in seconds.
func medianDuration(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return quantile(xs, 0.5)
}

// tailPerMille are the candidate tail percentiles in thousandths, highest
// first (integers, so the ten-beyond test is exact).
var tailPerMille = []int{999, 990, 950, 900}

// tailPercentile picks the highest candidate percentile that has at least
// ten samples beyond it among n; ok is false when none has.
func tailPercentile(n int) (q float64, ok bool) {
	for _, pm := range tailPerMille {
		if n*(1000-pm) >= 10*1000 {
			return float64(pm) / 1000, true
		}
	}
	return 0, false
}

// setUp runs start n times, stopping each result but the last (stop may be
// nil), and returns the last with every start's duration: set-up is timed
// several times per run so that setup_s can be their median.
func setUp[T any](n int, start func() (T, error), stop func(T) error) (T, []time.Duration, error) {
	var (
		last T
		ds   []time.Duration
	)
	for i := 0; i < n; i++ {
		if i > 0 && stop != nil {
			if err := stop(last); err != nil {
				return last, nil, err
			}
		}
		t := time.Now()
		v, err := start()
		if err != nil {
			return last, nil, err
		}
		last = v
		ds = append(ds, time.Since(t))
	}
	return last, ds, nil
}

// window is one measured window with the process counters around it.
type window struct {
	samples  []sample
	wall     time.Duration
	before   runtime.MemStats
	after    runtime.MemStats
	rssMB    float64
	setup    []time.Duration
	clients  int    // closed-loop clients that ran the window
	pass     int    // operations per reported operation (sweep: kernels per pass)
	latLabel string // what one latency sample is, for the report
}

// measure runs a closed loop of clients for d, in whole passes of pass
// operations, with the process counters and resident-set sampler around it.
func measure(clients int, d time.Duration, pass int, op func(seq int) sample) *window {
	w := &window{clients: clients, pass: pass}
	runtime.GC()
	rss := startRSS()
	runtime.ReadMemStats(&w.before)
	w.samples, w.wall = closedLoop(clients, d, pass, op)
	runtime.ReadMemStats(&w.after)
	w.rssMB = rss.median()
	return w
}

// totals sums the window's samples.
func (w *window) totals() (units, failed int64, committed, cycles uint64) {
	for _, s := range w.samples {
		units += s.units
		failed += s.failed
		committed += s.committed
		cycles += s.cycles
	}
	return
}

// fail marks n more units of operation seq failed, after the window: the
// operation's results leave the simulated totals.
func (w *window) fail(seq int, n int64) {
	for i := range w.samples {
		if s := &w.samples[i]; s.seq == seq {
			s.failed += n
			s.committed, s.cycles = 0, 0
		}
	}
}

// latenciesMS returns the samples' latencies in milliseconds.
func (w *window) latenciesMS() []float64 {
	lats := make([]float64, len(w.samples))
	for i, s := range w.samples {
		lats[i] = float64(s.lat) / float64(time.Millisecond)
	}
	return lats
}

// quietQuantile is the per-input latency quantile that latency_p5_ms and
// throughput_per_s rest on. The host is a shared VM whose speed drops by a
// third or more for seconds at a time as its neighbours load it; the mean
// and the median of a window move with how much of the window such spells
// covered, while the fast twentieth of an input's latencies moves least.
// Across runs, the 5th percentile spread less than the 10th in seven of
// nine comparisons and at most half a point more in the other two; lower
// quantiles of the batch latencies, whose programs are all different,
// follow the seed's cheapest programs (see README.md, "Host drift and
// steadiness").
const quietQuantile = 0.05

// quiet returns the latency of one reported operation at quietQuantile and
// the throughput that latency gives the window's closed loop. Inputs are
// timed apart, because they differ in cost: each input's latencies give its
// own quantile, and the mean over inputs, times the operations in a
// reported one, is the reported latency. Throughput is the clients' mean
// work per operation over that latency (Little's law for a closed loop).
func (w *window) quiet() (latMS, perSecond float64) {
	lats := map[int][]float64{}
	work := map[int]float64{}
	for _, s := range w.samples {
		lats[s.input] = append(lats[s.input], float64(s.lat)/float64(time.Millisecond))
		work[s.input] += s.work
	}
	var q, wk float64
	for in, ls := range lats {
		q += quantile(ls, quietQuantile)
		wk += work[in] / float64(len(ls))
	}
	if q == 0 {
		return 0, 0
	}
	return q / float64(len(lats)) * float64(w.pass), float64(w.clients) * wk / q * 1000
}

// endToEnd derives the eight end-to-end metrics from the window.
func (w *window) endToEnd() map[string]float64 {
	units, failed, committed, cycles := w.totals()
	latMS, perSecond := w.quiet()
	v := map[string]float64{
		"setup_s":          medianDuration(w.setup),
		"throughput_per_s": perSecond,
		"latency_p5_ms":    latMS,
		"rss_median_mb":    w.rssMB,
	}
	if units > 0 {
		v["ok_frac"] = 1 - float64(failed)/float64(units)
		v["allocs_per_op"] = float64(w.after.Mallocs-w.before.Mallocs) / float64(units)
		v["alloc_kb_per_op"] = float64(w.after.TotalAlloc-w.before.TotalAlloc) / 1024 / float64(units)
	}
	if cycles > 0 {
		v["sim_ipc"] = float64(committed) / float64(cycles)
	}
	return v
}

// report prints the human-readable run summary: sample counts, the median
// and the highest percentile with at least ten samples beyond it.
func (w *window) report(out io.Writer, workload string) {
	lats := w.latenciesMS()
	units, failed, _, _ := w.totals()
	fmt.Fprintf(out, "%s: %d %s in %.2fs (%d units, %d failed); setup median %.3fs over %d\n",
		workload, len(lats), w.latLabel, w.wall.Seconds(), units, failed, medianDuration(w.setup), len(w.setup))
	latMS, perSecond := w.quiet()
	fmt.Fprintf(out, "  per input p5: %.3f ms per reported operation, %.4g/s\n", latMS, perSecond)
	fmt.Fprintf(out, "  latency p50 %.3f ms (n=%d)", quantile(lats, 0.5), len(lats))
	if q, ok := tailPercentile(len(lats)); ok {
		fmt.Fprintf(out, ", p%g %.3f ms (%d samples beyond)",
			q*100, quantile(lats, q), len(lats)-int(math.Round(q*float64(len(lats)))))
	} else {
		fmt.Fprintf(out, ", no tail percentile (fewer than 10 samples beyond p90)")
	}
	fmt.Fprintln(out)
}
