package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"levioso/internal/dispatch"
	"levioso/internal/engine"
	"levioso/internal/harness"
	"levioso/internal/workloads"
)

func TestGeneratorsDeterministic(t *testing.T) {
	if a, b := batchSource(7, 3), batchSource(7, 3); a != b {
		t.Fatal("batchSource is not deterministic")
	}
	if batchSource(7, 3) == batchSource(7, 4) || batchSource(7, 3) == batchSource(8, 3) {
		t.Fatal("batchSource repeats a program across indices or seeds")
	}
	if !bytes.Equal(batchBody(batchSource(7, 3)), batchBody(batchSource(7, 3))) {
		t.Fatal("batchBody is not deterministic")
	}
	const n = 84
	a, b := cachedOrder(11, n), cachedOrder(11, n)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("cachedOrder is not deterministic")
	}
	if reflect.DeepEqual(a, cachedOrder(12, n)) {
		t.Fatal("cachedOrder ignores the seed")
	}
	// Balanced: every round is a permutation of the pairs.
	for r := 0; r < cachedRounds; r++ {
		seen := make([]bool, n)
		for _, i := range a[r*n : (r+1)*n] {
			if seen[i] {
				t.Fatalf("round %d repeats pair %d", r, i)
			}
			seen[i] = true
		}
	}
}

func TestSweepCheckCatchesPlantedWrongAnswers(t *testing.T) {
	w := workloads.All()[0]
	spec := sweepSpec()
	spec.Workloads = []workloads.Workload{w}
	spec.Policies = spec.Policies[:2]
	res, err := harness.Supervise(nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	ks, err := buildKernels()
	if err != nil {
		t.Fatal(err)
	}
	newCheck := func() *sweepCheck {
		return &sweepCheck{exits: map[string]uint64{w.Name: ks[0].want.ExitCode}, cells: len(spec.Policies)}
	}
	good := newCheck()
	if failed, _, _ := good.check(res, nil); failed != 0 {
		t.Fatalf("clean pass: %d failed cells", failed)
	}
	if failed, _, _ := good.check(res, nil); failed != 0 {
		t.Fatalf("repeated pass: %d failed cells", failed)
	}

	bad := newCheck()
	bad.exits[w.Name]++ // corrupted reference exit code
	if failed, _, _ := bad.check(res, nil); failed != int64(len(spec.Policies)) {
		t.Fatalf("corrupted reference: %d failed cells, want %d", failed, len(spec.Policies))
	}

	drift := *res
	drift.Runs = append([]harness.Run(nil), res.Runs...)
	drift.Runs[1].Stats.Cycles++ // a later pass whose statistics moved
	if failed, _, _ := good.check(&drift, nil); failed != 1 {
		t.Fatalf("moved statistics: %d failed cells, want 1", failed)
	}

	short := *res
	short.Runs = res.Runs[:1] // a cell the supervisor never returned
	if failed, _, _ := newCheck().check(&short, nil); failed != 1 {
		t.Fatalf("missing cell: %d failed cells, want 1", failed)
	}
}

func TestCachedCheckCatchesPlantedWrongAnswers(t *testing.T) {
	ks, err := buildKernels()
	if err != nil {
		t.Fatal(err)
	}
	ks = ks[:1]
	pairs := cachedPairs(len(ks))[:2]
	bodies := [][]byte{simBody(ks, pairs[0]), simBody(ks, pairs[1])}
	client := newClient()
	defer client.CloseIdleConnections()
	cs, err := startCached(client, ks, pairs, bodies)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.h.close()
	h, warm := cs.h, cs.warm
	resp, err := simulate(client, h.url, bodies[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := checkHit(resp, ks[0], warm[1]); err != nil {
		t.Fatalf("clean hit: %v", err)
	}
	k := ks[0]
	k.want.ExitCode++ // corrupted reference exit code
	if checkHit(resp, k, warm[1]) == nil {
		t.Fatal("corrupted reference passed the check")
	}
	if checkHit(resp, ks[0], warm[0]) == nil {
		t.Fatal("statistics of another policy passed the check")
	}
	miss := resp
	miss.Cached = false
	if checkHit(miss, ks[0], warm[1]) == nil {
		t.Fatal("an uncached reply passed the check")
	}
}

func TestBatchCheckCatchesPlantedWrongAnswers(t *testing.T) {
	b, err := startBatchServer(dispatch.ListenOptions{}, batchConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	client := newClient()
	defer client.CloseIdleConnections()
	src := batchSource(1, 0)
	reply, err := post(client, b.h.url+"/v1/batch", batchBody(src))
	if err != nil {
		t.Fatal(err)
	}
	ncells := len(engine.EvalPolicies())
	cells, err := parseBatch(reply, ncells)
	if err != nil {
		t.Fatalf("clean reply: %v", err)
	}
	if n := verifyProgram(nil, 0, src, cells); n != 0 {
		t.Fatalf("clean reply: %d failed cells", n)
	}
	bad := append([]cellResult(nil), cells...)
	bad[3].exit++ // one wrong exit code
	if n := verifyProgram(nil, 0, src, bad); n != 1 {
		t.Fatalf("wrong exit code: %d failed cells, want 1", n)
	}
	bad = append([]cellResult(nil), cells...)
	bad[5].stats.Committed++ // statistics unlike a direct simulation
	if n := verifyProgram(nil, 0, src, bad); n != 1 {
		t.Fatalf("wrong statistics: %d failed cells, want 1", n)
	}
	lines := strings.SplitAfter(string(reply), "\n")
	truncated := strings.Join(lines[1:], "") // one cell line lost
	if _, err := parseBatch([]byte(truncated), ncells); err == nil {
		t.Fatal("a reply missing a cell passed the check")
	}
	noTrailer := strings.Join(lines[:ncells], "")
	if _, err := parseBatch([]byte(noTrailer), ncells); err == nil {
		t.Fatal("a reply without its trailer passed the check")
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false}, {99, 0, false}, {100, 0.9, true}, {199, 0.9, true},
		{200, 0.95, true}, {1000, 0.99, true}, {10000, 0.999, true},
	} {
		q, ok := tailPercentile(tc.n)
		if ok != tc.ok || q != tc.want {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", tc.n, q, ok, tc.want, tc.ok)
		}
		if ok && tc.n-int(q*float64(tc.n)+0.5) < 10 {
			t.Errorf("n=%d: p%g has fewer than ten samples beyond it", tc.n, q*100)
		}
	}
	w := &window{latLabel: "passes", samples: make([]sample, 12)}
	var out strings.Builder
	w.report(&out, "sweep")
	if !strings.Contains(out.String(), "no tail percentile") {
		t.Fatalf("tail percentile printed from 12 samples:\n%s", out.String())
	}
	w.samples = make([]sample, 100)
	out.Reset()
	w.report(&out, "sweep")
	if !strings.Contains(out.String(), "p90") {
		t.Fatalf("no p90 printed from 100 samples:\n%s", out.String())
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, defs []metricDef, want []struct{ Name, Unit string }) {
		t.Helper()
		got, _ := render(defs, nil)
		if len(got) != len(want) {
			t.Fatalf("%s: printed %d metrics, BENCHMARK.json has %d", what, len(got), len(want))
		}
		for _, m := range want {
			if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
				t.Errorf("%s: %s printed as %+v, BENCHMARK.json says unit %q", what, m.Name, g, m.Unit)
			}
		}
	}
	same("end_to_end", endToEnd, bj.EndToEnd)
	same("per_layer", perLayer, bj.PerLayer)

	// Every end-to-end value a window derives has a printed name.
	w := &window{setup: []time.Duration{time.Second}, wall: time.Second,
		samples: []sample{{lat: time.Millisecond, units: 1, work: 1, committed: 2, cycles: 1}}}
	if _, err := render(endToEnd, w.endToEnd()); err != nil {
		t.Error(err)
	}
	if len(bj.Workloads) != len(workloadTable) {
		t.Fatalf("BENCHMARK.json has %d workloads, chainbench %d", len(bj.Workloads), len(workloadTable))
	}
	for i, wl := range bj.Workloads {
		if wl.Name != workloadTable[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, chainbench %q", i, wl.Name, workloadTable[i].name)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []spanRecord{
		{ID: 1, Name: "serve.batch", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "engine.Compile", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "engine.Simulate", Start: 20, End: 50},   // overlaps its sibling
		{ID: 4, Parent: 1, Name: "dispatch.Execute", Start: 90, End: 120}, // runs past its parent
	}
	self := selfTimes(spans)
	if self[1] != 50 {
		t.Fatalf("parent self time %d, want 100 - (10..50) - (90..100) = 50", self[1])
	}
	if self[3] != 30 {
		t.Fatalf("leaf self time %d, want its duration 30", self[3])
	}
}

func TestQuietTimesEachInputApart(t *testing.T) {
	ms := func(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }
	// Two inputs of a two-operation pass, each with one slow spell: the
	// 5th percentile of input 0 is 11 ms and of input 1 30 ms.
	w := &window{clients: 1, pass: 2}
	for i := 0; i < 21; i++ {
		lat0, lat1 := 10.0+float64(i), 30.0
		if i == 20 {
			lat0, lat1 = 100, 300
		}
		w.samples = append(w.samples,
			sample{input: 0, lat: ms(lat0), work: 4},
			sample{input: 1, lat: ms(lat1), work: 8})
	}
	latMS, perSecond := w.quiet()
	if d := latMS - 41; d < -1e-9 || d > 1e-9 { // 11 + 30
		t.Errorf("pass latency %g ms, want 41", latMS)
	}
	if d := perSecond - 12.0/41*1000; d < -1e-6 || d > 1e-6 {
		t.Errorf("throughput %g/s, want %g", perSecond, 12.0/41*1000)
	}
	w.clients, w.pass = 2, 1 // the same samples as two clients' requests
	if latMS, perSecond = w.quiet(); latMS != 20.5 || perSecond != 2*6/20.5*1000 {
		t.Errorf("request latency %g ms and %g/s, want 20.5 and %g", latMS, perSecond, 2*6/20.5*1000)
	}
}
