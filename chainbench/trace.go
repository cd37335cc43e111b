package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanRecord is one closed span: a public call the benchmark made into a
// layer. The layer is the name's prefix before the first dot.
type spanRecord struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 = root
	Req    int64  `json:"req"`    // spans of one operation share it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []spanRecord
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span is an open span; end closes it.
type span struct {
	tr     *tracer
	id     int64
	parent int64
	req    int64
	name   string
	start  time.Time
}

// begin opens a span named name under parent (0 for a root) in request req.
func (t *tracer) begin(name string, parent, req int64) span {
	if t == nil {
		return span{}
	}
	return span{tr: t, id: t.ids.Add(1), parent: parent, req: req, name: name, start: time.Now()}
}

// end closes the span and keeps it.
func (s span) end() {
	if s.tr == nil {
		return
	}
	rec := spanRecord{
		ID: s.id, Parent: s.parent, Req: s.req, Name: s.name,
		Start: int64(s.start.Sub(s.tr.t0)), End: int64(time.Since(s.tr.t0)),
	}
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, rec)
	s.tr.mu.Unlock()
}

// call runs f inside a span and returns f's duration.
func (t *tracer) call(name string, parent, req int64, f func()) time.Duration {
	sp := t.begin(name, parent, req)
	start := time.Now()
	f()
	d := time.Since(start)
	sp.end()
	return d
}

// count returns the number of closed spans.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// spanCost measures what recording one span costs, by recording n spans on
// a tracer of its own.
func spanCost(n int) time.Duration {
	t := newTracer()
	t.spans = make([]spanRecord, 0, 1024)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.begin("trace.cost", 0, int64(i)).end()
	}
	return time.Since(start) / time.Duration(n)
}

// layerOf maps a span name to its layer.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns every span's duration minus the part of its interval
// covered by its children.
func selfTimes(spans []spanRecord) map[int64]int64 {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
	return self
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < cur {
			a = cur
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// waterfall prints self time per layer, largest first.
func (t *tracer) waterfall(out io.Writer) {
	t.mu.Lock()
	spans := append([]spanRecord(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	type row struct {
		layer       string
		n           int
		total, self int64
	}
	rows := map[string]*row{}
	var all int64
	for _, s := range spans {
		l := layerOf(s.Name)
		r := rows[l]
		if r == nil {
			r = &row{layer: l}
			rows[l] = r
		}
		r.n++
		r.total += s.End - s.Start
		r.self += self[s.ID]
		all += self[s.ID]
	}
	list := make([]*row, 0, len(rows))
	for _, r := range rows {
		list = append(list, r)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].self > list[j].self })
	fmt.Fprintf(out, "self-time waterfall (%d spans)\n", len(spans))
	fmt.Fprintf(out, "  %-10s %8s %12s %12s %7s\n", "layer", "spans", "total ms", "self ms", "self %")
	for _, r := range list {
		share := 0.0
		if all > 0 {
			share = 100 * float64(r.self) / float64(all)
		}
		fmt.Fprintf(out, "  %-10s %8d %12.2f %12.2f %6.1f%%\n",
			r.layer, r.n, float64(r.total)/1e6, float64(r.self)/1e6, share)
	}
}

// writeFile writes the spans as JSON lines under .bench_build/ and returns
// the path.
func (t *tracer) writeFile(workload string, seed uint64) (string, error) {
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
