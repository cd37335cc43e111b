// Package fuzz is the differential fuzzing subsystem: a seeded program
// generator over the LEV64 ISA, an oracle stack that judges every generated
// program under every registered secure-speculation policy (architectural
// differential vs the reference model, bit-exact determinism, core
// invariants under fault-injected squash storms, the gadget security oracle,
// and panic/limit capture through simerr), an auto-shrinker that minimizes
// failures to small repros, and one campaign driver that judges cases in
// fixed-size parallel rounds and, given a directory, commits its whole state
// crash-safely after every round.
package fuzz

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"levioso/internal/cpu"
	"levioso/internal/journal"
	"levioso/internal/obs"
	"levioso/internal/simerr"
)

// Campaign is the only fuzzing driver. Every case is either generated fresh
// or mutated from a corpus of programs that previously reached new machine
// behavior (Options.Blind: always fresh). Each case runs with its own
// cpu.CoverageSink; the union of the signatures of all its oracle runs is
// compared against the campaign's global coverage map, and a case that
// lights new bits joins the mutation corpus.
//
// Cases are judged in rounds of roundSize consecutive indices. A round's
// cases are scheduled in index order against the corpus as it stood when
// the round began (case i sees only entries with Index <
// roundSize·⌊i/roundSize⌋), judged on min(Workers, roundSize) goroutines,
// and merged — coverage, corpus admission, findings, repros — in index
// order, so the outcome does not depend on Workers. With a directory, the
// whole state (corpus, coverage map, finding buckets, next index) is
// rewritten atomically (journal.WriteAtomic) after every round, so a kill -9
// loses at most the in-flight round and a rerun resumes bit-identically to
// an uninterrupted run.

// CampaignStateName is the state file inside a campaign directory.
const CampaignStateName = "campaign.json"

// campaignStateVersion is the on-disk state format version.
const campaignStateVersion = 2

// roundSize is the number of consecutive case indices judged, merged and
// committed together — also the useful bound on parallel workers.
const roundSize = 8

// Progress is the running-totals snapshot handed to Options.Progress after
// every committed round (the levserve /v1/fuzz status endpoint serves these).
type Progress struct {
	Index        int `json:"index"`         // cases committed so far (absolute)
	Count        int `json:"count"`         // campaign target (0: unbounded)
	Cases        int `json:"cases"`         // cases executed this invocation
	Resumed      int `json:"resumed"`       // cases inherited from the state file
	Skipped      int `json:"skipped"`       // cases the oracles could not judge
	Execs        int `json:"execs"`         // executions this invocation (incl. shrinking)
	Mutated      int `json:"mutated"`       // cases produced by corpus mutation
	CoverageBits int `json:"coverage_bits"` // global coverage map population
	Corpus       int `json:"corpus"`        // mutation corpus size
	Findings     int `json:"findings"`      // findings recorded over the campaign's life
}

// FindingBucket aggregates campaign findings by failure class — the same
// (oracle, policy, kind) triple the shrinker preserves while minimizing.
type FindingBucket struct {
	Oracle     string   `json:"oracle"`
	Policy     string   `json:"policy,omitempty"`
	Kind       string   `json:"kind,omitempty"`
	Count      int      `json:"count"`
	FirstIndex int      `json:"first_index"`       // case index of the first observation
	Example    string   `json:"example,omitempty"` // detail string of the first observation
	Repros     []string `json:"repros,omitempty"`  // repro file names (capped)
}

// maxBucketRepros caps the repro list per bucket: the first few minimal
// repros of a failure class are diagnostic, the hundredth is disk usage.
const maxBucketRepros = 8

// CampaignSummary is one Campaign invocation's outcome.
type CampaignSummary struct {
	Cases        int // cases executed this invocation
	Resumed      int // cases inherited from the state file
	Skipped      int
	Execs        int
	Mutated      int
	CoverageBits int // global coverage map population at exit
	CorpusSize   int
	FindingCount int              // findings over the campaign's whole life
	Buckets      []*FindingBucket // sorted by class key
	Elapsed      time.Duration

	// Matrix holds this invocation's security-matrix findings (the attack
	// gadgets replayed against the documented leak expectations). They are
	// not part of the campaign state, so resume stays bit-identical.
	Matrix []Finding

	// Shrink effectiveness this invocation: total pre-/post-shrink
	// instruction counts over the shrunk repros, and oracle evaluations
	// spent shrinking.
	ShrunkFrom, ShrunkTo, ShrinkEvals int

	// GadgetLeaksUnsafe counts gadget cases whose probe recovered the secret
	// on the unprotected baseline — proof the generated gadgets actually leak.
	GadgetLeaksUnsafe int
}

// ExecsPerSec is the invocation's throughput.
func (s *CampaignSummary) ExecsPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Execs) / s.Elapsed.Seconds()
}

// ShrinkRatio is the aggregate size reduction across shrunk repros.
func (s *CampaignSummary) ShrinkRatio() float64 {
	if s.ShrunkFrom == 0 {
		return 0
	}
	return 1 - float64(s.ShrunkTo)/float64(s.ShrunkFrom)
}

// campaignState is the on-disk campaign snapshot. Everything a resumed
// invocation needs to reproduce the interrupted one's decisions is here;
// nothing else is (per-case seeds re-derive from Seed via CaseSeed).
type campaignState struct {
	Version   int                       `json:"version"`
	Seed      uint64                    `json:"seed"`
	Digest    string                    `json:"digest"` // option digest; a resume must match
	NextIndex int                       `json:"next_index"`
	Skipped   int                       `json:"skipped"`
	Execs     int                       `json:"execs"`
	Mutated   int                       `json:"mutated"`
	Coverage  string                    `json:"coverage"` // global map, base64
	Corpus    []*corpusEntry            `json:"corpus,omitempty"`
	Findings  map[string]*FindingBucket `json:"findings,omitempty"`
}

func (st *campaignState) findingCount() int {
	n := 0
	for _, b := range st.Findings {
		n += b.Count
	}
	return n
}

// optionsDigest pins every option that shapes per-case verdicts. A campaign
// directory resumed under a different digest would silently mix verdict
// streams, so Campaign refuses it. Count is deliberately excluded: raising
// it extends a finished campaign without changing any completed case.
// Workers and NoMatrix are excluded too: neither changes the state.
func optionsDigest(o Options) string {
	return fmt.Sprintf("v%d profiles=%v policies=%v maxcycles=%d refmax=%d nostorm=%t noshrink=%t shrinkbudget=%d blind=%t faults=%v",
		campaignStateVersion, o.Profiles, o.Policies, o.MaxCycles, o.RefMaxInsts,
		o.NoStorm, o.NoShrink, o.ShrinkBudget, o.Blind, o.Faults)
}

// caseResult is one judged case of a round, waiting to be merged.
type caseResult struct {
	c       *Case
	parent  int // case index of the mutation parent (-1: generated fresh)
	cov     *cpu.CoverageSink
	verdict Verdict
	shrink  *ShrinkResult
}

// Campaign runs (or resumes) the campaign in dir until Count cases are
// committed, the Duration elapses, or the context is canceled. With dir ""
// the state lives in memory only and no file is written. Interrupted rounds
// are never committed, so stopping a campaign at any point — including
// kill -9 mid-write — and rerunning the identical invocation yields a state
// file bit-identical to an uninterrupted run's. Unless NoMatrix is set, the
// security matrix is checked once per invocation before the first round.
func Campaign(ctx context.Context, dir string, opt Options) (*CampaignSummary, error) {
	if err := opt.Normalize(); err != nil {
		return nil, err
	}
	digest := optionsDigest(opt)
	st := &campaignState{Version: campaignStateVersion, Seed: opt.Seed, Digest: digest}
	statePath := ""
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("fuzz: campaign dir: %w", err)
		}
		statePath = filepath.Join(dir, CampaignStateName)
		var err error
		if st, err = loadCampaignState(statePath, opt.Seed, digest); err != nil {
			return nil, err
		}
	}
	global, err := decodeCoverage(st.Coverage)
	if err != nil {
		return nil, err
	}

	if opt.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Duration)
		defer cancel()
	}

	start := time.Now()
	met := newCampaignMetrics(ctx)
	met.covBits.Set(int64(global.Count()))
	met.corpus.Set(int64(len(st.Corpus)))

	sum := &CampaignSummary{Resumed: st.NextIndex}
	if !opt.NoMatrix {
		sum.Matrix = SecurityMatrix(opt.Policies)
		for _, f := range sum.Matrix {
			met.findings.Inc()
			logf(opt.Log, "fuzz: security-matrix: %s", f)
		}
	}

	lastSnapshot := start
	for ctx.Err() == nil && (opt.Count == 0 || st.NextIndex < opt.Count) {
		lo := st.NextIndex
		hi := (lo/roundSize + 1) * roundSize
		if opt.Count > 0 && hi > opt.Count {
			hi = opt.Count
		}
		results := judgeRound(ctx, opt, lo, hi, st.Corpus)

		// A round cut short by cancellation or the wall clock is not a
		// verdict: leave it uncommitted so the resumed campaign re-runs it
		// in full. (This is the determinism guarantee — a partially-judged
		// case must never contaminate the corpus or the coverage map.)
		if ctx.Err() != nil {
			break
		}

		for i := range results {
			r := &results[i]
			idx := lo + i
			reproName := writeRepro(dir, opt, r)

			// Coverage accounting and corpus admission. Gadget cases
			// contribute to the map but never to the mutation corpus (see
			// corpusEntry).
			fresh := newBitCount(global, r.cov)
			if fresh > 0 && r.c != nil && r.c.Profile != ProfileGadget {
				if img, merr := r.c.Prog.MarshalBinary(); merr == nil {
					st.Corpus = append(st.Corpus, &corpusEntry{
						Index: idx, Parent: r.parent, Profile: r.c.Profile,
						Binary: img, NewBits: fresh, Insts: len(r.c.Prog.Text),
					})
				}
			}
			global.Or(r.cov)

			for _, f := range r.verdict.Findings {
				key := bucketKey(f)
				b := st.Findings[key]
				if b == nil {
					b = &FindingBucket{Oracle: f.Oracle, Policy: f.Policy, Kind: f.Kind, FirstIndex: idx, Example: f.Detail}
					if st.Findings == nil {
						st.Findings = map[string]*FindingBucket{}
					}
					st.Findings[key] = b
				}
				b.Count++
				if reproName != "" && len(b.Repros) < maxBucketRepros &&
					(len(b.Repros) == 0 || b.Repros[len(b.Repros)-1] != reproName) {
					b.Repros = append(b.Repros, reproName)
				}
				logf(opt.Log, "fuzz: campaign %06d: %s", idx, f)
			}

			execs := r.verdict.Execs
			if s := r.shrink; s != nil {
				execs += s.Evals // each eval is at least one execution
				sum.ShrinkEvals += s.Evals
				if s.Reproduced && s.FinalInsts < s.OrigInsts {
					sum.ShrunkFrom += s.OrigInsts
					sum.ShrunkTo += s.FinalInsts
				}
			}
			st.Execs += execs
			sum.Cases++
			sum.Execs += execs
			if r.verdict.Skipped {
				st.Skipped++
				sum.Skipped++
			}
			if r.parent >= 0 {
				st.Mutated++
				sum.Mutated++
				met.mutated.Inc()
			}
			if r.verdict.GadgetLeakUnsafe {
				sum.GadgetLeaksUnsafe++
			}
			met.cases.Inc()
			met.execs.Add(uint64(execs))
			met.findings.Add(uint64(len(r.verdict.Findings)))
		}

		st.NextIndex = hi
		st.Coverage = encodeCoverage(global)
		if statePath != "" {
			if err := saveCampaignState(statePath, st); err != nil {
				return nil, err
			}
		}
		met.covBits.Set(int64(global.Count()))
		met.corpus.Set(int64(len(st.Corpus)))

		if opt.Progress != nil {
			opt.Progress(Progress{
				Index: st.NextIndex, Count: opt.Count,
				Cases: sum.Cases, Resumed: sum.Resumed, Skipped: sum.Skipped,
				Execs: sum.Execs, Mutated: sum.Mutated,
				CoverageBits: global.Count(), Corpus: len(st.Corpus),
				Findings: st.findingCount(),
			})
		}
		if opt.SnapshotEvery > 0 && time.Since(lastSnapshot) >= opt.SnapshotEvery {
			lastSnapshot = time.Now()
			elapsed := time.Since(start)
			logf(opt.Log, "fuzz: snapshot cases=%d execs=%d execs/s=%.0f coverage=%d corpus=%d findings=%d elapsed=%s",
				sum.Cases, sum.Execs, float64(sum.Execs)/elapsed.Seconds(),
				global.Count(), len(st.Corpus), st.findingCount(), elapsed.Round(time.Second))
		}
	}

	sum.CoverageBits = global.Count()
	sum.CorpusSize = len(st.Corpus)
	sum.FindingCount = st.findingCount()
	sum.Buckets = sortedBuckets(st.Findings)
	sum.Elapsed = time.Since(start)
	return sum, nil
}

// judgeRound schedules case indices [lo, hi) in index order against the
// corpus entries admitted before the round's aligned start — choosing and
// building mutants is cheap next to judging, and doing it in order keeps
// the parents' pick counts exactly as a sequential run leaves them — then
// generates the fresh cases and judges all of them on min(Workers, hi-lo)
// goroutines. The corpus is not touched while they run.
func judgeRound(ctx context.Context, opt Options, lo, hi int, corpus []*corpusEntry) []caseResult {
	base := lo / roundSize * roundSize
	n := sort.Search(len(corpus), func(k int) bool { return corpus[k].Index >= base })
	visible := corpus[:n:n]

	results := make([]caseResult, hi-lo)
	// Gadget cases (a long probe loop) start first, so the round does not
	// wait on one that a worker picked up last.
	var order, rest []int
	for i := range results {
		r := &results[i]
		r.parent, r.cov = -1, new(cpu.CoverageSink)
		isolate(&r.verdict, func() { r.c, r.parent = scheduleCase(opt, lo+i, visible) })
		if r.c == nil && freshProfile(opt, lo+i) == ProfileGadget {
			order = append(order, i)
		} else {
			rest = append(rest, i)
		}
	}
	order = append(order, rest...)

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(opt.Workers, len(order)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(order) || ctx.Err() != nil {
					return
				}
				// A case whose scheduling panicked already has its verdict.
				if r := &results[order[k]]; len(r.verdict.Findings) == 0 {
					isolate(&r.verdict, func() { r.judge(ctx, opt, lo+order[k]) })
				}
			}
		}()
	}
	wg.Wait()
	return results
}

// judge generates the case if it is fresh, runs the oracle stack over it,
// and shrinks the first finding when configured. The shrinker runs without
// the coverage sink: the case's signature reflects its judging runs, not
// however many shrink candidates happened to execute.
func (r *caseResult) judge(ctx context.Context, opt Options, idx int) {
	if r.c == nil {
		c, err := freshCase(opt, idx)
		if err != nil {
			r.verdict.add(Finding{Oracle: OracleGenerator, Kind: "generate", Detail: err.Error()})
			return
		}
		r.c = c
	}
	copt := opt
	copt.Coverage = r.cov
	r.verdict = RunOracles(ctx, r.c, copt)
	if r.parent >= 0 {
		mutantFindings(&r.verdict)
	}
	if len(r.verdict.Findings) == 0 || opt.NoShrink || ctx.Err() != nil {
		return
	}
	res := Shrink(ctx, r.c, r.verdict.Findings[0], opt)
	r.shrink = &res
}

// isolate runs f, turning a panic into an OraclePanic finding on v — the
// driver's one recovery site, so a panic costs one case, never the campaign.
func isolate(v *Verdict, f func()) {
	defer func() {
		if p := recover(); p != nil {
			v.add(Finding{Oracle: OraclePanic, Kind: "campaign",
				Detail: fmt.Sprintf("%v\n%s", p, debug.Stack())})
		}
	}()
	f()
}

// writeRepro persists the (shrunk) repro of a case with findings into dir
// and returns its file name ("" when there is nothing to write, no
// directory, or the write failed).
func writeRepro(dir string, opt Options, r *caseResult) string {
	if dir == "" || len(r.verdict.Findings) == 0 || r.c == nil {
		return ""
	}
	final, findings, orig := r.c, r.verdict.Findings, 0
	if r.shrink != nil {
		final, findings, orig = r.shrink.Case, r.shrink.Findings, r.shrink.OrigInsts
	}
	rep, err := NewRepro(final, opt.Policies, findings, orig)
	if err != nil {
		return ""
	}
	if _, err := rep.Write(dir); err != nil {
		logf(opt.Log, "fuzz: %s: repro write failed: %v", rep.Name, err)
		return ""
	}
	return rep.FileName()
}

// mutantFindings drops generator-oracle findings from a mutated case's
// verdict. The generator's architectural-cleanliness contract covers
// generated programs; a mutant that faults on the reference model is an
// uninteresting input to discard (as a skip), not a simulator bug to report.
func mutantFindings(v *Verdict) {
	kept := v.Findings[:0]
	dropped := false
	for _, f := range v.Findings {
		if f.Oracle == OracleGenerator {
			dropped = true
			continue
		}
		kept = append(kept, f)
	}
	v.Findings = kept
	if dropped && len(kept) == 0 {
		v.Skipped, v.SkipReason = true, "mutant faulted on reference"
	}
}

// sortedBuckets lists the finding buckets in class-key order.
func sortedBuckets(m map[string]*FindingBucket) []*FindingBucket {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*FindingBucket, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

// LoadFindings reads the finding buckets out of a campaign directory's state
// file without touching anything else — the levserve findings endpoint
// serves these while the campaign is still running (the state file is
// rewritten atomically, so a concurrent read always sees a complete
// snapshot). A directory with no state file yet yields no buckets.
func LoadFindings(dir string) ([]*FindingBucket, error) {
	b, err := os.ReadFile(filepath.Join(dir, CampaignStateName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("fuzz: campaign state: %w", err)
	}
	st := new(campaignState)
	if err := json.Unmarshal(b, st); err != nil {
		return nil, &simerr.RunError{Kind: simerr.KindBuild, Detail: "campaign state", Err: err}
	}
	return sortedBuckets(st.Findings), nil
}

func loadCampaignState(path string, seed uint64, digest string) (*campaignState, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &campaignState{Version: campaignStateVersion, Seed: seed, Digest: digest}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("fuzz: campaign state: %w", err)
	}
	st := new(campaignState)
	if err := json.Unmarshal(b, st); err != nil {
		return nil, &simerr.RunError{Kind: simerr.KindBuild, Detail: "campaign state " + path, Err: err}
	}
	if st.Version != campaignStateVersion {
		return nil, simerr.New(simerr.KindBuild, "fuzz: campaign state %s: version %d, want %d", path, st.Version, campaignStateVersion)
	}
	if st.Seed != seed {
		return nil, simerr.New(simerr.KindBuild, "fuzz: campaign state %s: seed %#x, resumed with %#x", path, st.Seed, seed)
	}
	if st.Digest != digest {
		return nil, simerr.New(simerr.KindBuild, "fuzz: campaign state %s: options changed since the campaign started (state %q, now %q)", path, st.Digest, digest)
	}
	return st, nil
}

// saveCampaignState rewrites the state file atomically (temp file, fsync,
// rename): a crash at any instant leaves either the previous complete state
// or the new one, never a torn file.
func saveCampaignState(path string, st *campaignState) error {
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return fmt.Errorf("fuzz: encode campaign state: %w", err)
	}
	return journal.WriteAtomic(path, append(b, '\n'))
}

// campaignMetrics is the campaign's obs instrument set. The registry comes
// from ctx (levfuzz uses the process default; levserve and tests pass their
// own via obs.WithRegistry).
type campaignMetrics struct {
	cases    *obs.Counter
	execs    *obs.Counter
	mutated  *obs.Counter
	findings *obs.Counter
	covBits  *obs.Gauge
	corpus   *obs.Gauge
}

func newCampaignMetrics(ctx context.Context) *campaignMetrics {
	reg := obs.FromContext(ctx)
	return &campaignMetrics{
		cases:    reg.Counter("fuzz_campaign_cases_total", "campaign cases committed"),
		execs:    reg.Counter("fuzz_campaign_execs_total", "campaign executions, including shrinking"),
		mutated:  reg.Counter("fuzz_campaign_mutated_total", "campaign cases produced by corpus mutation"),
		findings: reg.Counter("fuzz_campaign_findings_total", "campaign findings recorded, including the security matrix's"),
		covBits:  reg.Gauge("fuzz_campaign_coverage_bits", "global coverage map population"),
		corpus:   reg.Gauge("fuzz_campaign_corpus_size", "mutation corpus size"),
	}
}

func logf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}
