package fuzz

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"levioso/internal/faultinject"
	"levioso/internal/simerr"
)

// campaignTestOptions is the small, fast configuration the campaign tests
// share: one policy, no storm stage, no gadget profile (its probe loop costs
// 20M cycles per run).
func campaignTestOptions() Options {
	return Options{
		Seed:     7,
		Count:    12,
		Profiles: []Profile{ProfileStoreLoad, ProfileBranchStorm},
		Policies: []string{"unsafe"},
		NoStorm:  true,
		NoShrink: true,
	}
}

func readState(t *testing.T, dir string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, CampaignStateName))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The determinism guarantee: a campaign canceled mid-run and resumed yields
// a state file bit-identical to an uninterrupted run's — same corpus, same
// coverage map, same finding buckets, same counters.
func TestCampaignResumeDeterminism(t *testing.T) {
	opt := campaignTestOptions()

	full := t.TempDir()
	sumA, err := Campaign(context.Background(), full, opt)
	if err != nil {
		t.Fatal(err)
	}
	if sumA.Cases != opt.Count || sumA.Resumed != 0 {
		t.Fatalf("uninterrupted: cases=%d resumed=%d", sumA.Cases, sumA.Resumed)
	}

	// Interrupt after the first committed round, then resume.
	split := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	iopt := opt
	iopt.Progress = func(p Progress) { cancel() }
	if _, err := Campaign(ctx, split, iopt); err != nil {
		t.Fatal(err)
	}
	sumB, err := Campaign(context.Background(), split, opt)
	if err != nil {
		t.Fatal(err)
	}
	if sumB.Resumed != roundSize || sumB.Cases != opt.Count-roundSize {
		t.Errorf("resumed run: cases=%d resumed=%d, want %d/%d", sumB.Cases, sumB.Resumed, opt.Count-roundSize, roundSize)
	}

	if a, b := readState(t, full), readState(t, split); string(a) != string(b) {
		t.Errorf("resumed state diverged from uninterrupted state:\n--- uninterrupted ---\n%s\n--- resumed ---\n%s", a, b)
	}
	if sumA.CoverageBits != sumB.CoverageBits || sumA.CorpusSize != sumB.CorpusSize {
		t.Errorf("coverage %d/%d, corpus %d/%d across resume",
			sumA.CoverageBits, sumB.CoverageBits, sumA.CorpusSize, sumB.CorpusSize)
	}
}

// A resumed campaign must refuse a changed configuration instead of silently
// mixing verdict streams.
func TestCampaignRejectsChangedOptions(t *testing.T) {
	opt := campaignTestOptions()
	opt.Count = 2
	dir := t.TempDir()
	if _, err := Campaign(context.Background(), dir, opt); err != nil {
		t.Fatal(err)
	}

	changed := opt
	changed.Policies = []string{"fence"}
	if _, err := Campaign(context.Background(), dir, changed); simerr.KindOf(err) != simerr.KindBuild {
		t.Errorf("changed policies accepted: %v", err)
	}
	reseeded := opt
	reseeded.Seed = 99
	if _, err := Campaign(context.Background(), dir, reseeded); simerr.KindOf(err) != simerr.KindBuild {
		t.Errorf("changed seed accepted: %v", err)
	}
	// Raising Count extends the campaign; it must NOT be rejected.
	extended := opt
	extended.Count = 4
	sum, err := Campaign(context.Background(), dir, extended)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Resumed != 2 || sum.Cases != 2 {
		t.Errorf("extension: cases=%d resumed=%d, want 2/2", sum.Cases, sum.Resumed)
	}
}

// TestCampaignKillResumeHelper is the subprocess body of
// TestCampaignKillResume: it runs the shared campaign in the directory named
// by the environment and is killed (SIGKILL) by the parent mid-run.
func TestCampaignKillResumeHelper(t *testing.T) {
	dir := os.Getenv("LEVFUZZ_CAMPAIGN_DIR")
	if dir == "" {
		t.Skip("subprocess helper: run by TestCampaignKillResume")
	}
	opt := campaignTestOptions()
	opt.Count = 24
	if _, err := Campaign(context.Background(), dir, opt); err != nil {
		t.Fatal(err)
	}
}

// Crash-safety under a real kill -9: the state file is rewritten atomically
// after every round, so a SIGKILL at an arbitrary instant loses at most the
// in-flight round. The resumed campaign re-executes nothing committed and
// converges to the exact state an uninterrupted run produces.
func TestCampaignKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a subprocess campaign")
	}
	opt := campaignTestOptions()
	opt.Count = 24

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "TestCampaignKillResumeHelper")
	cmd.Env = append(os.Environ(), "LEVFUZZ_CAMPAIGN_DIR="+dir)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Wait for at least one committed round, then kill -9.
	statePath := filepath.Join(dir, CampaignStateName)
	deadline := time.Now().Add(60 * time.Second)
	killedAt := -1
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(statePath); err == nil {
			var st struct {
				NextIndex int `json:"next_index"`
			}
			if json.Unmarshal(b, &st) == nil && st.NextIndex >= roundSize {
				killedAt = st.NextIndex
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if killedAt < 0 {
		t.Fatal("subprocess campaign made no progress")
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	sum, err := Campaign(context.Background(), dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	// No committed case re-executes: everything the subprocess persisted is
	// resumed, only the remainder runs. (The subprocess may have committed
	// more cases after our last poll, so >= killedAt.)
	if sum.Resumed < killedAt {
		t.Errorf("resumed %d cases, subprocess had committed >= %d", sum.Resumed, killedAt)
	}
	if sum.Resumed+sum.Cases != opt.Count {
		t.Errorf("resumed %d + executed %d != count %d", sum.Resumed, sum.Cases, opt.Count)
	}

	// And the converged state matches an uninterrupted run bit for bit.
	ref := t.TempDir()
	if _, err := Campaign(context.Background(), ref, opt); err != nil {
		t.Fatal(err)
	}
	if a, b := readState(t, ref), readState(t, dir); string(a) != string(b) {
		t.Error("post-kill state diverged from uninterrupted state")
	}
}

// Rounds make the campaign independent of its worker count: the same seed
// and a Count that ends in a partial round give byte-identical state files
// on 1, 2 and 4 workers — and so does reaching that Count by extending a
// campaign that stopped on a partial round (12, then 20).
func TestCampaignWorkersInvariant(t *testing.T) {
	opt := campaignTestOptions()
	opt.Count = 20
	// firstCount > 0: run to that count first, then extend to opt.Count.
	runs := []struct{ workers, firstCount int }{{1, 0}, {2, 0}, {4, 0}, {2, 12}}
	var want []byte
	for _, run := range runs {
		if opt.Count%roundSize == 0 || run.firstCount%roundSize == 0 && run.firstCount > 0 {
			t.Fatalf("counts %d and %d must end in partial rounds", opt.Count, run.firstCount)
		}
		dir := t.TempDir()
		wopt := opt
		wopt.Workers = run.workers
		if run.firstCount > 0 {
			first := wopt
			first.Count = run.firstCount
			if _, err := Campaign(context.Background(), dir, first); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := Campaign(context.Background(), dir, wopt); err != nil {
			t.Fatal(err)
		}
		got := readState(t, dir)
		if want == nil {
			want = got
		} else if string(got) != string(want) {
			t.Errorf("workers=%d, first count %d: state diverged from workers=1", run.workers, run.firstCount)
		}
	}
}

// A campaign resumed with a raised Count inherits every committed case and
// executes only the new ones (the resume path levfuzz -campaign and the
// levserve re-POST share).
func TestCampaignResumeSkipsCompleted(t *testing.T) {
	dir := t.TempDir()
	opt := campaignTestOptions()
	opt.Seed = 1
	opt.Count = 3
	opt.Workers = 2
	first, err := Campaign(context.Background(), dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cases != 3 || first.Resumed != 0 {
		t.Fatalf("first invocation: cases=%d resumed=%d", first.Cases, first.Resumed)
	}

	opt.Count = 6
	second, err := Campaign(context.Background(), dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if second.Resumed != 3 || second.Cases != 3 {
		t.Errorf("second invocation: cases=%d resumed=%d, want 3/3", second.Cases, second.Resumed)
	}
	if second.FindingCount < first.FindingCount {
		t.Errorf("resume lost findings: %d -> %d", first.FindingCount, second.FindingCount)
	}
}

// Without a directory the campaign keeps its state in memory: even with
// findings to persist (a planted commit stall) it creates no file, neither a
// state file nor a repro, in the working directory or anywhere else it
// could resolve a relative path against.
func TestCampaignInMemoryWritesNothing(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	if err := os.Chdir(tmp); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })

	opt := campaignTestOptions()
	opt.Count = 3
	opt.Profiles = []Profile{ProfileBranchStorm}
	opt.NoShrink = false
	opt.ShrinkBudget = 20
	opt.Faults = &faultinject.Plan{Seed: 1, Faults: []faultinject.Fault{
		{Kind: faultinject.CommitStall, Start: 100},
	}}
	sum, err := Campaign(context.Background(), "", opt)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Cases != 3 || sum.FindingCount == 0 {
		t.Fatalf("in-memory campaign: cases=%d findings=%d, want 3 cases with findings", sum.Cases, sum.FindingCount)
	}
	entries, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("in-memory campaign wrote %s", e.Name())
	}
}

// The coverage-guided scheduler must beat blind generation: same seed, same
// case budget, strictly more coverage-signature bits discovered.
func TestCampaignGuidedBeatsBlind(t *testing.T) {
	opt := campaignTestOptions()
	opt.Count = 60
	opt.Profiles = []Profile{ProfileBranchStorm, ProfileStoreLoad, ProfilePointerChase}

	guided, err := Campaign(context.Background(), t.TempDir(), opt)
	if err != nil {
		t.Fatal(err)
	}
	bopt := opt
	bopt.Blind = true
	blind, err := Campaign(context.Background(), t.TempDir(), bopt)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("coverage bits: guided=%d blind=%d (corpus %d, mutated %d)",
		guided.CoverageBits, blind.CoverageBits, guided.CorpusSize, guided.Mutated)
	if guided.Mutated == 0 {
		t.Error("guided campaign never mutated")
	}
	if guided.CoverageBits <= blind.CoverageBits {
		t.Errorf("guided coverage %d not larger than blind %d", guided.CoverageBits, blind.CoverageBits)
	}
}

// Mutation check under the scheduler: a planted commit-stall fault must
// still surface as a limits finding, get shrunk, and land in a campaign
// bucket with its repro.
func TestCampaignInjectedFaultCaught(t *testing.T) {
	opt := campaignTestOptions()
	opt.Count = 3
	opt.Profiles = []Profile{ProfileBranchStorm}
	opt.NoShrink = false
	opt.ShrinkBudget = 60
	opt.Faults = &faultinject.Plan{Seed: 1, Faults: []faultinject.Fault{
		{Kind: faultinject.CommitStall, Start: 100},
	}}

	dir := t.TempDir()
	sum, err := Campaign(context.Background(), dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	var hit *FindingBucket
	for _, b := range sum.Buckets {
		if b.Oracle == OracleLimits {
			hit = b
		}
	}
	if hit == nil {
		t.Fatalf("no limits bucket from the injected stall; buckets: %+v", sum.Buckets)
	}
	if len(hit.Repros) == 0 {
		t.Fatal("limits bucket has no repro")
	}
	r, err := LoadRepro(filepath.Join(dir, hit.Repros[0]))
	if err != nil {
		t.Fatal(err)
	}
	if r.OrigInsts == 0 || r.Insts >= r.OrigInsts {
		t.Errorf("repro not shrunk: %d insts (orig %d)", r.Insts, r.OrigInsts)
	}
}
