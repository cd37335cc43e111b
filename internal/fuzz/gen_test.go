package fuzz

import (
	"bytes"
	"testing"
)

// Generation must be a pure function of (profile, seed, index): campaign resume
// and the shrinker both rely on re-deriving the identical program.
func TestGenerateDeterministic(t *testing.T) {
	for _, p := range Profiles() {
		for i := 0; i < 4; i++ {
			seed := CaseSeed(42, i)
			a, err := Generate(p, seed, i)
			if err != nil {
				t.Fatalf("%s[%d]: %v", p, i, err)
			}
			b, err := Generate(p, seed, i)
			if err != nil {
				t.Fatalf("%s[%d]: %v", p, i, err)
			}
			ab, err := a.Prog.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			bb, err := b.Prog.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ab, bb) {
				t.Errorf("%s[%d]: same seed, different program", p, i)
			}
			if a.Secret != b.Secret || a.TimingDep != b.TimingDep {
				t.Errorf("%s[%d]: same seed, different metadata", p, i)
			}
		}
	}
}

// Distinct seeds must give distinct programs (or the fuzzer explores nothing).
func TestGenerateVaries(t *testing.T) {
	a, err := Generate(ProfileBranchStorm, CaseSeed(1, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(ProfileBranchStorm, CaseSeed(1, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	ab, _ := a.Prog.MarshalBinary()
	bb, _ := b.Prog.MarshalBinary()
	if bytes.Equal(ab, bb) {
		t.Error("different case seeds produced the identical program")
	}
}

// Every generated program must be structurally valid and carry branch hints
// from the annotation pass (the Levioso policies are unsound without them).
func TestGeneratedProgramsAnnotated(t *testing.T) {
	for _, p := range Profiles() {
		c, err := Generate(p, CaseSeed(7, 3), 3)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if err := c.Prog.Validate(); err != nil {
			t.Errorf("%s: invalid program: %v", p, err)
		}
		hasBranch := false
		for _, in := range c.Prog.Text {
			if in.Op.IsBranch() {
				hasBranch = true
			}
		}
		if hasBranch && len(c.Prog.Hints) == 0 {
			t.Errorf("%s: branches present but no hints", p)
		}
	}
}

func TestParseProfiles(t *testing.T) {
	all, err := ParseProfiles("")
	if err != nil || len(all) != len(Profiles()) {
		t.Fatalf("empty spec: got %v, %v", all, err)
	}
	two, err := ParseProfiles("gadget, branch-storm")
	if err != nil || len(two) != 2 || two[0] != ProfileGadget || two[1] != ProfileBranchStorm {
		t.Fatalf("two-profile spec: got %v, %v", two, err)
	}
	if _, err := ParseProfiles("no-such-profile"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestCaseSeedSpreads(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		s := CaseSeed(1, i)
		if seen[s] {
			t.Fatalf("seed collision at index %d", i)
		}
		seen[s] = true
	}
}
