package fuzz

import (
	"math/rand"

	"levioso/internal/isa"
)

// The campaign scheduler decides, per case index, whether to generate a
// fresh program from the profile cycle or to mutate a corpus entry that
// previously discovered new coverage. Everything is derived from the
// per-case seed (CaseSeed) and the corpus as the round's in-order schedule
// leaves it, so a resumed campaign — which replays the same rounds over the
// same persisted corpus — makes bit-identical decisions.

// corpusEntry is one coverage-discovering program retained for mutation.
// Gadget cases are never admitted: their probe loop's output is the security
// oracle's signal, and mutating it yields garbled probes misreported as
// findings rather than new machine behavior.
type corpusEntry struct {
	Index   int     `json:"index"`    // case index that discovered it
	Parent  int     `json:"parent"`   // case index it was mutated from (-1: fresh)
	Profile Profile `json:"profile"`  // generation profile of its root ancestor
	Binary  []byte  `json:"binary"`   // isa.Program image (base64 in JSON)
	NewBits int     `json:"new_bits"` // coverage bits it contributed on admission
	Insts   int     `json:"insts"`    // program size, for the status endpoint
	Picks   int     `json:"picks"`    // times chosen as a mutation parent

	prog *isa.Program // decoded lazily; not persisted
}

// program decodes (and caches) the entry's program image.
func (e *corpusEntry) program() (*isa.Program, error) {
	if e.prog == nil {
		p := new(isa.Program)
		if err := p.UnmarshalBinary(e.Binary); err != nil {
			return nil, err
		}
		e.prog = p
	}
	return e.prog, nil
}

// scheduleCase decides one campaign index: fresh generation when the
// corpus is empty, the campaign is blind, or the seeded coin says explore
// (~1 in 3); otherwise a mutant of a corpus entry, biased toward entries
// that contributed more coverage. A mutant that cannot be built (every
// candidate failed revalidation) falls back to fresh generation, so the
// scheduler never wedges on a corpus of unmutatable programs. Returns the
// mutant and its parent's case index, or (nil, -1) for fresh generation,
// which freshCase does off the in-order scheduling path.
func scheduleCase(opt Options, idx int, corpus []*corpusEntry) (*Case, int) {
	seed := CaseSeed(opt.Seed, idx)
	rng := rand.New(rand.NewSource(int64(seed)))
	if opt.Blind || len(corpus) == 0 || rng.Intn(3) == 0 {
		return nil, -1
	}

	e := pickEntry(rng, corpus)
	prog, err := e.program()
	if err != nil {
		// A corrupt corpus entry (hand-edited state file) degrades to fresh
		// generation rather than killing the campaign.
		return nil, -1
	}
	// A second (possibly identical) pick donates splice material.
	donor, err := pickEntry(rng, corpus).program()
	if err != nil {
		donor = prog
	}
	mutated := mutate(rng, prog, donor)
	if mutated == nil {
		return nil, -1
	}
	e.Picks++
	return &Case{Seed: seed, Index: idx, Profile: e.Profile, Prog: mutated}, e.Index
}

// freshProfile is the profile a freshly generated case at idx uses.
func freshProfile(opt Options, idx int) Profile { return opt.Profiles[idx%len(opt.Profiles)] }

// freshCase generates the profile cycle's case for idx.
func freshCase(opt Options, idx int) (*Case, error) {
	return Generate(freshProfile(opt, idx), CaseSeed(opt.Seed, idx), idx)
}

// pickEntry samples the corpus weighted by coverage contribution decayed by
// exploitation: an entry that lit 40 new bits is a richer mutation source
// than one that lit 1, but an entry already mutated many times has had its
// neighborhood harvested and yields the floor weight.
func pickEntry(rng *rand.Rand, corpus []*corpusEntry) *corpusEntry {
	weight := func(e *corpusEntry) int { return e.NewBits/(1+e.Picks) + 1 }
	total := 0
	for _, e := range corpus {
		total += weight(e)
	}
	n := rng.Intn(total)
	for _, e := range corpus {
		if n < weight(e) {
			return e
		}
		n -= weight(e)
	}
	return corpus[len(corpus)-1]
}

// mutate applies stacked mutations to prog's text and revalidates the
// result through the shrinker's rebuild (structural validation plus the
// annotation re-pass). Splicing donor material in dominates the mix: the
// coverage signature keys on instruction sites, so structural changes that
// shift and recombine code light far more new signature bits than operand
// tweaks. Returns nil when no valid mutant emerged within the attempt
// budget.
func mutate(rng *rand.Rand, prog, donor *isa.Program) *isa.Program {
	for attempt := 0; attempt < 8; attempt++ {
		text := append([]isa.Inst(nil), prog.Text...)
		changed := false
		for n := 2 + rng.Intn(5); n > 0; n-- {
			var cand []isa.Inst
			switch rng.Intn(10) {
			case 0:
				cand = mutImm(rng, text)
			case 1:
				cand = mutReg(rng, text)
			case 2:
				chunk := 1 + rng.Intn(8)
				start := rng.Intn(len(text))
				end := start + chunk
				if end > len(text) {
					end = len(text)
				}
				cand = removeRange(text, start, end)
			case 3:
				cand = mutRetarget(rng, text)
			default:
				cand = mutSplice(rng, text, donor.Text)
			}
			if cand != nil {
				text = cand
				changed = true
			}
		}
		if !changed {
			continue
		}
		if p := rebuild(prog, text); p != nil {
			return p
		}
	}
	return nil
}

// mutImm re-randomizes one immediate. Memory-op offsets are only touched
// when the base is gp (a fixed data-segment access) and stay size-aligned
// and in-bounds — the generator's never-faults contract must survive
// mutation on the architectural path. Shift amounts stay in [0, 64);
// everything else stays in the I-immediate range. Control-flow immediates
// are the CFG and belong to mutRetarget.
func mutImm(rng *rand.Rand, text []isa.Inst) []isa.Inst {
	var idxs []int
	for i, in := range text {
		if !in.Op.HasImm() || in.Op.IsControl() {
			continue
		}
		if (in.Op.MemBytes() > 0 || in.Op == isa.CFLUSH) && in.Rs1 != isa.RegGP {
			continue // computed address: the offset is part of the masking
		}
		idxs = append(idxs, i)
	}
	if len(idxs) == 0 {
		return nil
	}
	i := idxs[rng.Intn(len(idxs))]
	out := append([]isa.Inst(nil), text...)
	in := &out[i]
	switch {
	case in.Op == isa.CFLUSH:
		in.Imm = int64(64 * rng.Intn(genDataLen/64))
	case in.Op.IsStore():
		size := in.Op.MemBytes()
		in.Imm = int64(genScratchBase + size*rng.Intn((genDataLen-genScratchBase)/size))
	case in.Op.MemBytes() > 0:
		size := in.Op.MemBytes()
		in.Imm = int64(size * rng.Intn(genDataLen/size))
	case in.Op == isa.SLLI || in.Op == isa.SRLI || in.Op == isa.SRAI:
		in.Imm = int64(rng.Intn(64))
	case in.Op == isa.LUI:
		in.Imm = int64(rng.Intn(1<<20) - 1<<19)
	default:
		in.Imm = int64(rng.Intn(4096) - 2048)
	}
	return out
}

// mutReg rewires one operand among the generator's general value registers
// (x6..x29). The special registers — gp, the address scratch, the loop
// counter, the chase pointer — are never touched, so the structural
// invariants that keep generated programs terminating and in-bounds hold
// for every mutant.
func mutReg(rng *rand.Rand, text []isa.Inst) []isa.Inst {
	isValue := func(r isa.Reg) bool { return r >= 6 && r <= 29 }
	type slot struct{ inst, field int }
	var slots []slot
	for i, in := range text {
		if in.Op.HasRd() && isValue(in.Rd) {
			slots = append(slots, slot{i, 0})
		}
		if in.Op.HasRs1() && isValue(in.Rs1) {
			slots = append(slots, slot{i, 1})
		}
		if in.Op.HasRs2() && isValue(in.Rs2) {
			slots = append(slots, slot{i, 2})
		}
	}
	if len(slots) == 0 {
		return nil
	}
	s := slots[rng.Intn(len(slots))]
	out := append([]isa.Inst(nil), text...)
	r := isa.Reg(6 + rng.Intn(24))
	switch s.field {
	case 0:
		out[s.inst].Rd = r
	case 1:
		out[s.inst].Rs1 = r
	default:
		out[s.inst].Rs2 = r
	}
	return out
}

// mutSplice inserts a chunk of straight-line, non-faulting donor
// instructions into the text, remapping every surviving branch/JAL offset
// across the insertion point (the inverse of removeRange's remap). This is
// the recombination operator: it produces genuinely new program layouts out
// of coverage-rich material, which matters because the signature keys on
// instruction sites — an inserted chunk both contributes its own sites and
// shifts every downstream site.
func mutSplice(rng *rand.Rand, text, donor []isa.Inst) []isa.Inst {
	chunk := safeChunk(rng, donor)
	if chunk == nil {
		return nil
	}
	// Insert after the first instruction at the earliest, keeping the
	// generator's prologue (gp/data setup) first.
	p := 1 + rng.Intn(len(text))
	k := len(chunk)
	out := make([]isa.Inst, 0, len(text)+k)
	out = append(out, text[:p]...)
	out = append(out, chunk...)
	out = append(out, text[p:]...)
	shift := func(x int) int {
		if x < p {
			return x
		}
		return x + k
	}
	for i, in := range text {
		if !in.Op.IsBranch() && in.Op != isa.JAL {
			continue
		}
		tgt := i + int(in.Imm)/isa.InstBytes
		if tgt < 0 || tgt > len(text) {
			return nil
		}
		out[shift(i)].Imm = int64(shift(tgt)-shift(i)) * isa.InstBytes
	}
	return out
}

// safeChunk copies a run of donor instructions that cannot fault or diverge
// in any register/memory context: no control flow (offsets would dangle), no
// HALT (dead code after it wastes the mutant), and memory ops only when
// gp-relative (the generator keeps those offsets in-bounds; computed
// addresses depend on masking instructions that may not come along).
func safeChunk(rng *rand.Rand, donor []isa.Inst) []isa.Inst {
	if len(donor) == 0 {
		return nil
	}
	safe := func(in isa.Inst) bool {
		if in.Op.IsControl() || in.Op == isa.HALT || in.Op == isa.RDCYCLE {
			return false
		}
		if (in.Op.MemBytes() > 0 || in.Op == isa.CFLUSH) && in.Rs1 != isa.RegGP {
			return false
		}
		return true
	}
	for attempt := 0; attempt < 6; attempt++ {
		start := rng.Intn(len(donor))
		want := 2 + rng.Intn(15)
		var chunk []isa.Inst
		for i := start; i < len(donor) && len(chunk) < want; i++ {
			if !safe(donor[i]) {
				break
			}
			chunk = append(chunk, donor[i])
		}
		if len(chunk) >= 2 {
			return chunk
		}
	}
	return nil
}

// mutRetarget points one forward branch or jump at a different forward
// target. Backward branches are loop latches and are left alone (retargeting
// one risks a non-terminating mutant; the reference model would run it to
// its instruction limit on every execution).
func mutRetarget(rng *rand.Rand, text []isa.Inst) []isa.Inst {
	n := len(text)
	var idxs []int
	for i, in := range text {
		if (in.Op.IsBranch() || in.Op == isa.JAL) && in.Imm > 0 && i < n-1 {
			idxs = append(idxs, i)
		}
	}
	if len(idxs) == 0 {
		return nil
	}
	i := idxs[rng.Intn(len(idxs))]
	span := n - 1 - i
	if span > 8 {
		span = 8
	}
	tgt := i + 1 + rng.Intn(span)
	out := append([]isa.Inst(nil), text...)
	out[i].Imm = int64(tgt-i) * isa.InstBytes
	return out
}
