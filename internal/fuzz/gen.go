// Package fuzz is the differential fuzzing subsystem: a seeded random
// program generator over the LEV64 ISA, a stack of correctness and security
// oracles run over every generated program under every registered policy, a
// delta-debugging shrinker that reduces failures to minimal repros, and a
// crash-safe corpus that persists them.
//
// The generator is deliberately constrained so that every generated program
// is *architecturally boring*: it terminates (forward branches and counted,
// non-nested loops only), never faults (memory operands are masked into the
// data segment with natural alignment), and never reads the cycle counter
// (RDCYCLE would make output legitimately diverge between the core and the
// reference model). Within those constraints it is free to be
// microarchitecturally vicious — that is the point: any divergence the
// oracles observe is a simulator bug, never a generator artifact.
//
// Register discipline: x3 (gp) holds the data base and is never written;
// x31 is the address-masking scratch; x30 is the loop counter; x5 is the
// pointer-chase pointer; x6..x29 are general value registers.
package fuzz

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"

	"levioso/internal/core"
	"levioso/internal/engine"
	"levioso/internal/isa"
)

// Profile selects a generation strategy: which instruction mix the random
// programs are weighted toward.
type Profile string

const (
	// ProfileBranchStorm is dense data-dependent control flow: deep
	// speculation, frequent mispredicts, recovery storms.
	ProfileBranchStorm Profile = "branch-storm"
	// ProfilePointerChase is serially-dependent loads walking a pointer
	// chain through the data segment: long load shadows for policies to
	// stall in.
	ProfilePointerChase Profile = "pointer-chase"
	// ProfileStoreLoad is store→load aliasing bursts over a small scratch
	// region: forwarding, partial overlaps, memory-order squashes.
	ProfileStoreLoad Profile = "store-load"
	// ProfileDivPressure serializes on the single unpipelined divider,
	// including divides under unresolved branches (wrong-path divides must
	// release the unit on squash).
	ProfileDivPressure Profile = "div-pressure"
	// ProfileWildAddr manufactures wrong-path memory accesses at wild
	// addresses — just below 2^64 (where addr+size wraps), exactly at and
	// just past isa.MemLimit, and straddling the limit — behind
	// late-resolving, architecturally always-taken guards. The shadows run
	// only transiently, so the reference run stays clean while the core's
	// wrong-path memory model (bounds checks, store-load disambiguation,
	// invisible-load bookkeeping) is exercised at the exact addresses the
	// historical uint64-wrap bugs corrupted.
	ProfileWildAddr Profile = "wild-addr"
	// ProfileGadget generates randomized Spectre-V1-shaped attack programs
	// (train/flush/transient-access/probe) with a planted secret; the
	// security oracle checks that covering policies keep the probe blind.
	ProfileGadget Profile = "gadget"
)

// Profiles lists every generation profile.
func Profiles() []Profile {
	return []Profile{ProfileBranchStorm, ProfilePointerChase, ProfileStoreLoad, ProfileDivPressure, ProfileWildAddr, ProfileGadget}
}

// ParseProfiles parses a comma-separated profile list ("" or "all" selects
// every profile).
func ParseProfiles(s string) ([]Profile, error) {
	if s == "" || s == "all" {
		return Profiles(), nil
	}
	var out []Profile
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		found := false
		for _, p := range Profiles() {
			if part == string(p) {
				out = append(out, p)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("fuzz: unknown profile %q (have %v)", part, Profiles())
		}
	}
	if len(out) == 0 {
		return Profiles(), nil
	}
	return out, nil
}

// Case is one generated fuzz input: the program plus the metadata the
// oracles need to judge it.
type Case struct {
	Seed    uint64
	Index   int
	Profile Profile
	Prog    *isa.Program
	// TimingDep marks programs whose architectural output legitimately
	// depends on microarchitectural timing (the gadget profile reads
	// RDCYCLE): the differential and retired-count oracles are skipped,
	// the determinism, invariants and security oracles still apply.
	TimingDep bool
	// Secret is the planted secret byte of a gadget case (zero otherwise).
	Secret byte
}

// CaseSeed derives the per-case seed from the campaign seed and case index
// (splitmix64 finalizer: consecutive indices give uncorrelated streams).
func CaseSeed(base uint64, index int) uint64 {
	z := base + uint64(index)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Generate builds the case for (profile, seed). Generation is fully
// deterministic in its arguments.
func Generate(profile Profile, seed uint64, index int) (*Case, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	c := &Case{Seed: seed, Index: index, Profile: profile}
	var err error
	switch profile {
	case ProfileGadget:
		c.TimingDep = true
		c.Prog, c.Secret, err = genGadget(rng)
	case ProfileBranchStorm, ProfilePointerChase, ProfileStoreLoad, ProfileDivPressure, ProfileWildAddr:
		c.Prog, err = genRandom(profile, rng)
	default:
		return nil, fmt.Errorf("fuzz: unknown profile %q", profile)
	}
	if err != nil {
		return nil, fmt.Errorf("fuzz: generate %s seed=%#x: %w", profile, seed, err)
	}
	return c, nil
}

// Name returns the case's stable diagnostic label.
func (c *Case) Name() string {
	return fmt.Sprintf("fuzz-%s-%06d", c.Profile, c.Index)
}

// ---------------------------------------------------------- random profiles

const (
	genDataLen     = 4096 // data segment size
	genScratchBase = 2048 // stores land in [genScratchBase, genDataLen)
	genChainSlots  = 256  // pointer-chase chain occupies [0, genScratchBase)

	regAddr  = isa.Reg(31) // address-masking scratch
	regCnt   = isa.Reg(30) // loop counter
	regChase = isa.Reg(5)  // pointer-chase pointer
)

// valueReg picks a general value register (x6..x29): never gp, the address
// scratch, the loop counter, or the chase pointer, so the generator's
// structural invariants survive any interleaving of blocks.
func (g *progGen) valueReg() isa.Reg { return isa.Reg(6 + g.rng.Intn(24)) }

type blockKind int

const (
	bALU blockKind = iota
	bALUImm
	bLoad      // masked random-address load (3 insts)
	bStore     // masked random-address store into scratch (4 insts)
	bStoreLoad // aliasing burst over one scratch slot
	bBranch    // forward conditional branch over a shadow
	bLoop      // counted, non-nested loop
	bDiv       // chained divider ops
	bJal       // forward unconditional jump
	bCflush    // cache-line evict (a transmitter)
	bFence
	bPut   // console output (differential signal)
	bChase // pointer-chase step(s)
	bWild  // transient window of wild-address loads/stores
	numBlockKinds
)

var profileWeights = map[Profile][numBlockKinds]int{
	ProfileBranchStorm:  {bALU: 4, bALUImm: 4, bLoad: 2, bStore: 1, bStoreLoad: 1, bBranch: 9, bLoop: 3, bDiv: 1, bJal: 2, bCflush: 1, bFence: 1, bPut: 2},
	ProfilePointerChase: {bALU: 2, bALUImm: 2, bLoad: 3, bStore: 1, bStoreLoad: 1, bBranch: 2, bLoop: 2, bDiv: 1, bJal: 1, bCflush: 2, bFence: 1, bPut: 2, bChase: 9},
	ProfileStoreLoad:    {bALU: 2, bALUImm: 2, bLoad: 3, bStore: 3, bStoreLoad: 9, bBranch: 2, bLoop: 2, bDiv: 1, bJal: 1, bCflush: 1, bFence: 1, bPut: 2},
	ProfileDivPressure:  {bALU: 2, bALUImm: 2, bLoad: 1, bStore: 1, bStoreLoad: 1, bBranch: 5, bLoop: 2, bDiv: 9, bJal: 1, bCflush: 1, bFence: 1, bPut: 2},
	ProfileWildAddr:     {bALU: 2, bALUImm: 2, bLoad: 2, bStore: 1, bStoreLoad: 2, bBranch: 3, bLoop: 2, bDiv: 1, bJal: 1, bCflush: 2, bFence: 1, bPut: 2, bWild: 9},
}

var (
	aluOps    = []isa.Op{isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.SLL, isa.SRL, isa.SRA, isa.SLT, isa.SLTU, isa.MUL, isa.MULH}
	aluImmOps = []isa.Op{isa.ADDI, isa.ANDI, isa.ORI, isa.XORI, isa.SLLI, isa.SRLI, isa.SRAI, isa.SLTI, isa.SLTIU}
	divOps    = []isa.Op{isa.DIV, isa.DIVU, isa.REM, isa.REMU}
	loadOps   = []isa.Op{isa.LB, isa.LBU, isa.LH, isa.LHU, isa.LW, isa.LWU, isa.LD}
	storeOps  = []isa.Op{isa.SB, isa.SH, isa.SW, isa.SD}
	branchOps = []isa.Op{isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU}
)

type progGen struct {
	rng     *rand.Rand
	prof    Profile
	weights [numBlockKinds]int
	text    []isa.Inst
	data    []byte
}

func genRandom(profile Profile, rng *rand.Rand) (*isa.Program, error) {
	g := &progGen{rng: rng, prof: profile, weights: profileWeights[profile]}
	g.initData()
	g.prologue()
	for n := 14 + rng.Intn(24); n > 0; n-- {
		g.emitBlock()
	}
	g.epilogue()

	prog := &isa.Program{
		Text:    g.text,
		Data:    g.data,
		Entry:   isa.TextBase,
		Symbols: map[string]uint64{},
		Hints:   map[uint64]isa.BranchHint{},
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if _, err := core.Annotate(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

func (g *progGen) emit(in isa.Inst) { g.text = append(g.text, in) }

// initData fills the data segment: pseudo-random bytes everywhere, and for
// the pointer-chase profile a closed permutation chain of absolute data
// addresses over the first genChainSlots 8-byte slots (so a chase load
// always yields another valid chain address — stores are masked into the
// scratch half and can never corrupt the chain).
func (g *progGen) initData() {
	g.data = make([]byte, genDataLen)
	g.rng.Read(g.data)
	if g.prof == ProfilePointerChase {
		perm := g.rng.Perm(genChainSlots)
		for i, p := range perm {
			binary.LittleEndian.PutUint64(g.data[i*8:], isa.DataBase+uint64(p)*8)
		}
	}
}

// prologue seeds a spread of value registers with varied 64-bit constants
// and initializes the chase pointer.
func (g *progGen) prologue() {
	for n := 8 + g.rng.Intn(5); n > 0; n-- {
		r := g.valueReg()
		switch g.rng.Intn(3) {
		case 0:
			g.emit(isa.Inst{Op: isa.ADDI, Rd: r, Rs1: isa.RegZero, Imm: int64(g.rng.Intn(4096) - 2048)})
		case 1:
			g.emit(isa.Inst{Op: isa.LUI, Rd: r, Imm: int64(g.rng.Intn(1<<20) - 1<<19)})
			g.emit(isa.Inst{Op: isa.ORI, Rd: r, Rs1: r, Imm: int64(g.rng.Intn(2048))})
		default:
			g.emit(isa.Inst{Op: isa.ADDI, Rd: r, Rs1: isa.RegZero, Imm: int64(g.rng.Intn(4096) - 2048)})
			g.emit(isa.Inst{Op: isa.SLLI, Rd: r, Rs1: r, Imm: int64(1 + g.rng.Intn(31))})
			g.emit(isa.Inst{Op: isa.XORI, Rd: r, Rs1: r, Imm: int64(g.rng.Intn(2048))})
		}
	}
	if g.prof == ProfilePointerChase {
		g.emit(isa.Inst{Op: isa.ADDI, Rd: regChase, Rs1: isa.RegGP, Imm: int64(8 * g.rng.Intn(genChainSlots))})
	}
}

// epilogue makes the architectural state observable (console output is the
// differential signal) and halts with a data-dependent exit code.
func (g *progGen) epilogue() {
	for i := 0; i < 3; i++ {
		g.emit(isa.Inst{Op: isa.PUTI, Rs1: g.valueReg()})
	}
	for i := 0; i < 2; i++ {
		g.emit(isa.Inst{Op: isa.LD, Rd: regAddr, Rs1: isa.RegGP, Imm: int64(8 * g.rng.Intn(genDataLen/8))})
		g.emit(isa.Inst{Op: isa.PUTI, Rs1: regAddr})
	}
	if g.prof == ProfilePointerChase {
		g.emit(isa.Inst{Op: isa.PUTI, Rs1: regChase})
	}
	g.emit(isa.Inst{Op: isa.HALT, Rs1: g.valueReg()})
}

func (g *progGen) pickKind() blockKind {
	total := 0
	for _, w := range g.weights {
		total += w
	}
	n := g.rng.Intn(total)
	for k, w := range g.weights {
		if n < w {
			return blockKind(k)
		}
		n -= w
	}
	return bALU
}

func (g *progGen) emitBlock() {
	switch g.pickKind() {
	case bALU, bALUImm, bDiv, bPut, bFence, bChase:
		g.emit(g.straightInst())
	case bLoad:
		g.emitMaskedLoad()
	case bStore:
		g.emitMaskedStore()
	case bStoreLoad:
		g.emitStoreLoadBurst()
	case bBranch:
		g.emitForwardBranch()
	case bWild:
		g.emitWildWindow()
	case bLoop:
		g.emitLoop()
	case bJal:
		skip := 1 + g.rng.Intn(3)
		g.emit(isa.Inst{Op: isa.JAL, Rd: isa.RegZero, Imm: int64((skip + 1) * isa.InstBytes)})
		for i := 0; i < skip; i++ {
			g.emit(g.straightInst())
		}
	case bCflush:
		g.emit(isa.Inst{Op: isa.CFLUSH, Rs1: isa.RegGP, Imm: int64(64 * g.rng.Intn(genDataLen/64))})
	}
}

// straightInst returns exactly one control-free instruction — branch shadows
// and loop bodies are built from these, so the byte offsets of the enclosing
// branch stay trivially correct.
func (g *progGen) straightInst() isa.Inst {
	// Re-pick within the single-instruction kinds, keeping the profile's
	// relative weights for them.
	for {
		switch k := g.pickKind(); k {
		case bALU:
			return isa.Inst{Op: aluOps[g.rng.Intn(len(aluOps))], Rd: g.valueReg(), Rs1: g.valueReg(), Rs2: g.valueReg()}
		case bALUImm:
			op := aluImmOps[g.rng.Intn(len(aluImmOps))]
			imm := int64(g.rng.Intn(4096) - 2048)
			if op == isa.SLLI || op == isa.SRLI || op == isa.SRAI {
				imm = int64(g.rng.Intn(64))
			}
			return isa.Inst{Op: op, Rd: g.valueReg(), Rs1: g.valueReg(), Imm: imm}
		case bDiv:
			return isa.Inst{Op: divOps[g.rng.Intn(len(divOps))], Rd: g.valueReg(), Rs1: g.valueReg(), Rs2: g.valueReg()}
		case bLoad:
			op := loadOps[g.rng.Intn(len(loadOps))]
			size := op.MemBytes()
			return isa.Inst{Op: op, Rd: g.valueReg(), Rs1: isa.RegGP, Imm: int64(size * g.rng.Intn(genDataLen/size))}
		case bStore:
			op := storeOps[g.rng.Intn(len(storeOps))]
			size := op.MemBytes()
			off := genScratchBase + size*g.rng.Intn((genDataLen-genScratchBase)/size)
			return isa.Inst{Op: op, Rs1: isa.RegGP, Rs2: g.valueReg(), Imm: int64(off)}
		case bCflush:
			return isa.Inst{Op: isa.CFLUSH, Rs1: isa.RegGP, Imm: int64(64 * g.rng.Intn(genDataLen/64))}
		case bFence:
			return isa.Inst{Op: isa.FENCE}
		case bPut:
			return isa.Inst{Op: isa.PUTI, Rs1: g.valueReg()}
		case bChase:
			if g.prof == ProfilePointerChase {
				return isa.Inst{Op: isa.LD, Rd: regChase, Rs1: regChase}
			}
		}
	}
}

// emitMaskedLoad reads a data-dependent — but always in-bounds, always
// aligned — address: mask the value into [0, genDataLen) at the access
// size's alignment, rebase onto gp, load.
func (g *progGen) emitMaskedLoad() {
	op := loadOps[g.rng.Intn(len(loadOps))]
	size := op.MemBytes()
	g.emit(isa.Inst{Op: isa.ANDI, Rd: regAddr, Rs1: g.valueReg(), Imm: int64(genDataLen - size)})
	g.emit(isa.Inst{Op: isa.ADD, Rd: regAddr, Rs1: regAddr, Rs2: isa.RegGP})
	g.emit(isa.Inst{Op: op, Rd: g.valueReg(), Rs1: regAddr})
}

// emitMaskedStore writes a data-dependent address confined to the scratch
// half of the data segment (the ORI sets the scratch bit after the
// alignment-preserving mask), so stores can never corrupt the pointer-chase
// chain in the lower half.
func (g *progGen) emitMaskedStore() {
	op := storeOps[g.rng.Intn(len(storeOps))]
	size := op.MemBytes()
	g.emit(isa.Inst{Op: isa.ANDI, Rd: regAddr, Rs1: g.valueReg(), Imm: int64(genDataLen - genScratchBase - size)})
	g.emit(isa.Inst{Op: isa.ORI, Rd: regAddr, Rs1: regAddr, Imm: int64(genScratchBase)})
	g.emit(isa.Inst{Op: isa.ADD, Rd: regAddr, Rs1: regAddr, Rs2: isa.RegGP})
	g.emit(isa.Inst{Op: op, Rs1: regAddr, Rs2: g.valueReg()})
}

// emitStoreLoadBurst exercises the store queue: a store to one 16-byte
// scratch slot followed (possibly after filler) by a load that fully or
// partially overlaps it — forwarding hits, partial-overlap stalls, and
// same-address replays all come from here.
func (g *progGen) emitStoreLoadBurst() {
	base := int64(genScratchBase + 16*g.rng.Intn((genDataLen-genScratchBase)/16))
	st := storeOps[g.rng.Intn(len(storeOps))]
	g.emit(isa.Inst{Op: st, Rs1: isa.RegGP, Rs2: g.valueReg(), Imm: base})
	for n := g.rng.Intn(3); n > 0; n-- {
		g.emit(isa.Inst{Op: aluOps[g.rng.Intn(len(aluOps))], Rd: g.valueReg(), Rs1: g.valueReg(), Rs2: g.valueReg()})
	}
	type overlap struct {
		op  isa.Op
		off int64
	}
	variants := []overlap{
		{isa.LD, 0}, {isa.LW, 0}, {isa.LW, 4}, {isa.LHU, 2}, {isa.LBU, int64(g.rng.Intn(8))},
	}
	v := variants[g.rng.Intn(len(variants))]
	g.emit(isa.Inst{Op: v.op, Rd: g.valueReg(), Rs1: isa.RegGP, Imm: base + v.off})
}

// emitWildWindow builds a transient wild-address window: an architecturally
// always-taken branch whose condition depends on a (possibly just-evicted)
// load, guarding a shadow of loads and stores at the addresses the
// wrong-path memory model must contain — a few doublewords below 2^64
// (where addr+size wraps), exactly at and just past isa.MemLimit, straddling
// the limit boundary, or an unmasked random register. The guard is always
// taken, so the shadow never commits and the program stays architecturally
// clean under every policy, while mispredicted visits drive the transient
// machinery (bounds checks, store-load disambiguation, invisible loads)
// through exactly the address shapes of the historical uint64-wrap bugs.
func (g *progGen) emitWildWindow() {
	off := int64(8 * g.rng.Intn(genDataLen/8))
	if g.rng.Intn(2) == 0 {
		g.emit(isa.Inst{Op: isa.CFLUSH, Rs1: isa.RegGP, Imm: off &^ 63})
	}
	g.emit(isa.Inst{Op: isa.LD, Rd: regAddr, Rs1: isa.RegGP, Imm: off})
	// v < v is zero for every v, but the core only learns that after the
	// load returns — until then the guard below is unresolved.
	g.emit(isa.Inst{Op: isa.SLTU, Rd: regAddr, Rs1: regAddr, Rs2: regAddr})
	const memLimitShift = 28 // log2(isa.MemLimit)
	wild := g.valueReg()
	var shadow []isa.Inst
	switch g.rng.Intn(4) {
	case 0: // a few doublewords below 2^64
		shadow = append(shadow,
			isa.Inst{Op: isa.ADDI, Rd: wild, Rs1: isa.RegZero, Imm: int64(-8 * (1 + g.rng.Intn(250)))})
	case 1: // exactly at / just past MemLimit
		shadow = append(shadow,
			isa.Inst{Op: isa.ADDI, Rd: wild, Rs1: isa.RegZero, Imm: 1},
			isa.Inst{Op: isa.SLLI, Rd: wild, Rs1: wild, Imm: memLimitShift},
			isa.Inst{Op: isa.ADDI, Rd: wild, Rs1: wild, Imm: int64(8 * g.rng.Intn(256))})
	case 2: // straddling the limit: in-bounds base, out-of-bounds tail
		shadow = append(shadow,
			isa.Inst{Op: isa.ADDI, Rd: wild, Rs1: isa.RegZero, Imm: 1},
			isa.Inst{Op: isa.SLLI, Rd: wild, Rs1: wild, Imm: memLimitShift},
			isa.Inst{Op: isa.ADDI, Rd: wild, Rs1: wild, Imm: -4})
	default:
		// Unmasked random register: whatever wild value the program has
		// computed so far becomes a wrong-path pointer.
	}
	for n := 1 + g.rng.Intn(2); n > 0; n-- {
		if g.rng.Intn(2) == 0 {
			shadow = append(shadow, isa.Inst{Op: isa.LD, Rd: g.valueReg(), Rs1: wild, Imm: int64(8 * g.rng.Intn(4))})
		} else {
			shadow = append(shadow, isa.Inst{Op: isa.SD, Rs1: wild, Rs2: g.valueReg(), Imm: int64(8 * g.rng.Intn(4))})
		}
	}
	g.emit(isa.Inst{Op: isa.BEQ, Rs1: regAddr, Rs2: isa.RegZero, Imm: int64((len(shadow) + 1) * isa.InstBytes)})
	for _, in := range shadow {
		g.emit(in)
	}
}

// emitForwardBranch emits a data-dependent conditional branch over a short
// straight-line shadow: the shadow is the transient window the policies must
// police, and the data-dependent condition keeps the predictor honest.
func (g *progGen) emitForwardBranch() {
	op := branchOps[g.rng.Intn(len(branchOps))]
	rs2 := g.valueReg()
	if g.rng.Intn(3) == 0 {
		rs2 = isa.RegZero
	}
	skip := 1 + g.rng.Intn(4)
	g.emit(isa.Inst{Op: op, Rs1: g.valueReg(), Rs2: rs2, Imm: int64((skip + 1) * isa.InstBytes)})
	for i := 0; i < skip; i++ {
		g.emit(g.straightInst())
	}
}

// emitLoop emits a counted loop on the dedicated counter register. Loops
// never nest (the body is straight-line), so termination is structural.
func (g *progGen) emitLoop() {
	n := 1 + g.rng.Intn(10)
	g.emit(isa.Inst{Op: isa.ADDI, Rd: regCnt, Rs1: isa.RegZero, Imm: int64(n)})
	body := 2 + g.rng.Intn(5)
	for i := 0; i < body; i++ {
		g.emit(g.straightInst())
	}
	g.emit(isa.Inst{Op: isa.ADDI, Rd: regCnt, Rs1: regCnt, Imm: -1})
	g.emit(isa.Inst{Op: isa.BNE, Rs1: regCnt, Rs2: isa.RegZero, Imm: -int64((body + 1) * isa.InstBytes)})
}

// ----------------------------------------------------------- gadget profile

// gadgetTemplate is a randomized Spectre-V1-shaped victim+attacker in the
// shape of internal/attack's gadget: train a bounds check, evict the bound
// and the oracle, make one out-of-bounds call that transiently reads the
// secret and transmits it through a secret-indexed load, then recover it
// with a flush+reload probe. %TRAIN%, %SECRET%, %JUNK% and %PAD% randomize
// the training count, the planted byte, and instruction padding so the
// security property is checked across gadget variants, not one fixed text.
const gadgetTemplate = `
main:
	la t0, secret
	lbu t1, 0(t0)
	fence

	li s0, 0
train:
	andi a0, s0, 7
	call victim
%JUNK%	addi s0, s0, 1
	li t0, %TRAIN%
	blt s0, t0, train

	call flush_probe
	la t0, bound
	cflush 0(t0)
	fence

	la t0, secret
	la t1, array1
	sub a0, t0, t1
	call victim
	fence

	call probe_best
	puti a0
	halt a0

# --- victim: if (idx < bound) y = probebuf[array1[idx] * 64] --------------
victim:
	la t0, bound
	ld t1, 0(t0)
	bge a0, t1, v_done
	la t2, array1
	add t2, t2, a0
	lbu t3, 0(t2)
%PAD%	slli t3, t3, 6
	la t4, probebuf
	add t4, t4, t3
	lbu t5, 0(t4)
v_done:
	ret

# --- flush_probe: evict every oracle line ---------------------------------
flush_probe:
	la t0, probebuf
	li t1, 0
fp_loop:
	slli t2, t1, 6
	add t3, t0, t2
	cflush 0(t3)
	addi t1, t1, 1
	li t4, 256
	blt t1, t4, fp_loop
	fence
	ret

# --- probe_best: flush+reload receiver ------------------------------------
probe_best:
	la s1, probebuf
	li s2, 0
	li s3, 99999999
	li s4, 0
pb_loop:
	slli t0, s2, 6
	add t1, s1, t0
	fence
	rdcycle s5
	lbu t2, 0(t1)
	add t6, t2, zero
	fence
	rdcycle s6
	sub t3, s6, s5
	bge t3, s3, pb_skip
	mv s3, t3
	mv s4, s2
pb_skip:
	addi s2, s2, 1
	li t4, 256
	blt s2, t4, pb_loop
	li t5, 12
	blt s3, t5, pb_have
	li s4, 0
pb_have:
	mv a0, s4
	ret

	.data
array1:	.byte 1, 2, 3, 4, 5, 6, 7, 0
	.align 64
bound:	.quad 8
	.align 64
secret:	.byte %SECRET%
	.secret secret, 1
	.align 64
probebuf:
	.space 16384
`

// genGadget renders and assembles one randomized gadget, returning the
// annotated program and the planted secret byte.
func genGadget(rng *rand.Rand) (*isa.Program, byte, error) {
	secret := byte(1 + rng.Intn(255))
	train := 16 + rng.Intn(16)
	// Junk in the training loop shifts gadget alignment; pad in the
	// transient window lengthens it (t6 is dead in the victim).
	var junk, pad strings.Builder
	for n := rng.Intn(4); n > 0; n-- {
		fmt.Fprintf(&junk, "\tadd s11, s11, s0\n")
	}
	for n := rng.Intn(4); n > 0; n-- {
		fmt.Fprintf(&pad, "\tori t6, t3, %d\n", rng.Intn(64))
	}
	src := strings.NewReplacer(
		"%SECRET%", fmt.Sprint(secret),
		"%TRAIN%", fmt.Sprint(train),
		"%JUNK%\t", junk.String()+"\t",
		"%PAD%\t", pad.String()+"\t",
	).Replace(gadgetTemplate)
	prog, _, err := engine.Assemble("fuzz-gadget.s", src, true)
	if err != nil {
		return nil, 0, err
	}
	return prog, secret, nil
}
