package fastpath

import (
	"fmt"
	"testing"

	"mtexc/internal/diffsim/gen"
	"mtexc/internal/diffsim/refemu"
	"mtexc/internal/isa"
	"mtexc/internal/isa/asm"
	"mtexc/internal/mem"
	"mtexc/internal/vm"
)

// buildImage loads a hand-assembled program into a fresh physical
// memory.
func buildImage(t *testing.T, code []isa.Instruction) *vm.Image {
	t.Helper()
	phys := mem.NewPhysical()
	as := vm.NewAddressSpace(phys, 1, 1<<20)
	img := &vm.Image{Name: "test", Code: code, Space: as}
	if err := img.Load(phys); err != nil {
		t.Fatalf("load: %v", err)
	}
	return img
}

// TestRefemuParity is the cross-check the decoded-dispatch tier is
// held to: over generated programs covering every fragment kind
// (arith, loads, stores, branches, mul/div, FP, calls, POPC,
// unaligned) plus page faults and both page-table organizations, the
// engine must finish with the same registers, steps, committed
// instruction stream and mapped-memory hash as the refemu step
// interpreter — under both load architectures.
func TestRefemuParity(t *testing.T) {
	lims := []gen.Limits{
		{},
		{NoFault: true},
		{MaxPages: 8, MaxTrips: 60, MaxFrags: 20},
	}
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	covered := make(map[gen.FragKind]bool)
	for li, lim := range lims {
		for seed := int64(1); seed <= int64(seeds); seed++ {
			p := gen.Generate(seed*7+int64(li), lim)
			for _, f := range p.Frags {
				covered[f.Kind] = true
			}
			for _, unaligned := range []bool{false, true} {
				if unaligned && !p.HasUnaligned() {
					continue
				}
				for _, org := range []vm.PTOrg{vm.PTLinear, vm.PTTwoLevel} {
					name := fmt.Sprintf("lim%d/seed%d/unaligned=%v/org%d", li, seed, unaligned, org)
					checkParity(t, name, p, unaligned, org)
				}
			}
		}
	}
	for k := gen.FragKind(0); k < 9; k++ {
		if !covered[k] {
			t.Errorf("fragment kind %d never generated; widen the sweep", k)
		}
	}
}

func checkParity(t *testing.T, name string, p *gen.Program, unaligned bool, org vm.PTOrg) {
	t.Helper()
	refImg, err := p.BuildImage(mem.NewPhysical(), 1, org)
	if err != nil {
		t.Fatalf("%s: build ref image: %v", name, err)
	}
	fpImg, err := p.BuildImage(mem.NewPhysical(), 1, org)
	if err != nil {
		t.Fatalf("%s: build fastpath image: %v", name, err)
	}
	const maxSteps = 2_000_000
	res, refErr := refemu.Run(refImg, refemu.Options{MaxSteps: maxSteps, Unaligned: unaligned})
	eng, err := New(fpImg, Options{Unaligned: unaligned, RecordTrace: true})
	if err != nil {
		t.Fatalf("%s: New: %v", name, err)
	}
	_, fpErr := eng.FastForward(maxSteps)

	if refErr != nil {
		if fpErr == nil && eng.Halted() {
			t.Fatalf("%s: refemu failed (%v) but fastpath halted cleanly", name, refErr)
		}
		return
	}
	if fpErr != nil {
		t.Fatalf("%s: fastpath error %v; refemu succeeded", name, fpErr)
	}
	if !eng.Halted() {
		t.Fatalf("%s: fastpath did not halt in %d steps; refemu took %d", name, maxSteps, res.Steps)
	}
	if eng.Steps() != res.Steps {
		t.Fatalf("%s: steps: fastpath %d, refemu %d", name, eng.Steps(), res.Steps)
	}
	if got, want := eng.Regs(), res.Regs; got != want {
		t.Fatalf("%s: final registers diverge:\nfastpath %+v\nrefemu   %+v", name, got, want)
	}
	tr := eng.Trace()
	if len(tr) != len(res.Trace) {
		t.Fatalf("%s: trace length: fastpath %d, refemu %d", name, len(tr), len(res.Trace))
	}
	for i := range tr {
		if tr[i].PC != res.Trace[i].PC || tr[i].Op != res.Trace[i].Op {
			t.Fatalf("%s: trace[%d]: fastpath {%#x %v}, refemu {%#x %v}",
				name, i, tr[i].PC, tr[i].Op, res.Trace[i].PC, res.Trace[i].Op)
		}
	}
	if got, want := fpImg.Space.ContentHash(), refImg.Space.ContentHash(); got != want {
		t.Fatalf("%s: memory content hash: fastpath %#x, refemu %#x", name, got, want)
	}
}

// TestStoreToCodePageInvalidatesDecode: the decoded-instruction cache
// is rebuilt when a store lands in a code page.
func TestStoreToCodePageInvalidatesDecode(t *testing.T) {
	b := asm.NewBuilder()
	b.LoadImm(1, vm.DefaultCodeVA) // code segment base
	b.I(isa.OpLdq, 2, 1, 0)        // read first code word pair
	b.I(isa.OpStq, 2, 1, 0)        // write it back: store to code page
	b.I(isa.OpAddi, 3, 3, 7)
	b.Emit(isa.Instruction{Op: isa.OpHalt})
	code, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(buildImage(t, code), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Rebuilds() != 0 {
		t.Fatalf("fresh engine reports %d rebuilds", eng.Rebuilds())
	}
	if _, err := eng.FastForward(1000); err != nil || !eng.Halted() {
		t.Fatalf("run: err=%v halted=%v", err, eng.Halted())
	}
	if eng.Rebuilds() != 1 {
		t.Fatalf("rebuilds = %d, want 1", eng.Rebuilds())
	}
	if got := eng.Regs().Int[3]; got != 7 {
		t.Fatalf("post-invalidation execution wrong: r3 = %d, want 7", got)
	}
}

// TestCallChain exercises JAL/JALR/RET linkage and indirect jump
// validation.
func TestCallChain(t *testing.T) {
	b := asm.NewBuilder()
	b.Jump(isa.OpJal, "f") // LR = next
	b.I(isa.OpAddi, 1, 1, 100)
	b.Emit(isa.Instruction{Op: isa.OpHalt})
	b.Label("f")
	b.I(isa.OpAddi, 1, 1, 1)
	b.Emit(isa.Instruction{Op: isa.OpRet})
	code, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(buildImage(t, code), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.FastForward(100); err != nil || !eng.Halted() {
		t.Fatalf("run: err=%v halted=%v", err, eng.Halted())
	}
	if got := eng.Regs().Int[1]; got != 101 {
		t.Fatalf("r1 = %d, want 101", got)
	}
}

// TestBadJumpTarget: an indirect jump outside the code segment is a
// sticky error, matching refemu's out-of-segment fetch failure.
func TestBadJumpTarget(t *testing.T) {
	b := asm.NewBuilder()
	b.LoadImm(1, 0xdead_0000)
	b.R(isa.OpJr, 0, 1, 0)
	b.Emit(isa.Instruction{Op: isa.OpHalt})
	code, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(buildImage(t, code), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.FastForward(100); err == nil {
		t.Fatal("jump to 0xdead0000 did not error")
	}
	if _, err := eng.FastForward(1); err == nil {
		t.Fatal("error is not sticky")
	}
}

// TestPALOnlyRejected mirrors refemu: privileged opcodes are invalid
// in application code.
func TestPALOnlyRejected(t *testing.T) {
	code := []isa.Instruction{
		{Op: isa.OpMfpr, Rd: 1, Imm: 0},
		{Op: isa.OpHalt},
	}
	eng, err := New(buildImage(t, code), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.FastForward(10); err == nil {
		t.Fatal("PAL-only opcode did not error")
	}
}

// TestZeroRegisterSemantics: r31 reads as zero and discards writes,
// via the decode-time sink-slot remap.
func TestZeroRegisterSemantics(t *testing.T) {
	code := []isa.Instruction{
		{Op: isa.OpAddi, Rd: isa.RegZero, Ra: isa.RegZero, Imm: 99}, // discarded
		{Op: isa.OpAddi, Rd: 1, Ra: isa.RegZero, Imm: 5},            // r1 = 0 + 5
		{Op: isa.OpAdd, Rd: 2, Ra: 1, Rb: isa.RegZero},              // r2 = r1
		{Op: isa.OpHalt},
	}
	eng, err := New(buildImage(t, code), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.FastForward(10); err != nil {
		t.Fatal(err)
	}
	rf := eng.Regs()
	if rf.Int[isa.RegZero] != 0 || rf.Int[1] != 5 || rf.Int[2] != 5 {
		t.Fatalf("zero-register semantics broken: %v %v %v",
			rf.Int[isa.RegZero], rf.Int[1], rf.Int[2])
	}
}

// TestFastForwardBudget: FastForward commits exactly n instructions
// when the program doesn't halt, and the halt step is counted
// (refemu counts HALT in Steps).
func TestFastForwardBudget(t *testing.T) {
	b := asm.NewBuilder()
	b.Label("loop")
	b.I(isa.OpAddi, 1, 1, 1)
	b.Jump(isa.OpBr, "loop")
	code, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(buildImage(t, code), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ran, err := eng.FastForward(1001)
	if err != nil {
		t.Fatal(err)
	}
	if ran != 1001 || eng.Steps() != 1001 {
		t.Fatalf("ran %d steps %d, want 1001", ran, eng.Steps())
	}
	if got := eng.Regs().Int[1]; got != 501 {
		t.Fatalf("r1 = %d, want 501", got)
	}
}
