package cpu

import (
	"math/rand"
	"testing"

	"mtexc/internal/isa"
	"mtexc/internal/isa/asm"
	"mtexc/internal/trace"
	"mtexc/internal/vm"
)

// The paths below change an instruction's scheduling state outside
// the issue loop. Every test runs with CheckInvariants, which compares
// the ready list and the due completions with a full window scan each
// cycle; the tests make sure each path is actually taken while those
// checks run, and check the state the path leaves behind.

// stepUntil steps m one cycle at a time until cond holds after a step,
// failing the test if that takes more than limit cycles.
func stepUntil(t *testing.T, m *Machine, limit uint64, what string, cond func() bool) {
	t.Helper()
	for i := uint64(0); i < limit; i++ {
		if m.allHalted() {
			break
		}
		m.step()
		if cond() {
			return
		}
	}
	t.Fatalf("%s: not reached within %d cycles", what, limit)
}

// calendarEvents counts the live calendar events resolving to u.
func calendarEvents(m *Machine, u *uop) (n int) {
	m.cal.each(func(e schedEvent) {
		if m.uopAt(e.r) == u {
			n++
		}
	})
	return n
}

// convertedMaster returns the excepting instruction a WRTDEST
// converted in the cycle just stepped: issued by its handler, not by
// the issue loop, so it completes one cycle later.
func convertedMaster(m *Machine) *uop {
	for _, hi := range m.handlers {
		ctx := &m.hArena[hi]
		if ctx.dead || ctx.kind == kindTLB {
			continue
		}
		if mu := m.uopAt(ctx.master); mu != nil && mu.stage == stageIssued && mu.doneAt == m.now {
			return mu
		}
	}
	return nil
}

// TestSchedWrtDestConversion: a handler thread's WRTDEST completes the
// parked excepting instruction without issuing it. The converted
// master must enter the calendar once, complete on the next cycle and
// wake its consumers — for both the emulation and the unaligned-access
// handlers.
func TestSchedWrtDestConversion(t *testing.T) {
	const n = 200
	unalignedInit, unalignedWant := unalignedSetup(n)
	cases := []struct {
		name  string
		emit  func(*asm.Builder)
		setup func(*vm.AddressSpace)
		want  uint64
		tweak func(*Config)
	}{
		{"emulation", emitPopcLoop(n), func(a *vm.AddressSpace) { a.WriteU64(testResultVA, 0) },
			popcLoopExpected(n), func(c *Config) { c.EmulatePopc = true }},
		{"unaligned", emitUnalignedWalk(n, 4), unalignedInit,
			unalignedWant, func(c *Config) { c.TrapUnaligned = true }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Mech = MechMultithreaded
			cfg.Contexts = 2
			c.tweak(&cfg)
			var as *vm.AddressSpace
			m := buildMachine(t, cfg, c.emit, func(a *vm.AddressSpace) {
				as = a
				c.setup(a)
			})
			for conversions := 0; conversions < 3; conversions++ {
				before := m.Stats.Get("emu.destwrites")
				stepUntil(t, m, 100_000, "WRTDEST conversion", func() bool {
					return m.Stats.Get("emu.destwrites") > before
				})
				mu := convertedMaster(m)
				if mu == nil || mu.dtlbWait {
					t.Fatal("WRTDEST left no issued, unparked master")
				}
				if got := calendarEvents(m, mu); got != 1 {
					t.Fatalf("converted master has %d calendar events, want 1", got)
				}
				if mu.queued {
					t.Fatal("converted master is still on the ready list")
				}
				m.step()
				if mu.stage != stageDone && mu.stage != stageRetired && !mu.pooled {
					t.Fatalf("converted master in stage %d one cycle later, want done", mu.stage)
				}
				if mu.wakeHead != 0 {
					t.Fatal("completed master still holds a wakeup chain")
				}
			}
			mustRun(t, m)
			if got := as.ReadU64(testResultVA); got != c.want {
				t.Errorf("result %#x, want %#x", got, c.want)
			}
		})
	}
}

// emitSamePageLoads builds a page walk whose every page is read by
// two loads, so the second one misses on a fill already in flight and
// parks as a waiter on the first one's handler or walk.
func emitSamePageLoads(pages int64) func(b *asm.Builder) {
	return func(b *asm.Builder) {
		b.LoadImm(10, testDataVA)
		b.LoadImm(1, uint64(pages))
		b.I(isa.OpLdi, 12, 0, 1)
		b.I(isa.OpSlli, 12, 12, int64(vm.PageShift))
		b.Label("loop")
		b.I(isa.OpLdq, 4, 10, 0)
		b.I(isa.OpLdq, 5, 10, 8)
		b.R(isa.OpAdd, 3, 3, 4)
		b.R(isa.OpAdd, 3, 3, 5)
		b.R(isa.OpAdd, 10, 10, 12)
		b.I(isa.OpAddi, 1, 1, -1)
		b.Branch(isa.OpBne, 1, "loop")
		b.LoadImm(11, testResultVA)
		b.I(isa.OpStq, 3, 11, 0)
		b.Emit(isa.Instruction{Op: isa.OpHalt})
	}
}

// TestSchedParkAndWakeWaiters: a load that misses on a page whose fill
// is in flight parks (dtlbWait) and leaves the ready list; the fill's
// wakeWaiters releases it, and it must be an issue candidate again in
// the cycle it wakes.
func TestSchedParkAndWakeWaiters(t *testing.T) {
	const pages = 64
	for _, mech := range []Mechanism{MechMultithreaded, MechHardware} {
		t.Run(mech.String(), func(t *testing.T) {
			cfg := testConfig()
			cfg.Mech = mech
			cfg.Contexts = 2
			var as *vm.AddressSpace
			m := buildMachine(t, cfg, emitSamePageLoads(pages), func(a *vm.AddressSpace) {
				as = a
				for i := int64(0); i < pages; i++ {
					a.WriteU64(testDataVA+uint64(i)*vm.PageSize, uint64(i))
					a.WriteU64(testDataVA+uint64(i)*vm.PageSize+8, uint64(3*i))
				}
				a.WriteU64(testResultVA, 0)
			})
			for parked := 0; parked < 3; parked++ {
				before := m.Stats.Get("dtlb.misses.secondary")
				stepUntil(t, m, 100_000, "secondary miss", func() bool {
					return m.Stats.Get("dtlb.misses.secondary") > before
				})
				var w *uop
				for _, hi := range m.handlers {
					if ctx := &m.hArena[hi]; !ctx.dead && len(ctx.waiters) > 0 {
						w = m.at(ctx.waiters[len(ctx.waiters)-1])
					}
				}
				if w == nil || !w.dtlbWait {
					t.Fatal("secondary miss left no parked waiter")
				}
				m.step() // the next selection drops the parked entry
				if w.stage == stageWindow && w.dtlbWait && w.queued {
					t.Fatal("parked waiter still on the ready list")
				}
				stepUntil(t, m, 100_000, "waiter wakes", func() bool { return !w.dtlbWait })
				if w.stage == stageWindow && !w.queued {
					t.Fatal("woken waiter neither issued nor on the ready list")
				}
			}
			mustRun(t, m)
			var want uint64
			for i := uint64(0); i < pages; i++ {
				want += 4 * i
			}
			if got := as.ReadU64(testResultVA); got != want {
				t.Errorf("result %d, want %d", got, want)
			}
		})
	}
}

// TestSchedDeadlockAvoidSquash: a handler that finds the window full
// squashes the master thread's youngest instructions (Section 4.4).
// Squashed victims may be waiting, ready or executing; their ready
// entries and calendar events go stale and must be dropped without
// disturbing the survivors.
func TestSchedDeadlockAvoidSquash(t *testing.T) {
	const pages = 256
	setup, want := pageWalkSetup(pages)
	cfg := testConfig()
	cfg.Mech = MechMultithreaded
	cfg.Contexts = 2
	cfg.WindowSize = 24
	cfg.NoWindowReservation = true
	var as *vm.AddressSpace
	m := buildMachine(t, cfg, emitPageWalk(pages, 1), func(a *vm.AddressSpace) {
		as = a
		setup(a)
	})
	res := mustRun(t, m)
	if res.Stats.Get("window.deadlock.squashes") == 0 {
		t.Fatal("no deadlock-avoidance squash happened")
	}
	if got := as.ReadU64(testResultVA); got != want {
		t.Errorf("result %d, want %d", got, want)
	}
}

// TestSchedSameCycleMispredictSquash: a mispredicted branch and its
// wrong-path successors often issue in the same cycle. When the branch
// resolves, the successors still executing are squashed with their
// completion events pending; those events must be dropped, and the
// recycled storage must not be completed by them.
func TestSchedSameCycleMispredictSquash(t *testing.T) {
	const n = 2000
	rng := rand.New(rand.NewSource(7))
	var want uint64
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(rng.Intn(1000))
		if vals[i]&1 == 1 {
			want += vals[i]
		}
	}
	cfg := testConfig()
	cfg.Mech = MechPerfect
	var as *vm.AddressSpace
	m := buildMachine(t, cfg, emitBranchy(n), func(a *vm.AddressSpace) {
		as = a
		for i, v := range vals {
			a.WriteU64(testDataVA+uint64(i)*8, v)
		}
		a.WriteU64(testResultVA, 0)
	})
	var branches, squashed []trace.Record
	m.TraceHook = func(r trace.Record) {
		switch {
		case r.Squashed:
			squashed = append(squashed, r)
		case r.Op == isa.OpBeq.String():
			branches = append(branches, r)
		}
	}
	mustRun(t, m)
	if got := as.ReadU64(testResultVA); got != want {
		t.Fatalf("result %d, want %d", got, want)
	}
	resolvedAt := make(map[uint64]trace.Record) // squash cycle -> branch
	for _, b := range branches {
		resolvedAt[b.DoneAt] = b
	}
	inFlight := 0
	for _, s := range squashed {
		b, ok := resolvedAt[s.EndAt]
		if ok && s.Seq > b.Seq && s.IssueAt == b.IssueAt && s.DoneAt > s.EndAt {
			inFlight++
		}
	}
	if inFlight == 0 {
		t.Fatal("no wrong-path instruction issued with its branch was squashed in flight")
	}
}
