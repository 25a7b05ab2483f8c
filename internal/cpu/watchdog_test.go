package cpu

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// livelockedMachine builds a machine with one context wedged in a
// synthetic livelock: the thread is runnable, so allHalted never
// breaks the cycle loop, but its fetch is halted with nothing in
// flight, so no instruction will ever retire — the shape of a real
// livelock (a wedged fetch redirect, a lost wakeup) as Run sees it.
func livelockedMachine(cfg Config) *Machine {
	m := New(cfg)
	m.threads[0].state = ctxRunning
	m.threads[0].haltedFetch = true
	return m
}

func TestWatchdogFiresOnLivelock(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Contexts = 1
	cfg.MaxInsts = 1
	cfg.MaxCycles = 1_000_000
	cfg.NoProgressLimit = 200

	res, err := livelockedMachine(cfg).Run()
	var ll *LivelockError
	if !errors.As(err, &ll) {
		t.Fatalf("Run returned %v, want *LivelockError", err)
	}
	if ll.Cycle-ll.LastProgress <= cfg.NoProgressLimit {
		t.Errorf("fired after %d no-progress cycles, limit is %d", ll.Cycle-ll.LastProgress, cfg.NoProgressLimit)
	}
	if ll.Cycle > cfg.NoProgressLimit+16 {
		t.Errorf("fired at cycle %d, expected promptly after the %d-cycle limit", ll.Cycle, cfg.NoProgressLimit)
	}
	// The dump must describe the wedged machine: thread state and
	// window occupancy are the minimum a diagnosis needs.
	for _, want := range []string{"thread 0", "window 0/"} {
		if !strings.Contains(ll.Dump, want) {
			t.Errorf("dump missing %q:\n%s", want, ll.Dump)
		}
	}
	// The partial result still reports the cycles burned.
	if res.Cycles != ll.Cycle {
		t.Errorf("partial result cycles = %d, want %d", res.Cycles, ll.Cycle)
	}
}

func TestWatchdogDisabledRunsToMaxCycles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Contexts = 1
	cfg.MaxInsts = 1
	cfg.MaxCycles = 5000
	cfg.NoProgressLimit = 0

	res, err := livelockedMachine(cfg).Run()
	if err != nil {
		t.Fatalf("Run with the watchdog disabled returned %v", err)
	}
	if res.Cycles != cfg.MaxCycles {
		t.Errorf("ran %d cycles, want the full MaxCycles %d", res.Cycles, cfg.MaxCycles)
	}
}

func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	// A real workload with TLB misses retires through memory stalls
	// and handler runs; the default limit must never fire.
	cfg := testConfig()
	cfg.Mech = MechMultithreaded
	cfg.NoProgressLimit = DefaultConfig().NoProgressLimit
	setup, _ := pageWalkSetup(64)
	m := buildMachine(t, cfg, emitPageWalk(64, 4), setup)
	if _, err := m.Run(); err != nil {
		t.Fatalf("healthy run aborted: %v", err)
	}
}

func TestCancelAbortsRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Contexts = 1
	cfg.MaxInsts = 1
	cfg.MaxCycles = 1_000_000
	cfg.NoProgressLimit = 0

	m := livelockedMachine(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m.SetCancel(ctx)
	res, err := m.Run()
	var ce *CancelledError
	if !errors.As(err, &ce) {
		t.Fatalf("Run returned %v, want *CancelledError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancellation cause = %v, want context.Canceled", ce.Cause)
	}
	if res.Cycles > cancelPollMask+1 {
		t.Errorf("cancellation observed only at cycle %d, poll interval is %d", res.Cycles, cancelPollMask+1)
	}
}

// TestLockstepWatchdogNamesWedgedCore: the driver's watchdog covers
// every machine of a lockstep run. A healthy machine stepped together
// with a wedged one must not mask it: the run aborts promptly after
// the limit with a LivelockError naming the wedged machine's index and
// carrying its dump.
func TestLockstepWatchdogNamesWedgedCore(t *testing.T) {
	cfg := testConfig()
	cfg.Mech = MechMultithreaded
	cfg.NoProgressLimit = 200
	setup, _ := pageWalkSetup(64)
	healthy := buildMachine(t, cfg, emitPageWalk(64, 4), setup)
	wcfg := DefaultConfig()
	wcfg.Contexts = 1
	wcfg.MaxInsts = 1
	wcfg.MaxCycles = 1_000_000
	wcfg.NoProgressLimit = cfg.NoProgressLimit

	results, err := RunLockstep([]*Machine{healthy, livelockedMachine(wcfg)})
	var ll *LivelockError
	if !errors.As(err, &ll) {
		t.Fatalf("RunLockstep returned %v, want *LivelockError", err)
	}
	if ll.Core != 1 {
		t.Errorf("watchdog named core %d, want the wedged core 1", ll.Core)
	}
	if ll.Dump == "" {
		t.Error("livelock error carries no machine dump")
	}
	if ll.Cycle > cfg.NoProgressLimit+16 {
		t.Errorf("fired at cycle %d, expected promptly after the %d-cycle limit", ll.Cycle, cfg.NoProgressLimit)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want one per machine", len(results))
	}
	if results[1].Cycles != ll.Cycle {
		t.Errorf("wedged core's partial result covers %d cycles, want %d", results[1].Cycles, ll.Cycle)
	}
}
