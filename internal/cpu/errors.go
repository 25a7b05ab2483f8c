package cpu

import "fmt"

// LivelockError reports that the retirement-progress watchdog fired:
// a machine went Config.NoProgressLimit cycles without retiring a
// single instruction while at least one context was still runnable.
// It carries a compact machine dump (per-thread fetch state and PC,
// window head and occupancy, pending misses and live handler
// contexts) so a wedged simulation is diagnosable from the error
// alone instead of burning cycles to MaxCycles.
type LivelockError struct {
	// Core is the index of the wedged machine in its lockstep run
	// (RunLockstep); 0 for a single-machine run.
	Core int
	// Cycle is when the watchdog fired.
	Cycle uint64
	// LastProgress is the cycle of the last retirement.
	LastProgress uint64
	// Limit is the configured no-progress bound.
	Limit uint64
	// AppRetired counts application instructions retired before the
	// machine wedged.
	AppRetired uint64
	// Dump is the DumpState rendering at the moment the watchdog
	// fired.
	Dump string
}

func (e *LivelockError) Error() string {
	return fmt.Sprintf(
		"cpu: livelock on core %d: no instruction retired for %d cycles (limit %d) at cycle %d, %d app insts retired; machine state:\n%s",
		e.Core, e.Cycle-e.LastProgress, e.Limit, e.Cycle, e.AppRetired, e.Dump)
}

// CancelledError reports that a run was aborted through its cancel
// context (deadline or external cancellation) before completing.
type CancelledError struct {
	// Cycle is the simulated cycle at which the abort was observed.
	Cycle uint64
	// Cause is the context error behind the cancellation
	// (context.DeadlineExceeded, context.Canceled).
	Cause error
}

func (e *CancelledError) Error() string {
	return fmt.Sprintf("cpu: run cancelled at cycle %d: %v", e.Cycle, e.Cause)
}

// Unwrap exposes the context error so errors.Is(err,
// context.DeadlineExceeded) works on a timed-out cell.
func (e *CancelledError) Unwrap() error { return e.Cause }
