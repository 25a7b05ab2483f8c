package cpu

import (
	"fmt"
	"sort"
)

// CheckInvariants, when enabled in the configuration, validates the
// machine's structural invariants every cycle and panics with a
// diagnostic on the first violation. It is used throughout the test
// suite; production runs leave it off (it costs roughly 2x).
//
// The invariants are the properties the paper's mechanism depends on:
// exact window accounting (including reservations), per-thread fetch
// order in every queue, speculative-store-buffer/retirement sync, and
// handler-context consistency.
//
//mtexc:coldpath
func (m *Machine) checkInvariants() {
	// Window occupancy accounting matches the window contents.
	count := 0
	for _, ui := range m.window {
		u := m.at(ui)
		if u.pooled {
			m.invariantPanic("window holds a pooled uop (seq %d)", u.seq)
		}
		switch u.stage {
		case stageWindow, stageIssued, stageDone:
			if !(u.excFetch && m.cfg.Limit == LimitNoWindow) {
				count++
			}
		case stageRetired, stageSquashed:
			// awaiting compaction; holds no slot
		default:
			m.invariantPanic("window holds a uop in stage %d (seq %d)", u.stage, u.seq)
		}
	}
	if count != m.windowCount {
		m.invariantPanic("window occupancy %d, accounted %d", count, m.windowCount)
	}
	dead := 0
	for _, ui := range m.window {
		if s := m.at(ui).stage; s == stageRetired || s == stageSquashed {
			dead++
		}
	}
	if dead != m.windowDead {
		m.invariantPanic("window holds %d dead entries, accounted %d", dead, m.windowDead)
	}
	if m.windowCount < 0 || m.windowCount > m.cfg.WindowSize {
		m.invariantPanic("window occupancy %d outside [0,%d]", m.windowCount, m.cfg.WindowSize)
	}
	if m.reserved < 0 {
		m.invariantPanic("negative reservation %d", m.reserved)
	}

	// Reservation bookkeeping matches the live handlers.
	res := 0
	for _, hi := range m.handlers {
		ctx := &m.hArena[hi]
		if !ctx.dead {
			res += ctx.reserveLeft
		}
		if ctx.reserveLeft < 0 {
			m.invariantPanic("handler reservation negative (%d)", ctx.reserveLeft)
		}
	}
	if res != m.reserved {
		m.invariantPanic("reserved %d, handler sum %d", m.reserved, res)
	}

	for i := range m.threads {
		m.checkThreadInvariants(&m.threads[i])
	}
	m.checkSchedulerInvariants()
}

// checkSchedulerInvariants validates the event-driven scheduling
// structures (sched.go) against the machine state they summarize.
//
//mtexc:coldpath
func (m *Machine) checkSchedulerInvariants() {
	// No entry resolves to a released uop, and every calendar event
	// is still in the future (complete drains everything due).
	inCal := make(map[uopIdx]int)
	m.cal.each(func(e schedEvent) {
		u := m.uopAt(e.r)
		if u == nil {
			return
		}
		if u.pooled {
			m.invariantPanic("calendar entry resolves to released uop (seq %d)", u.seq)
		}
		if e.at <= m.now {
			m.invariantPanic("calendar event for seq %d overdue (cycle %d)", u.seq, e.at)
		}
		if u.stage != stageWindow && u.stage != stageIssued && u.stage != stageSquashed {
			m.invariantPanic("calendar holds seq %d in stage %d", u.seq, u.stage)
		}
		inCal[u.idx]++
	})
	onReady := make(map[uopIdx]int)
	for _, e := range m.ready {
		u := m.uopAt(e.r)
		if u == nil {
			continue
		}
		if u.pooled {
			m.invariantPanic("ready entry resolves to released uop (seq %d)", u.seq)
		}
		if !u.queued {
			m.invariantPanic("ready list holds seq %d without its queued mark", u.seq)
		}
		onReady[u.idx]++
	}

	for _, ui := range m.window {
		u := m.at(ui)
		if u.queued && onReady[ui] != 1 {
			m.invariantPanic("seq %d marked queued but on the ready list %d times", u.seq, onReady[ui])
		}
		switch u.stage {
		case stageIssued:
			if inCal[ui] != 1 {
				m.invariantPanic("issued seq %d in the calendar %d times", u.seq, inCal[ui])
			}
		case stageWindow:
			if u.dtlbWait || !m.producersDone(u) {
				continue
			}
			if !u.queued && inCal[ui] == 0 {
				m.invariantPanic("seq %d has its producers but is neither ready nor gated", u.seq)
			}
		}
	}

	// Wakeup chains: a dispatched or fetched uop is linked to exactly
	// the producers it still waits on, and every chain edge is a
	// linked source of a live consumer.
	for i := 1; i < len(m.uops); i++ {
		u := &m.uops[i]
		if u.pooled {
			if u.wakeHead != 0 || u.linked != 0 {
				m.invariantPanic("released uop slot %d still on a wakeup chain", i)
			}
			continue
		}
		if (u.stage == stageRetired || u.stage == stageSquashed) && (u.wakeHead != 0 || u.linked != 0) {
			m.invariantPanic("dead seq %d still on a wakeup chain", u.seq)
		}
		for l := u.wakeHead; l != 0; l = m.uops[l.uop()].wakeNext[l.src()] {
			c := &m.uops[l.uop()]
			if c.pooled || c.linked&(1<<l.src()) == 0 || m.uopAt(c.srcs[l.src()]) != u {
				m.invariantPanic("seq %d wakeup chain holds a stale edge to slot %d", u.seq, l.uop())
			}
		}
		if u.stage != stageFetched && u.stage != stageWindow {
			continue
		}
		for k, s := range u.srcs {
			p := m.uopAt(s)
			waiting := p != nil && p.stage != stageDone && p.stage != stageRetired
			if waiting != (u.linked&(1<<k) != 0) {
				m.invariantPanic("seq %d source %d: producer waiting %v, linked %v", u.seq, k, waiting, !waiting)
			}
		}
	}
}

// producersDone reports whether every producer u reads has completed.
func (m *Machine) producersDone(u *uop) bool {
	for _, s := range u.srcs {
		if p := m.uopAt(s); p != nil && p.stage != stageDone && p.stage != stageRetired {
			return false
		}
	}
	return true
}

// uopReady is the definition of readiness the ready list maintains:
// all producers have completed by cycle now, the register-read delay
// has elapsed, and the instruction is not parked on a TLB miss.
func (m *Machine) uopReady(u *uop, now uint64, regRead uint64) bool {
	if u.dtlbWait {
		return false
	}
	if now < u.windowAt+regRead {
		return false
	}
	for _, s := range u.srcs {
		p := m.uopAt(s)
		if p != nil && (p.stage != stageDone && p.stage != stageRetired || p.doneAt > now) {
			return false
		}
	}
	return true
}

// checkReadyAgainstScan compares the maintained ready list with its
// definition: every window instruction that uopReady accepts, in
// (schedSeq, seq) order.
//
//mtexc:coldpath
func (m *Machine) checkReadyAgainstScan() {
	regRead := uint64(m.cfg.RegReadStages)
	var want []*uop
	for _, ui := range m.window {
		if u := m.at(ui); u.stage == stageWindow && m.uopReady(u, m.now, regRead) {
			want = append(want, u)
		}
	}
	sort.Slice(want, func(i, j int) bool {
		return schedEvent{at: want[i].schedSeq, seq: want[i].seq}.before(schedEvent{at: want[j].schedSeq, seq: want[j].seq})
	})
	if len(want) != len(m.ready) {
		m.invariantPanic("ready list has %d entries, window scan finds %d", len(m.ready), len(want))
	}
	for i, e := range m.ready {
		if m.uopAt(e.r) != want[i] {
			m.invariantPanic("ready list entry %d is not window-scan seq %d", i, want[i].seq)
		}
	}
}

// checkDueAgainstScan compares the calendar's due completions with
// their definition: every issued window instruction with doneAt <=
// now, oldest seq first.
//
//mtexc:coldpath
func (m *Machine) checkDueAgainstScan(due []schedEvent) {
	var want []*uop
	for _, ui := range m.window {
		if u := m.at(ui); u.stage == stageIssued && u.doneAt <= m.now {
			want = append(want, u)
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i].seq < want[j].seq })
	var got []*uop
	for i, e := range due {
		if i > 0 && e.seq <= due[i-1].seq {
			m.invariantPanic("calendar slot for cycle %d out of seq order", m.now)
		}
		if u := m.uopAt(e.r); u != nil && u.stage == stageIssued && e.at == m.now {
			got = append(got, u)
		}
	}
	if len(got) != len(want) {
		m.invariantPanic("calendar has %d completions due, window scan finds %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			m.invariantPanic("due completion %d is seq %d, window scan says seq %d", i, got[i].seq, want[i].seq)
		}
	}
}

func (m *Machine) checkThreadInvariants(t *thread) {
	// In-flight list is in fetch order and the icount matches the
	// live entries.
	live := 0
	var prev uint64
	for i, ui := range t.inflight {
		u := m.at(ui)
		if u.pooled {
			m.invariantPanic("thread %d inflight holds a pooled uop (seq %d)", t.id, u.seq)
		}
		if u.tid != t.id {
			m.invariantPanic("thread %d inflight holds seq %d of thread %d", t.id, u.seq, u.tid)
		}
		if i > 0 && u.seq <= prev {
			m.invariantPanic("thread %d inflight out of order (%d after %d)", t.id, u.seq, prev)
		}
		prev = u.seq
		if u.stage != stageRetired && u.stage != stageSquashed {
			live++
		}
	}
	if live != t.icount {
		m.invariantPanic("thread %d icount %d, live in-flight %d", t.id, t.icount, live)
	}

	// The fetch buffer holds only live, fetched-stage entries in order.
	prev = 0
	for i, ui := range t.fetchBuf {
		u := m.at(ui)
		if u.pooled {
			m.invariantPanic("thread %d fetch buffer holds a pooled uop (seq %d)", t.id, u.seq)
		}
		if u.stage != stageFetched {
			m.invariantPanic("thread %d fetch buffer entry %d in stage %d", t.id, i, u.stage)
		}
		if i > 0 && u.seq <= prev {
			m.invariantPanic("thread %d fetch buffer out of order", t.id)
		}
		prev = u.seq
	}
	nonInstant := 0
	for _, ui := range t.fetchBuf {
		if !m.at(ui).instant {
			nonInstant++
		}
	}
	if nonInstant > m.cfg.FetchBufferCap {
		m.invariantPanic("thread %d fetch buffer %d over cap %d", t.id, nonInstant, m.cfg.FetchBufferCap)
	}

	// The speculative store buffer mirrors the unretired stores of the
	// in-flight list exactly, in order.
	var stores []*uop
	for _, ui := range t.inflight {
		u := m.at(ui)
		if u.isStore() && u.stage != stageRetired && u.stage != stageSquashed && !u.pal {
			stores = append(stores, u)
		}
	}
	if len(stores) != len(t.ssb) {
		m.invariantPanic("thread %d SSB has %d entries, %d unretired stores in flight", t.id, len(t.ssb), len(stores))
	}
	for i, e := range t.ssb {
		su := m.at(e.idx)
		if su.pooled {
			m.invariantPanic("thread %d SSB holds a pooled uop (seq %d)", t.id, e.seq)
		}
		if su != stores[i] {
			m.invariantPanic("thread %d SSB entry %d (seq %d) != in-flight store (seq %d)",
				t.id, i, e.seq, stores[i].seq)
		}
	}

	// Handler-context linkage.
	if t.state == ctxException {
		exc := m.hctx(t.exc)
		if exc == nil || exc.dead {
			m.invariantPanic("thread %d in exception state without a live context", t.id)
		}
		if exc.tid != t.id {
			m.invariantPanic("thread %d exception context claims tid %d", t.id, exc.tid)
		}
	}
	if t.state == ctxIdle && (t.icount != 0 || len(t.fetchBuf) != 0) && !t.primed {
		m.invariantPanic("idle thread %d still holds work", t.id)
	}
}

// invariantPanic aborts the run with a state dump; it never returns.
//
//mtexc:coldpath
func (m *Machine) invariantPanic(format string, args ...any) {
	panic(fmt.Sprintf("cpu: invariant violated at cycle %d: %s", m.now,
		fmt.Sprintf(format, args...)))
}
