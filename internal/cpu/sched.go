package cpu

// Event-driven scheduling. The cycle loop never scans the window; it
// keeps three structures that change only when an instruction's
// scheduling state does:
//
//   - the calendar, a timing wheel of (cycle, seq)-ordered events: the
//     cycle an instruction's register-read delay ends (its gate, filed
//     once nothing else holds it back) and the cycle an issued
//     instruction completes;
//   - wakeup chains, linking each consumer to the producers it still
//     waits on, so a completing producer finds exactly the consumers it
//     may have made ready;
//   - the ready list, issue candidates in (schedSeq, seq) order.
//
// Every reference is a generation-checked depRef, so an entry whose
// instruction was squashed and recycled resolves to nil and is
// dropped where it is read. The exact equivalence with a scan of the
// window is checked every cycle under Config.CheckInvariants
// (checkReadyAgainstScan, checkDueAgainstScan).

// schedEvent is an entry of the calendar or of the ready list: a uop
// reference ordered by (at, seq). at is a cycle in the calendar and
// the scheduling age (schedSeq) in the ready list.
type schedEvent struct {
	at  uint64
	seq uint64
	r   depRef
}

func (a schedEvent) before(b schedEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// wheelSlots is the calendar's horizon in cycles (a power of two).
// Nearly every event falls inside it: functional-unit latencies and
// cache hits are a few cycles, and the register-read gate is a
// pipeline depth; only main-memory misses reach past it.
const wheelSlots = 64

// calendar is a timing wheel of scheduling events. The slot for cycle
// c holds the events due at c, in seq order. An event beyond the
// horizon is parked in the horizon's last slot and filed again when
// that slot comes due. Slots are slices whose capacity is kept, so a
// warmed-up calendar files and drains events without allocating.
type calendar [wheelSlots][]schedEvent

// add files e; now is the current cycle and e.at > now.
func (c *calendar) add(e schedEvent, now uint64) {
	at := e.at
	if at-now >= wheelSlots {
		at = now + wheelSlots - 1
	}
	s := &c[at%wheelSlots]
	//lint:allow hotpathlint capacity retained across cycles; a slot holds about one cycle's events
	q := append(*s, e)
	i := len(q) - 1
	for i > 0 && e.seq < q[i-1].seq {
		q[i] = q[i-1]
		i--
	}
	q[i] = e
	*s = q
}

// slot returns the events filed for cycle now: the events due now, in
// seq order, among any parked ones that are due later. The caller
// files the parked ones again — always into another slot, as both
// their cycle and the new horizon's last one differ from now modulo
// wheelSlots — and then empties the slot with clear.
func (c *calendar) slot(now uint64) []schedEvent { return c[now%wheelSlots] }

// clear empties the slot of cycle now.
func (c *calendar) clear(now uint64) {
	s := &c[now%wheelSlots]
	*s = (*s)[:0]
}

// each visits every filed event.
func (c *calendar) each(fn func(schedEvent)) {
	for _, s := range c {
		for _, e := range s {
			fn(e)
		}
	}
}

// schedule files u's next timed event at cycle at. An event can take
// effect no earlier than the next cycle's complete stage, which runs
// before issue: each cycle's events are drained there, in seq order.
func (m *Machine) schedule(u *uop, at uint64) {
	if at <= m.now {
		at = m.now + 1
	}
	m.cal.add(schedEvent{at: at, seq: u.seq, r: ref(u)}, m.now)
}

// markIssued moves u into execution, completing at cycle done.
func (m *Machine) markIssued(u *uop, done uint64) {
	u.stage = stageIssued
	u.doneAt = done
	m.schedule(u, done)
}

// wakeLink names one dataflow edge on a producer's wakeup chain: the
// consumer's arena handle and which of its srcs the edge is. The zero
// link (the sentinel slot) ends a chain.
type wakeLink int32

func mkLink(i uopIdx, k int) wakeLink { return wakeLink(i)<<2 | wakeLink(k) }

func (l wakeLink) uop() uopIdx { return uopIdx(l >> 2) }

func (l wakeLink) src() int { return int(l & 3) }

// linkWaiter records that c's srcs[k] is produced by p, which has not
// completed: c goes on p's wakeup chain. Chains are intrusive — the
// edges live in the consumers' wakeNext slots — so they need no
// storage of their own and copy with the arena.
func (m *Machine) linkWaiter(p, c *uop, k int) {
	c.wakeNext[k] = p.wakeHead
	p.wakeHead = mkLink(c.idx, k)
	c.linked |= 1 << k
}

// unlinkWaiter takes a squashed consumer off its producers' chains
// before its storage can be recycled. Squashes run youngest first and
// a producer's chain is youngest first, so the edge is normally the
// chain head.
func (m *Machine) unlinkWaiter(c *uop) {
	for k := range c.srcs {
		if c.linked&(1<<k) == 0 {
			continue
		}
		self := mkLink(c.idx, k)
		at := &m.uopAt(c.srcs[k]).wakeHead
		for *at != self {
			at = &m.uops[at.uop()].wakeNext[at.src()]
		}
		*at = c.wakeNext[k]
	}
	c.linked = 0
}

// wakeConsumers runs when p completes: every consumer on its chain
// loses one pending producer, and one left with none becomes an issue
// candidate.
func (m *Machine) wakeConsumers(p *uop) {
	for l := p.wakeHead; l != 0; {
		c := m.at(l.uop())
		k := l.src()
		l = c.wakeNext[k]
		c.linked &^= 1 << k
		m.wake(c)
	}
	p.wakeHead = 0
}

// wake makes a window instruction an issue candidate once nothing
// holds it back: no producer is pending (linked), it is not parked
// (callers wake a parked instruction only after clearing dtlbWait) and
// its register-read delay has elapsed — those are uopReady's
// conditions, so the candidate is ready. An instruction still inside
// the delay gets a gate event instead, which wakes it again when the
// delay ends. Candidates join the unsorted tail of the ready list, so
// a wake during issue waits for the next cycle's selection, as it
// would with a scan taken before the issue loop.
func (m *Machine) wake(u *uop) {
	if u.stage != stageWindow || u.queued || u.linked != 0 {
		return
	}
	if gate := u.windowAt + uint64(m.cfg.RegReadStages); gate > m.now {
		m.schedule(u, gate)
		return
	}
	u.queued = true
	//lint:allow hotpathlint capacity retained across cycles; bounded by the window population
	m.ready = append(m.ready, schedEvent{at: u.schedSeq, seq: u.seq, r: ref(u)})
}

// collectReady returns the window instructions ready to issue, oldest
// scheduled age first (the paper's scheduling policy). The list is
// maintained incrementally: entries that issued, parked on a TLB miss
// or were squashed since the last call drop out, and the candidates
// woken since then are sorted in. Readiness is monotonic for a window
// instruction that is not parked, so nothing else can drop out.
func (m *Machine) collectReady() []schedEvent {
	q := m.ready
	n := 0
	for _, e := range q {
		u := m.uopAt(e.r)
		if u == nil {
			continue
		}
		if u.stage != stageWindow || u.dtlbWait {
			u.queued = false
			continue
		}
		j := n
		for j > 0 && e.before(q[j-1]) {
			q[j] = q[j-1]
			j--
		}
		q[j] = e
		n++
	}
	m.ready = q[:n]
	if m.cfg.CheckInvariants {
		m.checkReadyAgainstScan()
	}
	return m.ready
}

// compactWindow drops retired/squashed entries out of the window
// slice and recycles their storage, in window order. Occupancy is
// decremented eagerly by retire/squash; this drops the handles and
// releases the uops — by this point they have left the inflight,
// fetch-buffer and store-buffer structures (see releaseUop). It does
// work only after a window-resident instruction died, and stops
// scanning at the last dead entry: retirement kills the oldest
// entries, so the survivors behind them move in one copy.
func (m *Machine) compactWindow() {
	if m.windowDead == 0 {
		return
	}
	w := m.window
	keep, i := 0, 0
	for ; m.windowDead > 0; i++ {
		u := m.at(w[i])
		if u.stage == stageRetired || u.stage == stageSquashed {
			m.releaseUop(u)
			m.windowDead--
			continue
		}
		w[keep] = w[i]
		keep++
	}
	m.window = w[:keep+copy(w[keep:], w[i:])]
}
