package cpu

import (
	"fmt"
	"math/bits"

	"repro/internal/isa"
	"repro/internal/power"
	"repro/internal/uarch"
)

// CycleResult reports what one clock cycle did, for power conversion
// and for failure-path analysis.
type CycleResult struct {
	// EnergyPJ is the dynamic energy consumed this cycle (all modules).
	EnergyPJ float64
	// UnitIssues counts issued uops per execution-unit kind chip-wide.
	UnitIssues [isa.NumUnits]int
	// Decoded counts instructions leaving the front ends (incl. NOPs).
	Decoded int
}

// Chip is the whole processor: modules, shared L3, barrier registry.
type Chip struct {
	cfg uarch.ChipConfig
	pm  power.Model

	modules []*module
	l3      *Cache

	cycle    uint64
	throttle int // live FP throttle limit; 0 = off
	// feTurn is the core whose turn it is at a shared front end this
	// cycle: the cycle number modulo CoresPerModule.
	feTurn int

	// Barrier registry. Barrier ids are registered at Attach (from the
	// thread's pre-decoded templates) into dense slots so the per-cycle
	// paths never touch a map: barriers[slot] holds the waiting set as a
	// per-core bool slice plus a count, waitingCores is the chip-wide
	// total (the fast-path gate), and partsScratch is the reusable
	// participant buffer for releaseBarriers.
	barriers     []barrierState
	barrierIdx   map[int64]int32
	waitingCores int
	partsScratch []*core

	res CycleResult // scratch for the current cycle

	// Aligned-module classes (GroupAligned). grouping: the chip opted in
	// and its classes form at the first Step; grouped: some module is a
	// class member, stepped through its representative; diverged: a
	// member left lockstep, so the run no longer is the chip's.
	grouping, grouped, diverged bool
}

// barrierState is one registered barrier id's waiting set.
type barrierState struct {
	id      int64
	waiting []bool // indexed by global core
	count   int
}

type module struct {
	chip  *Chip
	idx   int
	cores []*core
	live  []*core // the cores holding a thread, in core order
	l2    *Cache

	// Shared-FPU state.
	fpToken   int // round-robin arbitration among sibling cores
	fpLastSrc isa.Value
	fpLastRes isa.Value
	fpIssued  bool // any FP issue this cycle (for FP idle energy)

	// rep, on a class member, is the representative that steps for it,
	// and base how far the member's addresses lie above the
	// representative's. log, on a representative, records each cycle's
	// work for its members to re-add; logBuf keeps that log's arrays
	// across Reset. weight is how many modules the module's issues and
	// decodes count for: 1 plus its members. The counts are integers, so
	// a representative adds its members' share with its own.
	rep    *module
	base   uint64
	log    *stepLog
	logBuf stepLog
	weight int
}

// stepLog is what a class representative did in one cycle: its energy
// addends in the order it added them (decodeEnd splits the decode
// phase's from the issue phase's) and the L3 lookups of its issue
// phase.
type stepLog struct {
	addends   []float64
	decodeEnd int
	l3        []l3Lookup
}

// l3Lookup is one access that reached the shared L3, and the level
// that served it.
type l3Lookup struct {
	addr  uint64
	level memLevel
}

func (l *stepLog) reset() {
	l.addends, l.l3, l.decodeEnd = l.addends[:0], l.l3[:0], 0
}

// entry is one queued uop in a core's issue-queue slab: what issue and
// execute read of the decoded uop, plus its readiness and wakeup links.
type entry struct {
	tpl          *uopTemplate
	srcA, result isa.Value
	addr         uint64
	seq          uint64 // dynamic instruction number: the entry's age
	// readyAt is the cycle by which every issued producer's result is
	// available; pending counts producers that have not issued yet.
	// The entry may issue once pending is 0 and readyAt ≤ now.
	readyAt uint64
	pending uint8
	// memLevel is the level that serviced a memory access, probed (and
	// filled) once, the first time the access could issue; a blocked
	// access keeps charging that level on retry. 0 until probed.
	memLevel memLevel
	// prev and next link the entry into its unit's ready list once
	// pending reaches 0; next also threads the core's free list. -1
	// ends a list.
	prev, next int32
	// waiters heads the consumers to wake when this entry issues, each
	// coded consumer<<2 | source slot; a consumer's nextWaiter[slot]
	// continues the list.
	waiters    int32
	nextWaiter [4]int32
}

// readyList is one execution unit's queued entries whose producers
// have all issued, oldest first. An entry joins when its last producer
// issues and leaves when it issues, without moving any other entry.
type readyList struct{ head, tail int32 }

type core struct {
	mod  *module
	idx  int // within module
	gidx int // global core index
	th   *Thread
	l1   *Cache

	// ents is the slab both issue queues draw from (IntQueue+FPQueue
	// entries, so decode's per-queue bounds keep a free one); freeEnt
	// heads its free list. intN and fpN are the queue occupancies;
	// ready[u] lists unit u's entries with no unissued producer.
	ents    []entry
	freeEnt int32
	intN    int
	fpN     int
	ready   [isa.NumUnits]readyList
	// readyMask has bit u set while ready[u] is not empty.
	readyMask uint8
	picks     []int32 // issueInt's per-cycle selection
	lsq       int     // mem ops currently queued

	// Readiness is pushed, not polled. regWriter[r] is the queued entry
	// that last renamed r as its destination, while that entry has not
	// issued (-1 otherwise); regReadyAt[r] is the cycle the issued last
	// writer's result is available (0: architecturally ready).
	regWriter  [isa.TotalRegs]int32
	regReadyAt [isa.TotalRegs]uint64

	stallUntil    uint64
	idivBusyUntil uint64

	// mshr[i] is the cycle at which outstanding miss i completes.
	mshr []uint64

	// busUsed and busCycle are the result-bus ring: a power of two
	// long, at least the longest latency plus 64 cycles, indexed by the
	// write-back cycle masked with busMask.
	busUsed  []uint8
	busCycle []uint64
	busMask  uint64

	waitBarrier int64 // -1 when not waiting

	// Branch predictor state (gshare) and statistics.
	ghist       uint32
	btable      []uint8
	branches    uint64
	mispredicts uint64

	// Per-unit toggle state for the integer cluster and LSU.
	lastSrc [isa.NumUnits]isa.Value
	lastRes [isa.NumUnits]isa.Value

	retired   uint64
	activeNow bool
}

// NewChip builds a chip from a validated config and power model.
func NewChip(cfg uarch.ChipConfig, pm power.Model) (*Chip, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := pm.Validate(); err != nil {
		return nil, err
	}
	l3, err := NewCache(cfg.L3Bytes, cfg.L3Ways, cfg.LineBytes)
	if err != nil {
		return nil, err
	}
	ch := &Chip{
		cfg:          cfg,
		pm:           pm,
		l3:           l3,
		throttle:     cfg.FPThrottleLimit,
		barrierIdx:   map[int64]int32{},
		partsScratch: make([]*core, 0, cfg.Threads()),
	}
	horizon := 1 << bits.Len(uint(cfg.MemLat+64-1))
	g := 0
	for mi := 0; mi < cfg.Modules; mi++ {
		l2, err := NewCache(cfg.L2Bytes, cfg.L2Ways, cfg.LineBytes)
		if err != nil {
			return nil, err
		}
		m := &module{chip: ch, idx: mi, l2: l2, live: make([]*core, 0, cfg.CoresPerModule), weight: 1}
		for ci := 0; ci < cfg.CoresPerModule; ci++ {
			l1, err := NewCache(cfg.L1Bytes, cfg.L1Ways, cfg.LineBytes)
			if err != nil {
				return nil, err
			}
			c := &core{
				mod:         m,
				idx:         ci,
				gidx:        g,
				l1:          l1,
				ents:        make([]entry, cfg.IntQueue+cfg.FPQueue),
				picks:       make([]int32, 0, cfg.NumALU+cfg.NumAGU+cfg.LSUPorts+2),
				mshr:        make([]uint64, cfg.MSHRs),
				busUsed:     make([]uint8, horizon),
				busCycle:    make([]uint64, horizon),
				busMask:     uint64(horizon - 1),
				waitBarrier: -1,
			}
			c.resetQueues()
			if cfg.Predictor == "gshare" {
				c.btable = make([]uint8, 4096)
				for i := range c.btable {
					c.btable[i] = 1 // weakly not-taken
				}
			}
			m.cores = append(m.cores, c)
			g++
		}
		ch.modules = append(ch.modules, m)
	}
	return ch, nil
}

// Reset returns the chip to its just-constructed state: threads
// detached, caches cold, predictor re-initialised, queues and scratch
// state cleared. A reset chip behaves bit-identically to a fresh
// NewChip with the same config and power model — that property is what
// lets the compiled testbed pool chip instances across runs instead of
// reallocating the multi-megabyte cache arrays every evaluation.
func (ch *Chip) Reset() {
	ch.cycle = 0
	ch.throttle = ch.cfg.FPThrottleLimit
	ch.feTurn = 0
	ch.res = CycleResult{}
	ch.grouping, ch.grouped, ch.diverged = false, false, false
	ch.barriers = ch.barriers[:0]
	for id := range ch.barrierIdx {
		delete(ch.barrierIdx, id)
	}
	ch.waitingCores = 0
	ch.partsScratch = ch.partsScratch[:0]
	ch.l3.Reset()
	for _, m := range ch.modules {
		m.l2.Reset()
		m.live = m.live[:0]
		m.rep, m.base, m.log, m.weight = nil, 0, nil, 1
		m.fpToken = 0
		m.fpLastSrc = isa.Value{}
		m.fpLastRes = isa.Value{}
		m.fpIssued = false
		for _, c := range m.cores {
			c.th = nil
			c.l1.Reset()
			c.resetQueues()
			c.lsq = 0
			c.stallUntil = 0
			c.idivBusyUntil = 0
			for i := range c.mshr {
				c.mshr[i] = 0
			}
			for i := range c.busUsed {
				c.busUsed[i] = 0
			}
			for i := range c.busCycle {
				c.busCycle[i] = 0
			}
			c.waitBarrier = -1
			c.ghist = 0
			for i := range c.btable {
				c.btable[i] = 1
			}
			c.branches, c.mispredicts = 0, 0
			c.lastSrc = [isa.NumUnits]isa.Value{}
			c.lastRes = [isa.NumUnits]isa.Value{}
			c.retired = 0
			c.activeNow = false
		}
	}
}

// Config returns the chip's configuration.
func (ch *Chip) Config() uarch.ChipConfig { return ch.cfg }

// Cycle returns the current cycle number.
func (ch *Chip) Cycle() uint64 { return ch.cycle }

// SetFPThrottle sets the live FP issue cap (0 disables throttling).
func (ch *Chip) SetFPThrottle(limit int) { ch.throttle = limit }

// Attach places a thread on (module, core). The slot must be empty.
func (ch *Chip) Attach(moduleIdx, coreIdx int, th *Thread) error {
	if moduleIdx < 0 || moduleIdx >= len(ch.modules) {
		return fmt.Errorf("cpu: module %d out of range", moduleIdx)
	}
	m := ch.modules[moduleIdx]
	if coreIdx < 0 || coreIdx >= len(m.cores) {
		return fmt.Errorf("cpu: core %d out of range in module %d", coreIdx, moduleIdx)
	}
	c := m.cores[coreIdx]
	if c.th != nil {
		return fmt.Errorf("cpu: module %d core %d already occupied", moduleIdx, coreIdx)
	}
	th.SetGlobalBase(uint64(c.gidx+1) << 32)
	c.th = th
	m.live = m.live[:0]
	for _, c := range m.cores {
		if c.th != nil {
			m.live = append(m.live, c)
		}
	}
	// Register the program's barrier ids into dense slots and annotate
	// the thread's templates with them, so barrier decode and release
	// never consult a map.
	for i := range th.tmpl {
		tpl := &th.tmpl[i]
		if tpl.class == isa.ClassBarrier {
			tpl.barrierSlot = ch.barrierSlot(tpl.barrierID)
		}
	}
	return nil
}

// barrierSlot returns (registering if new) the dense slot of a barrier
// id.
func (ch *Chip) barrierSlot(id int64) int32 {
	if s, ok := ch.barrierIdx[id]; ok {
		return s
	}
	s := int32(len(ch.barriers))
	ch.barriers = append(ch.barriers, barrierState{
		id:      id,
		waiting: make([]bool, ch.cfg.Threads()),
	})
	ch.barrierIdx[id] = s
	return s
}

// InjectStall freezes a core's decode for the given number of cycles,
// starting now. This implements dither padding ("one cycle worth of NOP
// padding") and OS-tick interference.
func (ch *Chip) InjectStall(globalCore int, cycles uint64) error {
	c, err := ch.coreByGlobal(globalCore)
	if err != nil {
		return err
	}
	until := ch.cycle + cycles
	if until > c.stallUntil {
		c.stallUntil = until
	}
	if m := c.mod; m.rep != nil || m.log != nil {
		ch.diverged = true // a grouped module's stall after the classes formed
	}
	return nil
}

func (ch *Chip) coreByGlobal(g int) (*core, error) {
	for _, m := range ch.modules {
		for _, c := range m.cores {
			if c.gidx == g {
				return c, nil
			}
		}
	}
	return nil, fmt.Errorf("cpu: no core %d", g)
}

// Stats summarises pipeline and memory behaviour over the run so far.
type Stats struct {
	Branches, Mispredicts uint64
	L1Hits, L1Misses      uint64
	L2Hits, L2Misses      uint64
	L3Hits, L3Misses      uint64
}

// Stats aggregates counters across cores and cache levels. A class
// member's L1, L2 and branch counters are its representative's; the L3
// counters are the shared L3's own.
func (ch *Chip) Stats() Stats {
	var s Stats
	for _, m := range ch.modules {
		m = m.self()
		h, mi := m.l2.Stats()
		s.L2Hits += h
		s.L2Misses += mi
		for _, c := range m.cores {
			s.Branches += c.branches
			s.Mispredicts += c.mispredicts
			h, mi := c.l1.Stats()
			s.L1Hits += h
			s.L1Misses += mi
		}
	}
	s.L3Hits, s.L3Misses = ch.l3.Stats()
	return s
}

// Retired returns total dynamic instructions consumed chip-wide.
func (ch *Chip) Retired() uint64 {
	var n uint64
	for _, m := range ch.modules {
		for _, c := range m.self().live {
			n += c.retired
		}
	}
	return n
}

// CoreRetired returns the dynamic instruction count of one core.
func (ch *Chip) CoreRetired(globalCore int) uint64 {
	c, err := ch.coreByGlobal(globalCore)
	if err != nil {
		return 0
	}
	return c.mod.self().cores[c.idx].retired
}

// Done reports whether every attached thread has finished and all
// queues have drained.
func (ch *Chip) Done() bool {
	for _, m := range ch.modules {
		if m.rep != nil {
			continue // done when its representative is
		}
		for _, c := range m.live {
			if !c.th.Done() || c.intN > 0 || c.fpN > 0 || c.waitBarrier >= 0 {
				return false
			}
		}
	}
	return true
}

// Step advances the chip by one clock cycle and returns the cycle's
// activity and energy. The result is the chip's own: it holds until the
// next Step or Reset.
//
// Every module adds its energy to one accumulator, module by module
// within each phase: decode, then issue and execute, then the end of
// the cycle. A class member adds, at its own place in that order, the
// addends its representative logged for the phase, so the float sum
// is the one stepping every module would give.
func (ch *Chip) Step() *CycleResult {
	if ch.grouping {
		ch.formClasses()
	}
	ch.res = CycleResult{}
	now := ch.cycle

	for _, m := range ch.modules {
		m.fpIssued = false
		for _, c := range m.live {
			c.activeNow = false
		}
		if m.log != nil {
			m.log.reset()
		}
	}

	// Front ends.
	for _, m := range ch.modules {
		switch {
		case m.rep != nil:
			l := m.rep.log
			ch.readd(l.addends[:l.decodeEnd])
		case m.log != nil:
			m.decode(now)
			m.log.decodeEnd = len(m.log.addends)
		default:
			m.decode(now)
		}
	}
	if ch.feTurn++; ch.feTurn == ch.cfg.CoresPerModule {
		ch.feTurn = 0
	}
	// Back ends: integer clusters then the FP cluster(s).
	for _, m := range ch.modules {
		if m.rep != nil {
			m.replayIssue()
		} else {
			m.issue(now)
		}
	}
	// Barrier release check.
	ch.releaseBarriers(now)

	// Machine-level energy.
	e := &ch.res.EnergyPJ
	*e += float64(len(ch.modules)) * ch.pm.ClockPJPerModuleCycle
	for _, m := range ch.modules {
		m = m.self()
		if !m.fpIssued {
			*e += ch.pm.FPIdlePJPerCycle
		}
		for _, c := range m.live {
			if c.activeNow {
				*e += ch.pm.CorePJPerActiveCycle
			}
		}
	}

	ch.cycle++
	return &ch.res
}

// issue is the module's back end for one cycle: each core's integer
// cluster, then the FP cluster.
func (m *module) issue(now uint64) {
	for _, c := range m.live {
		c.issueInt(now)
	}
	m.issueFP(now)
}

// charge adds one energy addend to the cycle's total and, on a class
// representative, logs it for the members to re-add.
func (m *module) charge(pj float64) {
	m.chip.res.EnergyPJ += pj
	if m.log != nil {
		m.log.addends = append(m.log.addends, pj)
	}
}

// readd adds a representative's logged addends to the cycle's total,
// one at a time, in the order it added them.
func (ch *Chip) readd(addends []float64) {
	e := ch.res.EnergyPJ
	for _, v := range addends {
		e += v
	}
	ch.res.EnergyPJ = e
}

// ---- aligned modules ----

// GroupAligned opts the chip into stepping each class of aligned,
// identical modules once. Call it before the first Step, where the
// classes form: two modules group when, core slot by core slot, both
// are empty or both hold threads that share their compiled templates
// (Thread.Sibling), their MaxInstrs bound, their progress and their
// decode stall, the program holds no lea and no barrier, and some slot
// holds a thread. The lowest-index module of a class, the
// representative, steps and counts its members' issues and decodes
// with its own; every other member re-adds the representative's energy
// addends at the member's own place in module order, and replays its
// L3 lookups into the shared L3 at the member's own addresses. Stats,
// Retired, CoreRetired and Done answer for a member from its
// representative. Results equal stepping every module, bit for bit,
// unless Diverged reports otherwise.
func (ch *Chip) GroupAligned() {
	if ch.cycle == 0 {
		ch.grouping = true
	}
}

// Grouped reports whether some module steps through a representative.
func (ch *Chip) Grouped() bool { return ch.grouped }

// Diverged reports that a grouped run left lockstep: a member's L3
// lookup was served by another level than its representative's, or a
// stall was injected into a grouped module after the classes formed.
// The results of such a run are not the chip's; run it again without
// GroupAligned.
func (ch *Chip) Diverged() bool { return ch.diverged }

// formClasses groups the modules at the first Step of a chip that
// opted in. A chip with barriers groups nothing: the barrier registry
// couples every module.
func (ch *Chip) formClasses() {
	ch.grouping = false
	if len(ch.barriers) > 0 {
		return
	}
	// Done primes threads only up to the first live one, so prime the
	// rest: a thread's lookahead is computed once, whenever it is first
	// asked for, and the stream is the same either way.
	for _, m := range ch.modules {
		for _, c := range m.live {
			c.th.prime()
		}
	}
	cpm := uint64(ch.cfg.CoresPerModule)
	for i, m := range ch.modules {
		for _, r := range ch.modules[:i] {
			if r.rep == nil && aligned(r, m) {
				m.rep = r
				m.base = uint64(m.idx-r.idx) * cpm << 32
				r.log = &r.logBuf
				r.weight++
				ch.grouped = true
				break
			}
		}
	}
}

// aligned reports whether module m runs in lockstep with module r, and
// holds a thread: empty modules cost too little to group.
func aligned(r, m *module) bool {
	if len(r.live) == 0 {
		return false
	}
	for ci, a := range r.cores {
		b := m.cores[ci]
		if a.th == nil || b.th == nil {
			if a.th != b.th {
				return false
			}
			continue
		}
		if !a.th.lockstep(b.th) || a.stallUntil != b.stallUntil {
			return false
		}
	}
	return true
}

// replayIssue is a member's issue phase: it re-adds the
// representative's issue addends and replays its L3 lookups at the
// member's own addresses. A lookup served by another level than the
// representative's means the member has left lockstep.
func (m *module) replayIssue() {
	ch := m.chip
	l := m.rep.log
	ch.readd(l.addends[l.decodeEnd:])
	for _, lk := range l.l3 {
		level := levelMem
		if ch.l3.Access(lk.addr + m.base) {
			level = levelL3
		}
		if level != lk.level {
			ch.diverged = true
		}
	}
}

// self is the module whose state stands for m: its representative, or
// m itself.
func (m *module) self() *module {
	if m.rep != nil {
		return m.rep
	}
	return m
}

// ---- front end ----

func (m *module) decode(now uint64) {
	cfg := &m.chip.cfg
	if cfg.SharedFrontEnd && len(m.live) > 1 {
		// Sibling threads alternate decode cycles; if the scheduled
		// thread cannot use the slot at all, the partner takes it.
		n := len(m.cores)
		first := m.chip.feTurn
		for k := 0; k < n; k++ {
			ci := first + k
			if ci >= n {
				ci -= n
			}
			if u, ok := m.cores[ci].decodeReady(now); ok {
				m.cores[ci].decode(now, cfg.DecodeWidth, u)
				return
			}
		}
		return
	}
	// Private front ends, or a shared one with a single thread, which
	// then decodes every cycle it can.
	for _, c := range m.live {
		if u, ok := c.decodeReady(now); ok {
			c.decode(now, cfg.DecodeWidth, u)
		}
	}
}

// decodeReady returns the uop the core would decode first, if the core
// can consume any decode slot.
func (c *core) decodeReady(now uint64) (*Uop, bool) {
	if c.th == nil || c.waitBarrier >= 0 || now < c.stallUntil {
		return nil, false
	}
	return c.th.Peek()
}

// decode decodes up to width uops, u (from decodeReady) first.
func (c *core) decode(now uint64, width int, u *Uop) {
	m := c.mod
	ch := m.chip
	cfg := &ch.cfg
	pm := &ch.pm
	decoded := 0
	intDisp, fpDisp := cfg.IntDispatch, cfg.FPDispatch
	for {
		tpl := u.tpl
		switch {
		case tpl.class == isa.ClassNOP:
			// Fetch/decode only: no queue entry, no unit, no result. The
			// same-opcode NOPs behind this one retire with it straight
			// from the templates; energy still accrues one NOP at a time.
			n := c.th.ConsumeNops(width - decoded)
			e := pm.FrontEndPJPerOp + tpl.energyPJ
			for i := 0; i < n; i++ {
				m.charge(e)
			}
			c.retired += uint64(n)
			decoded += n
		case tpl.class == isa.ClassBarrier:
			c.waitBarrier = u.BarrierID
			b := &ch.barriers[tpl.barrierSlot]
			if !b.waiting[c.gidx] {
				b.waiting[c.gidx] = true
				b.count++
				ch.waitingCores++
			}
			c.th.Consume()
			c.retired++
			decoded++
			// Stop decoding past a barrier.
			c.markDecoded(decoded)
			return
		case tpl.class == isa.ClassBranch:
			// Branches resolve at decode in this model; a wrong
			// prediction costs a front-end bubble.
			m.charge(pm.FrontEndPJPerOp + tpl.energyPJ)
			ch.res.UnitIssues[isa.UnitBranch] += m.weight
			taken := u.Taken
			predictTaken := c.predictBranch(u)
			c.recordBranch(u, taken, predictTaken)
			c.th.Consume()
			c.retired++
			decoded++
			if taken != predictTaken {
				c.stallUntil = now + uint64(cfg.BranchPenalty)
				c.markDecoded(decoded)
				return
			}
			if taken {
				// Fetch redirect ends the decode group.
				c.markDecoded(decoded)
				return
			}
		case tpl.isFP:
			if fpDisp == 0 || c.fpN >= cfg.FPQueue {
				c.markDecoded(decoded)
				return
			}
			fpDisp--
			m.charge(pm.FrontEndPJPerOp)
			c.fpN++
			c.enqueue(u)
			c.th.Consume()
			decoded++
		default:
			if intDisp == 0 {
				c.markDecoded(decoded)
				return
			}
			if tpl.isMem && c.lsq >= cfg.LSQ {
				c.markDecoded(decoded)
				return
			}
			if c.intN >= cfg.IntQueue {
				c.markDecoded(decoded)
				return
			}
			intDisp--
			m.charge(pm.FrontEndPJPerOp)
			if tpl.isMem {
				c.lsq++
			}
			c.intN++
			c.enqueue(u)
			c.th.Consume()
			decoded++
		}
		if decoded >= width {
			break
		}
		var ok bool
		if u, ok = c.th.Peek(); !ok {
			break
		}
	}
	c.markDecoded(decoded)
}

func (c *core) markDecoded(n int) {
	if n > 0 {
		c.activeNow = true
		c.mod.chip.res.Decoded += n * c.mod.weight
	}
}

// predictBranch returns the predicted direction for a branch uop:
// static backward-taken/forward-not-taken, or gshare when configured.
func (c *core) predictBranch(u *Uop) bool {
	if u.tpl.branchKind == brJmp {
		return true
	}
	if c.btable == nil {
		return u.BackBranch
	}
	return c.btable[c.btableIndex(u)] >= 2
}

func (c *core) btableIndex(u *Uop) uint32 {
	// btHash is the static branch site's hash, precomputed at template
	// compile.
	return (u.tpl.btHash ^ c.ghist) & uint32(len(c.btable)-1)
}

// recordBranch updates predictor state and statistics.
func (c *core) recordBranch(u *Uop, taken, predicted bool) {
	c.branches++
	if taken != predicted {
		c.mispredicts++
	}
	if c.btable != nil && u.tpl.branchKind != brJmp {
		i := c.btableIndex(u)
		if taken {
			if c.btable[i] < 3 {
				c.btable[i]++
			}
		} else if c.btable[i] > 0 {
			c.btable[i]--
		}
		c.ghist = (c.ghist << 1) & uint32(len(c.btable)-1)
		if taken {
			c.ghist |= 1
		}
	}
}

// resetQueues empties both issue queues, threads the whole slab onto
// the free list and forgets every register writer.
func (c *core) resetQueues() {
	c.intN, c.fpN = 0, 0
	for u := range c.ready {
		c.ready[u] = readyList{head: -1, tail: -1}
	}
	c.readyMask = 0
	for i := range c.ents {
		c.ents[i].next = int32(i + 1)
	}
	c.ents[len(c.ents)-1].next = -1
	c.freeEnt = 0
	for r := range c.regWriter {
		c.regWriter[r] = -1
	}
	c.regReadyAt = [isa.TotalRegs]uint64{}
}

// enqueue copies the decoded uop into a free slab entry and renames it:
// each source either waits on its register's unissued writer or takes
// that writer's result cycle, and the uop becomes the pending writer of
// its destination. It must be called in program order (at decode).
func (c *core) enqueue(u *Uop) {
	id := c.freeEnt
	e := &c.ents[id]
	c.freeEnt = e.next
	tpl := u.tpl
	e.tpl, e.srcA, e.result, e.addr, e.seq = tpl, u.SrcA, u.Result, u.Addr, u.Seq
	e.readyAt, e.pending, e.memLevel, e.waiters = 0, 0, 0, -1
	for k := uint8(0); k < tpl.nsrc; k++ {
		r := tpl.srcRegs[k]
		if w := c.regWriter[r]; w >= 0 {
			p := &c.ents[w]
			e.nextWaiter[k] = p.waiters
			p.waiters = id<<2 | int32(k)
			e.pending++
		} else if t := c.regReadyAt[r]; t > e.readyAt {
			e.readyAt = t
		}
	}
	if tpl.dstIdx >= 0 {
		c.regWriter[tpl.dstIdx] = id
	}
	if e.pending == 0 {
		c.joinReady(id)
	}
}

// joinReady inserts entry id into its unit's ready list by age. Decode
// appends; a woken consumer is usually among the youngest, so the
// search walks back from the tail.
func (c *core) joinReady(id int32) {
	e := &c.ents[id]
	l := &c.ready[e.tpl.unit]
	c.readyMask |= 1 << e.tpl.unit
	p := l.tail
	for p >= 0 && c.ents[p].seq > e.seq {
		p = c.ents[p].prev
	}
	e.prev = p
	if p >= 0 {
		e.next = c.ents[p].next
		c.ents[p].next = id
	} else {
		e.next = l.head
		l.head = id
	}
	if e.next >= 0 {
		c.ents[e.next].prev = id
	} else {
		l.tail = id
	}
}

// leaveReady takes issuing entry id out of its unit's ready list.
func (c *core) leaveReady(id int32) {
	e := &c.ents[id]
	l := &c.ready[e.tpl.unit]
	if e.prev >= 0 {
		c.ents[e.prev].next = e.next
	} else {
		l.head = e.next
	}
	if e.next >= 0 {
		c.ents[e.next].prev = e.prev
	} else {
		l.tail = e.prev
	}
	if l.head < 0 {
		c.readyMask &^= 1 << e.tpl.unit
	}
}

// free returns an executed entry to the slab.
func (c *core) free(id int32) {
	c.ents[id].next = c.freeEnt
	c.freeEnt = id
}

// wake publishes an issued writer's result cycle cc: each consumer
// queued behind it has one unissued producer fewer and cannot issue
// before cc (joining its ready list after the last one), and later
// readers of the register see cc directly. A consumer thus waits for
// the data however long the latency and however many younger writers
// decode meanwhile.
func (c *core) wake(id int32, cc uint64) {
	e := &c.ents[id]
	if d := e.tpl.dstIdx; c.regWriter[d] == id {
		c.regWriter[d] = -1
		c.regReadyAt[d] = cc
	}
	for w := e.waiters; w >= 0; {
		ci := w >> 2
		cons := &c.ents[ci]
		w = cons.nextWaiter[w&3]
		if cc > cons.readyAt {
			cons.readyAt = cc
		}
		if cons.pending--; cons.pending == 0 {
			c.joinReady(ci)
		}
	}
}

// ---- integer cluster ----

// issueInt issues the integer cluster's ready uops. Each unit takes its
// oldest ready entries up to its budget this cycle. Units never compete
// for an entry and a claim only touches its own unit's state (the
// divider, the MSHRs and caches for the LSU), so these are exactly the
// entries one oldest-first scan of the whole queue would issue; they
// then execute oldest first, as that scan would have executed them
// (result buses and energy are booked in that order). Choosing all
// before executing any is safe because no result is available in the
// cycle its producer issues (isa validates Latency ≥ 1).
func (c *core) issueInt(now uint64) {
	if c.intN == 0 {
		return
	}
	cfg := &c.mod.chip.cfg
	var budget [isa.NumUnits]int
	budget[isa.UnitALU] = cfg.NumALU
	budget[isa.UnitAGU] = cfg.NumAGU
	budget[isa.UnitIMul] = 1
	budget[isa.UnitLSU] = cfg.LSUPorts
	units := c.readyMask & intUnits
	if now >= c.idivBusyUntil {
		// A free divider takes one uop, then stays busy for at least
		// a cycle (isa validates RecipThroughput ≥ 1).
		budget[isa.UnitIDiv] = 1
	} else {
		units &^= 1 << isa.UnitIDiv
	}
	picks := c.picks[:0]
	for ; units != 0; units &= units - 1 {
		unit := bits.TrailingZeros8(units)
		n := budget[unit]
		for id := c.ready[unit].head; id >= 0 && n > 0; {
			e := &c.ents[id]
			next := e.next
			if e.readyAt <= now && c.claim(e, now) {
				c.leaveReady(id)
				picks = append(picks, id)
				n--
			}
			id = next
		}
	}
	for i := 1; i < len(picks); i++ {
		for j := i; j > 0 && c.ents[picks[j]].seq < c.ents[picks[j-1]].seq; j-- {
			picks[j], picks[j-1] = picks[j-1], picks[j]
		}
	}
	for _, id := range picks {
		c.execute(id, now)
		c.free(id)
	}
	c.intN -= len(picks)
	c.picks = picks[:0]
}

// intUnits are the integer cluster's units, which issueInt serves.
const intUnits = 1<<isa.UnitALU | 1<<isa.UnitAGU | 1<<isa.UnitIMul | 1<<isa.UnitIDiv | 1<<isa.UnitLSU

// claim applies the unit-specific issue conditions beyond the budget:
// the divider turns busy for its reciprocal throughput, and a miss
// needs a free MSHR. The hierarchy is probed (and filled) once; see
// entry.memLevel.
func (c *core) claim(e *entry, now uint64) bool {
	switch e.tpl.unit {
	case isa.UnitIDiv:
		c.idivBusyUntil = now + e.tpl.recipTP
	case isa.UnitLSU:
		if e.memLevel == 0 {
			e.memLevel = c.mod.chip.memAccess(c, e.addr)
		}
		return e.memLevel == levelL1 || c.takeMSHR(now, e.memLevel)
	}
	return true
}

// takeMSHR claims a miss-status register until the fill completes;
// false when all are busy (the access must retry next cycle).
func (c *core) takeMSHR(now uint64, level memLevel) bool {
	lat, _ := level.latencyEnergy(&c.mod.chip.cfg)
	for i := range c.mshr {
		if c.mshr[i] <= now {
			c.mshr[i] = now + lat
			return true
		}
	}
	return false
}

// execute finishes an issued integer-cluster uop: latency, result
// bus, consumer wakeup, energy and activity accounting.
func (c *core) execute(id int32, now uint64) {
	ch := c.mod.chip
	e := &c.ents[id]
	tpl := e.tpl
	unit := tpl.unit
	lat := tpl.latency
	var extraPJ float64
	if tpl.isMem {
		c.lsq--
		lat, extraPJ = e.memLevel.latencyEnergy(&ch.cfg)
	}
	cc := now + lat
	if tpl.dstIdx >= 0 {
		cc = c.busSlot(cc)
		c.wake(id, cc)
	}
	// Toggle-scaled execution energy. The expression keeps the
	// interpreter's exact shape — only 1-ToggleFraction is folded at
	// template compile, which is the same subtraction on the same
	// operands.
	frac := 0.7*isa.ToggleFractionOf(c.lastSrc[unit], e.srcA) +
		0.3*isa.ToggleFractionOf(c.lastRes[unit], e.result)
	c.lastSrc[unit], c.lastRes[unit] = e.srcA, e.result
	eff := tpl.energyPJ * (tpl.oneMinusTF + tpl.toggleTF*frac)
	// The conversion rounds the addend once, so a representative logs
	// the value it adds: Go may otherwise fuse a multiply into the add.
	c.mod.charge(float64(eff + ch.pm.SchedPJPerIssue + extraPJ))
	ch.res.UnitIssues[unit] += c.mod.weight
	c.retired++
	c.activeNow = true
}

// busSlot books a register-file write port at or after cycle cc.
func (c *core) busSlot(cc uint64) uint64 {
	max := c.mod.chip.cfg.ResultBuses
	for {
		s := cc & c.busMask
		if c.busCycle[s] != cc {
			c.busCycle[s] = cc
			c.busUsed[s] = 0
		}
		if int(c.busUsed[s]) < max {
			c.busUsed[s]++
			return cc
		}
		cc++
	}
}

// ---- floating-point cluster ----

func (m *module) issueFP(now uint64) {
	cfg := &m.chip.cfg
	if cfg.SharedFPU {
		budget := cfg.NumFPPipes
		if t := m.chip.throttle; t > 0 && t < budget {
			budget = t
		}
		// Token-based round-robin among sibling threads: the token
		// holder gets first pick each cycle.
		n := len(m.cores)
		for issued := true; budget > 0 && issued; {
			issued = false
			for k := 0; k < n && budget > 0; k++ {
				ci := m.fpToken + k
				if ci >= n {
					ci -= n
				}
				if c := m.cores[ci]; c.fpN > 0 && c.issueOneFP(now) {
					budget--
					issued = true
				}
			}
		}
		if m.fpToken++; m.fpToken == n {
			m.fpToken = 0
		}
		return
	}
	// Private FPUs: per-core budget, per-core throttle.
	for _, c := range m.live {
		budget := cfg.NumFPPipes
		if t := m.chip.throttle; t > 0 && t < budget {
			budget = t
		}
		for budget > 0 && c.issueOneFP(now) {
			budget--
		}
	}
}

// issueOneFP issues the oldest ready FP uop on the core, if any.
func (c *core) issueOneFP(now uint64) bool {
	for id := c.ready[isa.UnitFPU].head; id >= 0; id = c.ents[id].next {
		if c.ents[id].readyAt <= now {
			c.leaveReady(id)
			c.executeFP(id, now)
			c.free(id)
			c.fpN--
			return true
		}
	}
	return false
}

func (c *core) executeFP(id int32, now uint64) {
	ch := c.mod.chip
	m := c.mod
	e := &c.ents[id]
	tpl := e.tpl
	cc := now + tpl.latency
	if tpl.dstIdx >= 0 {
		cc = c.busSlot(cc)
		c.wake(id, cc)
	}
	frac := 0.7*isa.ToggleFractionOf(m.fpLastSrc, e.srcA) +
		0.3*isa.ToggleFractionOf(m.fpLastRes, e.result)
	m.fpLastSrc, m.fpLastRes = e.srcA, e.result
	eff := tpl.energyPJ * (tpl.oneMinusTF + tpl.toggleTF*frac)
	m.charge(float64(eff + ch.pm.SchedPJPerIssue)) // see execute
	ch.res.UnitIssues[isa.UnitFPU] += m.weight
	m.fpIssued = true
	c.retired++
	c.activeNow = true
}

// ---- memory hierarchy ----

type memLevel uint8

const (
	levelL1 memLevel = iota + 1
	levelL2
	levelL3
	levelMem
)

func (l memLevel) latencyEnergy(cfg *uarch.ChipConfig) (uint64, float64) {
	switch l {
	case levelL1:
		return uint64(cfg.L1Lat), 0
	case levelL2:
		return uint64(cfg.L2Lat), 45
	case levelL3:
		return uint64(cfg.L3Lat), 110
	default:
		return uint64(cfg.MemLat), 260
	}
}

func (ch *Chip) memAccess(c *core, addr uint64) memLevel {
	if c.l1.Access(addr) {
		return levelL1
	}
	if c.mod.l2.Access(addr) {
		return levelL2
	}
	level := levelMem
	if ch.l3.Access(addr) {
		level = levelL3
	}
	if l := c.mod.log; l != nil {
		l.l3 = append(l.l3, l3Lookup{addr, level})
	}
	return level
}

// ---- barriers ----

// releaseBarriers frees every barrier on which all live participants
// wait. The release signal reaches cores at staggered times, modelling
// delivery from different levels of the memory hierarchy — the natural
// misalignment the paper observed dampening the barrier stressmark
// (§5.A.1).
func (ch *Chip) releaseBarriers(now uint64) {
	if ch.waitingCores == 0 {
		return
	}
	// Participants: every attached core whose thread is not done or is
	// currently waiting. The scratch buffer is chip-owned so the hot
	// loop never allocates.
	participants := ch.partsScratch[:0]
	for _, m := range ch.modules {
		for _, c := range m.live {
			if c.waitBarrier >= 0 || !c.th.Done() || c.intN > 0 || c.fpN > 0 {
				participants = append(participants, c)
			}
		}
	}
	ch.partsScratch = participants[:0]
	for bi := range ch.barriers {
		b := &ch.barriers[bi]
		if b.count == 0 {
			continue
		}
		all := len(participants) > 0
		for _, c := range participants {
			if !b.waiting[c.gidx] {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		rank := 0
		for _, c := range participants {
			// First releasee sees L1-ish latency, later ones progressively
			// farther levels.
			skew := uint64(ch.cfg.L1Lat + rank*(ch.cfg.L2Lat-ch.cfg.L1Lat)/2)
			c.stallUntil = now + skew
			c.waitBarrier = -1
			rank++
		}
		ch.waitingCores -= b.count
		b.count = 0
		for i := range b.waiting {
			b.waiting[i] = false
		}
	}
}
