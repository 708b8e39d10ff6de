package cpu

// StateFingerprint hashes the chip's cycle-relative control state:
// per-thread program counters and lookahead, queue occupancies,
// stall/divider/MSHR deadlines relative to the current cycle, barrier
// waits, predictor history and FP arbitration tokens. The golden
// capture test (equiv_test.go) folds it into its per-cycle hash, so a
// change to any of that control state shows up there even when energy
// and issues happen to agree. Register file contents and issue-queue
// readiness details are not part of it.
func (ch *Chip) StateFingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		h ^= v
		h *= prime64
	}
	now := ch.cycle
	rel := func(until uint64) uint64 {
		if until > now {
			return until - now
		}
		return 0
	}
	for _, m := range ch.modules {
		mix(uint64(m.fpToken))
		for _, c := range m.cores {
			if c.th != nil {
				mix(c.th.stateFP())
			} else {
				mix(^uint64(0))
			}
			mix(uint64(c.intN)<<32 | uint64(c.fpN)<<16 | uint64(uint16(c.lsq)))
			mix(rel(c.stallUntil))
			mix(rel(c.idivBusyUntil))
			mix(uint64(c.waitBarrier + 1))
			mix(uint64(c.ghist))
			var mm uint64
			for _, t := range c.mshr {
				mm = mm*31 + rel(t)
			}
			mix(mm)
		}
	}
	return h
}

// stateFP folds the thread's control state — program counter, decode
// lookahead and flag state — into the chip fingerprint. Architectural
// register values and the monotone seq counter are excluded.
func (t *Thread) stateFP() uint64 {
	fp := uint64(t.pc)<<4 | 1
	if t.primed {
		fp |= 1 << 1
	}
	if t.curOK {
		fp |= 1 << 2
	}
	if t.zeroFlag {
		fp |= 1 << 3
	}
	return fp
}
