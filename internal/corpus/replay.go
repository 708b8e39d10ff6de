package corpus

import (
	"fmt"
	"math"

	"repro/internal/testbed"
)

// Verdict classifies one entry's replay outcome.
type Verdict int

const (
	// Pass: same platform digest, expectations reproduced.
	Pass Verdict = iota
	// Drift: the platform digest matches the baseline but the measured
	// values do not. Nothing in the platform description explains the
	// change, so some code path moved the numbers — the exact situation
	// the corpus exists to catch. Always a hard failure.
	Drift
	// PlatformSkew: the platform description itself changed since the
	// entry was baselined (different digest). The entry is still
	// measured — Detail reports whether the values happened to hold —
	// but the baseline is void either way: re-baseline deliberately
	// (corpus redux) or investigate why the platform moved.
	PlatformSkew
	// Error: the entry could not be measured at all (undecodable
	// program, placement failure, simulation error).
	Error
)

func (v Verdict) String() string {
	switch v {
	case Pass:
		return "pass"
	case Drift:
		return "DRIFT"
	case PlatformSkew:
		return "platform-skew"
	case Error:
		return "ERROR"
	}
	return fmt.Sprintf("verdict(%d)", int(v))
}

// Result is one entry's replay outcome.
type Result struct {
	Entry   *Entry
	Verdict Verdict
	// Detail explains any non-pass verdict in one line.
	Detail string
	// Measured is the replayed measurement (nil on Error).
	Measured *testbed.Measurement
	// FailVolts/FailFound report the replayed failure ladder when the
	// entry baselined one and it was not skipped.
	FailVolts float64
	FailFound bool
}

// ReplayOptions tunes the replay engine.
type ReplayOptions struct {
	// Workers is passed to MeasureBatch (0 = default).
	Workers int
	// SkipFailure skips voltage-at-failure ladders even for entries
	// that baselined one (droop and fingerprint are still checked).
	// Ladders cost a descent of full measurements per entry, so CI
	// setups pressed for time can trade that coverage away explicitly.
	SkipFailure bool
}

// Replay re-measures every entry on cp and scores it against its
// baseline. All phase-2 measurements go through one MeasureBatch call,
// so entries sharing a platform share trace capture and lane packing;
// failure ladders (serial descents by nature) run after, per entry.
//
// Entries whose Platform name does not resolve to cp's platform are the
// caller's responsibility — Replay checks digests, not names. Group
// entries by name (as cmd/corpus does) before calling.
func Replay(cp *testbed.CompiledPlatform, entries []*Entry, opt ReplayOptions) []Result {
	return replayWith(cp, testbed.PlatformDigest(cp.Platform()), entries, opt)
}

// replayWith is Replay with the baseline digest supplied explicitly.
// Tests use it to simulate the case a digest cannot see: a simulator
// code change that moves results without touching any platform struct.
// Passing the clean platform's digest with a perturbed cp must surface
// as Drift.
func replayWith(cp *testbed.CompiledPlatform, digest string, entries []*Entry, opt ReplayOptions) []Result {
	results := make([]Result, len(entries))
	rcs := make([]testbed.RunConfig, 0, len(entries))
	slot := make([]int, 0, len(entries)) // batch slot -> entry index

	for i, e := range entries {
		results[i].Entry = e
		rc, err := e.RunConfig(cp.Platform().Chip)
		if err != nil {
			results[i].Verdict = Error
			results[i].Detail = err.Error()
			continue
		}
		rcs = append(rcs, rc)
		slot = append(slot, i)
	}

	ms, errs := cp.MeasureBatch(rcs, 0, opt.Workers)
	for s, i := range slot {
		e := entries[i]
		r := &results[i]
		if errs[s] != nil {
			r.Verdict = Error
			r.Detail = errs[s].Error()
			continue
		}
		r.Measured = ms[s]
		mismatch := compareExpected(e, ms[s])

		if e.Expected.FailFloor > 0 && !opt.SkipFailure {
			v, found, err := cp.FindFailureVoltage(rcs[s], e.Expected.FailFloor)
			if err != nil {
				r.Verdict = Error
				r.Detail = fmt.Sprintf("failure ladder: %v", err)
				continue
			}
			r.FailVolts, r.FailFound = v, found
			if found != e.Expected.FailFound {
				mismatch = append(mismatch, fmt.Sprintf("failure found=%v, baseline %v", found, e.Expected.FailFound))
			} else if found && v != e.Expected.FailVolts {
				mismatch = append(mismatch, fmt.Sprintf("failure voltage %.4f V, baseline %.4f V", v, e.Expected.FailVolts))
			}
		}

		switch {
		case digest == e.PlatformDigest && len(mismatch) == 0:
			r.Verdict = Pass
		case digest == e.PlatformDigest:
			r.Verdict = Drift
			r.Detail = join(mismatch)
		case len(mismatch) == 0:
			r.Verdict = PlatformSkew
			r.Detail = "platform description changed since baseline (values held; redux to re-stamp)"
		default:
			r.Verdict = PlatformSkew
			r.Detail = "platform description changed since baseline: " + join(mismatch)
		}
	}
	return results
}

// compareExpected scores a measurement against the entry's baseline,
// returning one message per mismatched quantity (empty = reproduced).
// Zero droop tolerance demands the full-measurement fingerprint match
// bit-exactly; a positive tolerance gates on droop alone and leaves the
// fingerprint advisory.
func compareExpected(e *Entry, m *testbed.Measurement) []string {
	var out []string
	exp := e.Expected
	if exp.DroopTolV == 0 {
		if fp := Fingerprint(m); fp != exp.Fingerprint {
			out = append(out, fmt.Sprintf("fingerprint %s, baseline %s (droop %.6f V vs %.6f V)",
				fp, exp.Fingerprint, m.MaxDroopV, exp.DroopV))
		}
		return out
	}
	if d := math.Abs(m.MaxDroopV - exp.DroopV); d > exp.DroopTolV {
		out = append(out, fmt.Sprintf("droop %.6f V, baseline %.6f V (|Δ|=%.6f > tol %.6f)",
			m.MaxDroopV, exp.DroopV, d, exp.DroopTolV))
	}
	return out
}

func join(parts []string) string {
	s := ""
	for i, p := range parts {
		if i > 0 {
			s += "; "
		}
		s += p
	}
	return s
}

// Fingerprint hashes every deterministic field of a measurement —
// cycles, voltage extremes, power, energy, retirement, per-unit issue
// totals, control-flow and cache counters, failure state — with FNV-1a,
// excluding only the optional Waveform (redundant with the extremes and
// absent unless scoped). Two measurements with equal fingerprints are
// bit-identical in every quantity the corpus cares about.
func Fingerprint(m *testbed.Measurement) string {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * uint(i))) & 0xff
			h *= 1099511628211
		}
	}
	mixF := func(f float64) { mix(math.Float64bits(f)) }
	mix(m.Cycles)
	mixF(m.MaxDroopV)
	mixF(m.MaxOvershootV)
	mixF(m.MinV)
	mixF(m.MeanV)
	mixF(m.AvgPowerW)
	mixF(m.EnergyPJ)
	mix(m.Retired)
	for _, u := range m.UnitTotals {
		mix(u)
	}
	mix(uint64(m.DroopEvents))
	mix(m.Branches)
	mix(m.Mispredicts)
	mix(m.L1Hits)
	mix(m.L1Misses)
	mix(m.L2Hits)
	mix(m.L2Misses)
	mix(m.L3Hits)
	mix(m.L3Misses)
	if m.Failed {
		mix(1)
	} else {
		mix(0)
	}
	mix(m.FailCycle)
	return fmt.Sprintf("%016x", h)
}
