// Package faults injects the failure modes of a physical measurement
// lab into the simulated testbed. The paper's closed loop ran 5–30
// hours against real silicon and simply lived with noisy oscilloscope
// captures, thread-launch skew that broke dithering alignment, VRM
// set-point drift and FPU-throttling episodes (re-running AUDIT when a
// capture was lost); the pristine simulator hides all of that. An
// Injector wraps any testbed.Runner and reproduces those modes
// deterministically, so the resilient evaluation and checkpoint/resume
// machinery exercise the same code paths a real lab campaign would.
//
// Determinism: every fault decision is drawn from a PRNG seeded by
// (Config.Seed, content hash of the RunConfig, per-content attempt
// counter). Identical runs therefore fault identically regardless of
// the order or concurrency in which they execute — a parallel GA sweep
// sees exactly the faults a serial one does — while retrying the same
// run draws a fresh outcome, which is what makes retry useful.
package faults

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"

	"repro/internal/testbed"
)

// ErrTransient is the sentinel wrapped by every transient fault: the
// run failed in a way a retry can fix (lost scope capture, aborted
// measurement). Permanent errors — bad configurations, unsupported
// instructions — do not wrap it.
var ErrTransient = errors.New("faults: transient measurement fault")

// Error is a typed injection failure.
type Error struct {
	// Op names the failed lab step ("scope capture", "waveform readout").
	Op string
	// Attempt is the per-run-content attempt number that failed.
	Attempt   uint32
	transient bool
}

func (e *Error) Error() string {
	kind := "permanent"
	if e.transient {
		kind = "transient"
	}
	return fmt.Sprintf("faults: %s fault: %s (attempt %d)", kind, e.Op, e.Attempt)
}

// Transient reports whether a retry may succeed. The ga package
// detects this method via errors.As, without importing faults.
func (e *Error) Transient() bool { return e.transient }

// Unwrap lets errors.Is(err, ErrTransient) work.
func (e *Error) Unwrap() error {
	if e.transient {
		return ErrTransient
	}
	return nil
}

// IsTransient reports whether err is (or wraps) a transient fault.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// Config describes the lab's failure modes. All rates are
// probabilities in [0,1]; zero disables a mode.
type Config struct {
	// Seed drives every fault decision.
	Seed int64
	// TransientRate is the probability a run is lost outright (scope
	// trigger missed, capture aborted) and returns ErrTransient.
	TransientRate float64
	// DropoutRate is the probability a requested waveform capture is
	// dropped mid-readout — also a transient error, but only on runs
	// that record waveforms.
	DropoutRate float64
	// ScopeNoiseV is the amplitude (volts, uniform ±) of additive
	// sample noise on the scope-derived statistics and waveform.
	ScopeNoiseV float64
	// LaunchSkewMax adds up to this many cycles of extra start skew to
	// each thread, perturbing the dither plan the way OS thread-launch
	// jitter does on real hardware.
	LaunchSkewMax uint64
	// DriftMaxV is the VRM load-line drift bound: each run's DC
	// set-point is offset by a value uniform in ±DriftMaxV.
	DriftMaxV float64
	// ThrottleRate is the probability of an FPU-throttling episode: the
	// run executes with FP issue clipped to ThrottleLimit, depressing
	// per-cycle power the way a thermal event does.
	ThrottleRate float64
	// ThrottleLimit is the FP issue cap during an episode (default 1).
	ThrottleLimit int
}

// Lab returns the default lab-flavoured fault model: every mode
// enabled at rates matching the nuisances the paper reports.
func Lab(seed int64) Config {
	return Config{
		Seed:          seed,
		TransientRate: 0.10,
		DropoutRate:   0.05,
		ScopeNoiseV:   0.0008,
		LaunchSkewMax: 8,
		DriftMaxV:     0.0004,
		ThrottleRate:  0.03,
		ThrottleLimit: 1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"transient rate", c.TransientRate},
		{"dropout rate", c.DropoutRate},
		{"throttle rate", c.ThrottleRate},
	} {
		if !(r.v >= 0 && r.v <= 1) { // NaN fails both comparisons
			return fmt.Errorf("faults: %s %g outside [0,1]", r.name, r.v)
		}
	}
	if !(c.ScopeNoiseV >= 0 && c.DriftMaxV >= 0) {
		return fmt.Errorf("faults: negative or NaN noise amplitude")
	}
	if c.ThrottleLimit < 0 {
		return fmt.Errorf("faults: negative throttle limit")
	}
	return nil
}

// Stats counts what the injector did. All counters are cumulative
// across the injector's lifetime.
type Stats struct {
	// Runs is the total number of Run calls.
	Runs int
	// Transients is how many runs were lost to transient faults
	// (missed captures plus waveform dropouts).
	Transients int
	// Dropouts is the waveform-readout subset of Transients.
	Dropouts int
	// Throttled counts runs executed under a throttling episode.
	Throttled int
	// Skewed counts runs whose threads got extra launch skew.
	Skewed int
}

// Injector wraps a Runner and perturbs its runs. Safe for concurrent
// use; fault decisions are independent of call order (see the package
// comment).
type Injector struct {
	cfg Config
	r   testbed.Runner

	mu       sync.Mutex
	attempts map[uint64]uint32
	stats    Stats
}

// New wraps r with the configured fault model.
func New(cfg Config, r testbed.Runner) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if r == nil {
		return nil, fmt.Errorf("faults: nil runner")
	}
	if cfg.ThrottleLimit == 0 {
		cfg.ThrottleLimit = 1
	}
	return &Injector{cfg: cfg, r: r, attempts: map[uint64]uint32{}}, nil
}

// MustNew is New for static configurations known to be valid.
func MustNew(cfg Config, r testbed.Runner) *Injector {
	in, err := New(cfg, r)
	if err != nil {
		panic(err)
	}
	return in
}

// Stats returns a snapshot of the injection counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// Run executes one measurement through the fault model. The zero-fault
// configuration is a transparent passthrough.
func (in *Injector) Run(rc testbed.RunConfig) (*testbed.Measurement, error) {
	h := hashRunConfig(&rc)
	in.mu.Lock()
	attempt := in.attempts[h]
	in.attempts[h]++
	in.stats.Runs++
	in.mu.Unlock()

	rng := rand.New(rand.NewSource(mix(in.cfg.Seed, h, attempt)))

	// Draw order is fixed so every mode's decision is stable whether or
	// not earlier modes fire.
	lost := rng.Float64() < in.cfg.TransientRate
	dropout := rc.RecordWaveform && rng.Float64() < in.cfg.DropoutRate
	throttled := in.cfg.ThrottleRate > 0 && rng.Float64() < in.cfg.ThrottleRate
	drift := 0.0
	if in.cfg.DriftMaxV > 0 {
		drift = (2*rng.Float64() - 1) * in.cfg.DriftMaxV
	}
	noise := 0.0
	if in.cfg.ScopeNoiseV > 0 {
		noise = (2*rng.Float64() - 1) * in.cfg.ScopeNoiseV
	}

	if lost {
		in.count(func(s *Stats) { s.Transients++ })
		return nil, &Error{Op: "scope capture aborted", Attempt: attempt, transient: true}
	}

	if in.cfg.LaunchSkewMax > 0 && len(rc.Threads) > 0 {
		// Clone the specs: callers reuse their slices across runs.
		threads := append([]testbed.ThreadSpec(nil), rc.Threads...)
		skewed := false
		for i := range threads {
			extra := uint64(rng.Int63n(int64(in.cfg.LaunchSkewMax) + 1))
			if extra > 0 {
				threads[i].StartSkew += extra
				skewed = true
			}
		}
		rc.Threads = threads
		if skewed {
			in.count(func(s *Stats) { s.Skewed++ })
		}
	}
	if throttled {
		rc.FPThrottle = in.cfg.ThrottleLimit
		in.count(func(s *Stats) { s.Throttled++ })
	}

	m, err := in.r.Run(rc)
	if err != nil {
		return m, err
	}
	if dropout {
		in.count(func(s *Stats) { s.Transients++; s.Dropouts++ })
		return nil, &Error{Op: "waveform readout dropped", Attempt: attempt, transient: true}
	}

	// Post-measurement perturbations: VRM drift shifts the whole trace
	// DC point; scope noise is an additive measurement error.
	if drift != 0 {
		m.MinV += drift
		m.MeanV += drift
		m.MaxDroopV = math.Max(0, m.MaxDroopV-drift)
		m.MaxOvershootV = math.Max(0, m.MaxOvershootV+drift)
	}
	if noise != 0 {
		m.MaxDroopV = math.Max(0, m.MaxDroopV+noise)
		m.MinV -= noise
		for i := range m.Waveform {
			m.Waveform[i] += (2*rng.Float64() - 1) * in.cfg.ScopeNoiseV
		}
	}
	return m, nil
}

func (in *Injector) count(f func(*Stats)) {
	in.mu.Lock()
	f(&in.stats)
	in.mu.Unlock()
}

// mix folds the seed, content hash and attempt into one PRNG seed
// (splitmix64-style finalizer).
func mix(seed int64, h uint64, attempt uint32) int64 {
	x := uint64(seed) ^ h ^ (uint64(attempt)+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// hashRunConfig produces a stable content key for a run: what program
// runs where, for how long, at what supply — everything that changes
// the measurement. Two RunConfigs describing the same run hash equal
// even when built independently.
func hashRunConfig(rc *testbed.RunConfig) uint64 {
	h := fnv.New64a()
	var b [8]byte
	u64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	str := func(s string) { h.Write([]byte(s)); h.Write([]byte{0}) }

	u64(uint64(len(rc.Threads)))
	for _, ts := range rc.Threads {
		u64(uint64(ts.Module))
		u64(uint64(ts.Core))
		u64(ts.MaxInstrs)
		u64(ts.StartSkew)
		p := ts.Program
		if p == nil {
			continue
		}
		str(p.Name)
		u64(uint64(p.MemBytes))
		u64(uint64(len(p.Code)))
		for i := range p.Code {
			in := &p.Code[i]
			if in.Op != nil {
				str(in.Op.Name)
			}
			u64(uint64(in.Dst.Kind)<<8 | uint64(in.Dst.Index))
			u64(uint64(in.Src1.Kind)<<8 | uint64(in.Src1.Index))
			u64(uint64(in.Src2.Kind)<<8 | uint64(in.Src2.Index))
			u64(uint64(in.Imm))
			u64(uint64(in.MemBase.Kind)<<8 | uint64(in.MemBase.Index))
			u64(uint64(int64(in.MemDisp)))
			u64(uint64(int64(in.Target)))
		}
	}
	u64(rc.MaxCycles)
	u64(rc.WarmupCycles)
	u64(math.Float64bits(rc.SupplyVolts))
	u64(uint64(rc.FPThrottle))
	for _, d := range rc.Dither {
		u64(uint64(d.Core))
		u64(d.PeriodCycles)
		u64(d.PadCycles)
	}
	if rc.RecordWaveform {
		u64(1)
	}
	u64(math.Float64bits(rc.ScopeSampleHz))
	u64(math.Float64bits(rc.TriggerThreshold))
	return h.Sum64()
}
