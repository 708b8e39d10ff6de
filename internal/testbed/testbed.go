// Package testbed assembles the full measurement platform of Fig. 8:
// the cycle-level chip model drives per-cycle current into the PDN
// transient simulation, a virtual oscilloscope records the die voltage,
// an optional OS-interference model perturbs the threads, and a
// critical-path timing model decides whether the run failed at the
// configured supply voltage. This is the "Measure HW" box of the AUDIT
// framework (Fig. 5), built in software because the physical lab —
// Bulldozer silicon, probes, a disable-able VRM load line — is the one
// thing this reproduction cannot have.
package testbed

import (
	"fmt"
	"slices"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/hostos"
	"repro/internal/isa"
	"repro/internal/pdn"
	"repro/internal/power"
	"repro/internal/scope"
	"repro/internal/uarch"
)

// Platform is a (chip, power model, PDN, failure model) bundle — one
// physical test system. Platforms are immutable descriptions; each Run
// builds fresh simulation state, so runs are independent and
// deterministic.
type Platform struct {
	Chip    uarch.ChipConfig
	Power   power.Model
	PDN     pdn.Config
	Failure FailureModel

	// ROMTolV, when positive, admits the reduced-order PDN replay
	// kernel (pdn.Compiled.ROM) for traces whose calibrated worst-case
	// die-voltage deviation from the exact kernel — ErrPerAmpV × peak
	// drive amps — stays within this many volts. Zero, the default,
	// keeps every replay on the exact bit-identity LU kernel. A
	// non-zero tolerance is part of the platform identity (it can move
	// measured voltages within the bound): see PlatformDigest.
	ROMTolV float64
}

// Bulldozer returns the paper's primary test system.
func Bulldozer() Platform {
	return Platform{
		Chip:    uarch.Bulldozer(),
		Power:   power.BulldozerModel(),
		PDN:     pdn.Bulldozer(),
		Failure: BulldozerFailureModel(),
	}
}

// Phenom returns the secondary system of §5.C: the same board with the
// older 45 nm processor swapped in.
func Phenom() Platform {
	return Platform{
		Chip:    uarch.Phenom(),
		Power:   power.PhenomModel(),
		PDN:     pdn.Phenom(),
		Failure: PhenomFailureModel(),
	}
}

// PlatformByName returns the preset test system a command line, a
// corpus entry or a saved configuration names: "bulldozer" or
// "phenom".
func PlatformByName(name string) (Platform, error) {
	switch name {
	case "bulldozer":
		return Bulldozer(), nil
	case "phenom":
		return Phenom(), nil
	}
	return Platform{}, fmt.Errorf("unknown platform %q (want bulldozer or phenom)", name)
}

// ThreadSpec places one software thread on a hardware core.
type ThreadSpec struct {
	Program *asm.Program
	Module  int
	Core    int
	// MaxInstrs bounds the thread's dynamic instruction count
	// (0 = run the program to natural completion).
	MaxInstrs uint64
	// StartSkew delays the thread's first decode by this many cycles.
	StartSkew uint64
}

// DitherSpec applies periodic front-end padding to one core: every
// PeriodCycles, the core loses PadCycles of decode. This is the
// testbed-level mechanism behind the dithering algorithm of §3.B
// ("apply one cycle worth of NOP padding every M×(L+H)^(c-1) cycles");
// padding by decode stall is energy-equivalent to NOP padding up to the
// few pJ a NOP costs in the decoder.
type DitherSpec struct {
	Core         int
	PeriodCycles uint64
	PadCycles    uint64
}

// RunConfig describes one measurement run.
type RunConfig struct {
	Threads []ThreadSpec
	// MaxCycles bounds the run; 0 means run until all threads finish
	// (required when any thread is unbounded).
	MaxCycles uint64
	// WarmupCycles are excluded from droop statistics (PDN settling and
	// cache warmup).
	WarmupCycles uint64
	// SupplyVolts overrides the VRM set-point (0 = PDN nominal). Used
	// by the voltage-at-failure procedure.
	SupplyVolts float64
	// FPThrottle caps FP issue (0 = chip config default).
	FPThrottle int
	// OS, when non-nil, injects timer-tick interference.
	OS *hostos.Scheduler
	// Dither applies periodic padding per core.
	Dither []DitherSpec
	// RecordWaveform captures the die voltage at the scope's rate.
	RecordWaveform bool
	// ScopeSampleHz is the capture rate when recording (default: full
	// simulation rate with peak detect).
	ScopeSampleHz float64
	// Histogram, when non-nil, is filled with every post-warmup sample.
	Histogram *scope.Histogram
	// TriggerThreshold, when positive, counts droop events below it.
	TriggerThreshold float64
}

// Validate checks a run configuration before any simulation state is
// built or drawn from pools. Platform.Run and CompiledPlatform.Run call
// it on entry, so a bad config (no threads, nil program, zero dither
// period) fails fast instead of surfacing mid-measurement; the trace
// cache key builder relies on the same invariants.
func (rc RunConfig) Validate() error {
	if len(rc.Threads) == 0 {
		return fmt.Errorf("testbed: no threads to run")
	}
	for i, ts := range rc.Threads {
		if ts.Program == nil {
			return fmt.Errorf("testbed: thread %d has no program", i)
		}
		if ts.Module < 0 || ts.Core < 0 {
			return fmt.Errorf("testbed: thread %d placement (%d,%d) negative", i, ts.Module, ts.Core)
		}
	}
	for _, d := range rc.Dither {
		if d.PeriodCycles == 0 {
			return fmt.Errorf("testbed: dither period must be positive")
		}
	}
	return nil
}

// Measurement is what one run produced.
type Measurement struct {
	// Cycles actually simulated.
	Cycles uint64
	// MaxDroopV is the worst excursion below nominal after warmup.
	MaxDroopV float64
	// MaxOvershootV is the worst excursion above nominal after warmup.
	MaxOvershootV float64
	// MinV is the absolute minimum die voltage after warmup.
	MinV float64
	// MeanV is the average die voltage after warmup.
	MeanV float64
	// AvgPowerW is average chip power (dynamic + leakage).
	AvgPowerW float64
	// EnergyPJ is total dynamic energy.
	EnergyPJ float64
	// Retired is total dynamic instructions.
	Retired uint64
	// UnitTotals counts issues per execution unit.
	UnitTotals [isa.NumUnits]uint64
	// Waveform is the scope capture (nil unless requested).
	Waveform []float64
	// DroopEvents counts triggered events (TriggerThreshold > 0).
	DroopEvents int
	// Branches and Mispredicts summarise control-flow behaviour.
	Branches    uint64
	Mispredicts uint64
	// Cache hit/miss totals per level.
	L1Hits, L1Misses uint64
	L2Hits, L2Misses uint64
	L3Hits, L3Misses uint64
	// Failed reports a critical-path timing violation; FailCycle is
	// when it first happened.
	Failed    bool
	FailCycle uint64
}

// Runner is anything that can execute one measurement run. Platform
// and CompiledPlatform both satisfy it, as do decorators that wrap a
// platform — notably faults.Injector, which perturbs runs with the
// failure modes of a physical lab. Code that only needs to take
// measurements (the GA's fitness path, sweeps, failure searches)
// should accept a Runner so any of these can stand in.
type Runner interface {
	Run(RunConfig) (*Measurement, error)
}

// Nominal returns the platform's nominal supply voltage.
func (p Platform) Nominal() float64 { return p.PDN.VNom }

// Run executes one measurement, building fresh chip and PDN state.
// Hot loops that run one platform repeatedly should Compile the
// platform and use CompiledPlatform.Run, which produces bit-identical
// measurements from pooled state.
func (p Platform) Run(rc RunConfig) (*Measurement, error) {
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	chip, err := cpu.NewChip(p.Chip, p.Power)
	if err != nil {
		return nil, err
	}
	if err := p.attachThreads(chip, rc); err != nil {
		return nil, err
	}
	net, err := pdn.New(p.PDN, p.Chip.CycleSeconds())
	if err != nil {
		return nil, err
	}
	supply := p.PDN.VNom
	if rc.SupplyVolts > 0 {
		supply = rc.SupplyVolts
		p.settle(net, supply)
	}
	return p.measure(chip, net, rc, supply)
}

// attachThreads validates and places the run's threads on the chip and
// applies the run-level FP throttle. The threads of one program share
// its compiled templates (Thread.Sibling).
func (p Platform) attachThreads(chip *cpu.Chip, rc RunConfig) error {
	ths := make([]*cpu.Thread, len(rc.Threads))
	for i, ts := range rc.Threads {
		if j := slices.IndexFunc(rc.Threads[:i], func(o ThreadSpec) bool { return o.Program == ts.Program }); j >= 0 {
			ths[i] = ths[j].Sibling(ts.MaxInstrs)
		} else {
			if err := p.checkISASupport(ts.Program); err != nil {
				return err
			}
			th, err := cpu.NewThread(ts.Program, ts.MaxInstrs)
			if err != nil {
				return err
			}
			ths[i] = th
		}
		if err := chip.Attach(ts.Module, ts.Core, ths[i]); err != nil {
			return err
		}
	}
	if rc.FPThrottle > 0 {
		chip.SetFPThrottle(rc.FPThrottle)
	}
	return nil
}

// settleSteps is how long the regulator is given to settle at a new
// set-point before the threads start drawing current.
const settleSteps = 20000

// settle moves the regulator to a new set-point and steps the idle
// network (leakage only) until it settles.
func (p Platform) settle(net *pdn.PDN, supply float64) {
	net.SetSupply(supply)
	leak := p.Power.LeakageAmps(p.Chip.Modules, supply)
	for i := 0; i < settleSteps; i++ {
		net.Step(leak)
	}
}

// measure is the reference cycle loop behind Platform.Run: chip and
// net must already be attached and settled.
func (p Platform) measure(chip *cpu.Chip, net *pdn.PDN, rc RunConfig, supply float64) (*Measurement, error) {
	dt := p.Chip.CycleSeconds()
	vNom := p.PDN.VNom

	// Apply start skews as initial decode stalls.
	for _, ts := range rc.Threads {
		if ts.StartSkew > 0 {
			g := ts.Module*p.Chip.CoresPerModule + ts.Core
			if err := chip.InjectStall(g, ts.StartSkew); err != nil {
				return nil, err
			}
		}
	}

	var sc *scope.Scope
	if rc.RecordWaveform {
		rate := rc.ScopeSampleHz
		if rate <= 0 {
			rate = p.Chip.ClockHz
		}
		s, err := scope.New(p.Chip.ClockHz, rate, true)
		if err != nil {
			return nil, err
		}
		sc = s
	}
	var trig *scope.Trigger
	if rc.TriggerThreshold > 0 {
		trig = scope.NewTrigger(rc.TriggerThreshold, 0.002)
	}

	leakage := p.Power.LeakageAmps(p.Chip.Modules, supply)
	m := &Measurement{MinV: supply}
	var sumV float64
	var nV uint64

	// Dither periods were validated by RunConfig.Validate before any
	// pooled state was grabbed.
	nextPad := make([]uint64, len(rc.Dither))
	for i, d := range rc.Dither {
		nextPad[i] = d.PeriodCycles
	}

	maxCycles := rc.MaxCycles
	if maxCycles == 0 {
		maxCycles = 1 << 62
	}
	for cyc := uint64(0); cyc < maxCycles; cyc++ {
		if chip.Done() {
			break
		}
		if rc.OS != nil {
			if err := rc.OS.Apply(chip); err != nil {
				return nil, err
			}
		}
		for i := range rc.Dither {
			if cyc >= nextPad[i] {
				if err := chip.InjectStall(rc.Dither[i].Core, rc.Dither[i].PadCycles); err != nil {
					return nil, err
				}
				nextPad[i] += rc.Dither[i].PeriodCycles
			}
		}

		res := chip.Step()
		m.EnergyPJ += res.EnergyPJ
		for u := 0; u < int(isa.NumUnits); u++ {
			m.UnitTotals[u] += uint64(res.UnitIssues[u])
		}

		amps := power.Amps(res.EnergyPJ, dt, supply) + leakage
		net.Step(amps)
		v := net.VDie()

		if cyc >= rc.WarmupCycles {
			if d := vNom - v; d > m.MaxDroopV {
				m.MaxDroopV = d
			}
			if o := v - vNom; o > m.MaxOvershootV {
				m.MaxOvershootV = o
			}
			if v < m.MinV {
				m.MinV = v
			}
			sumV += v
			nV++
			if sc != nil {
				sc.Sample(v)
			}
			if trig != nil {
				trig.Sample(v)
			}
			if rc.Histogram != nil {
				rc.Histogram.Add(v)
			}
			if !m.Failed {
				if bad, _ := p.Failure.Check(v, res); bad {
					m.Failed = true
					m.FailCycle = cyc
				}
			}
		}
	}
	m.Cycles = chip.Cycle()
	m.Retired = chip.Retired()
	st := chip.Stats()
	m.Branches, m.Mispredicts = st.Branches, st.Mispredicts
	m.L1Hits, m.L1Misses = st.L1Hits, st.L1Misses
	m.L2Hits, m.L2Misses = st.L2Hits, st.L2Misses
	m.L3Hits, m.L3Misses = st.L3Hits, st.L3Misses
	if nV > 0 {
		m.MeanV = sumV / float64(nV)
	}
	if m.Cycles > 0 {
		m.AvgPowerW = m.EnergyPJ*1e-12/(float64(m.Cycles)*dt) + p.Power.LeakageWattsPerModule*float64(p.Chip.Modules)
	}
	if sc != nil {
		m.Waveform = sc.Waveform()
	}
	if trig != nil {
		m.DroopEvents = trig.EventCount()
	}
	return m, nil
}

// checkISASupport rejects programs using instructions the chip lacks
// (FMA on the Phenom-style part), mirroring the incompatibility that
// kept SM1 off the older processor in §5.C.
func (p Platform) checkISASupport(prog *asm.Program) error {
	if p.Chip.HasFMA {
		return nil
	}
	for i := range prog.Code {
		if prog.Code[i].Op.Class == isa.ClassFMA {
			return fmt.Errorf("testbed: %s: instruction %q not supported by %s",
				prog.Name, prog.Code[i].Op.Name, p.Chip.Name)
		}
	}
	return nil
}

// SpreadPlacement spreads n identical threads the way the paper's
// experiments do: one thread per module while modules remain (1T/2T/4T
// runs), then filling sibling cores (8T). The returned specs share the
// given program.
func SpreadPlacement(cfg uarch.ChipConfig, prog *asm.Program, n int) ([]ThreadSpec, error) {
	if n < 1 || n > cfg.Threads() {
		return nil, fmt.Errorf("testbed: cannot place %d threads on %d cores", n, cfg.Threads())
	}
	specs := make([]ThreadSpec, 0, n)
	placed := 0
	for core := 0; core < cfg.CoresPerModule && placed < n; core++ {
		for mod := 0; mod < cfg.Modules && placed < n; mod++ {
			specs = append(specs, ThreadSpec{Program: prog, Module: mod, Core: core})
			placed++
		}
	}
	return specs, nil
}

// GlobalCore returns the chip-wide core index of a thread spec.
func (ts ThreadSpec) GlobalCore(cfg uarch.ChipConfig) int {
	return ts.Module*cfg.CoresPerModule + ts.Core
}
