package corpus

import (
	"encoding/base64"
	"fmt"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/testbed"
)

// Default measurement window for harvested entries. Longer than the
// search's own fitness window (5 000 cycles): the corpus baseline is
// measured once and replayed forever, so it can afford a window that
// covers several resonance build-ups.
const (
	DefaultMeasureCycles = 25000
	DefaultWarmupCycles  = 3000
)

// HarvestConfig shapes how a stressmark is baselined into an entry.
type HarvestConfig struct {
	// Name overrides the stressmark's own name (optional).
	Name string
	// MeasureCycles / WarmupCycles define the baseline measurement
	// window (0 = the Default*Cycles above).
	MeasureCycles uint64
	WarmupCycles  uint64
	// DroopTolV sets the entry's replay tolerance; 0 demands bit-exact
	// replay (the right default for a deterministic simulator).
	DroopTolV float64
	// FailFloor, when > 0, additionally baselines the voltage-at-failure
	// ladder down to that supply floor. Costs a descent of full
	// measurements at harvest AND at every replay — reserve it for a
	// representative entry or two per platform.
	FailFloor float64
	// Dither, when set, is baked into the entry's measurement config
	// (dithered stressmarks are meaningless without their schedule).
	Dither []testbed.DitherSpec
}

// Harvest measures a trained stressmark on cp and returns a sealed-
// ready entry carrying the genome, program image, measurement config,
// platform digest and expected results. The caller deposits it with
// DB.Add. platformName must be a testbed.PlatformByName name
// describing cp — it is recorded so replays can rebuild the platform,
// and cross-checked against cp's digest at replay time, not here.
func Harvest(cp *testbed.CompiledPlatform, platformName string, sm *core.Stressmark, cfg HarvestConfig) (*Entry, error) {
	if sm == nil || sm.Program == nil {
		return nil, fmt.Errorf("corpus: harvest: stressmark has no program")
	}
	if _, err := testbed.PlatformByName(platformName); err != nil {
		return nil, fmt.Errorf("corpus: harvest: %w", err)
	}
	blob, err := asm.Encode(sm.Program)
	if err != nil {
		return nil, fmt.Errorf("corpus: harvest: %w", err)
	}
	name := cfg.Name
	if name == "" {
		name = sm.Name
	}
	measure := cfg.MeasureCycles
	if measure == 0 {
		measure = DefaultMeasureCycles
	}
	warmup := cfg.WarmupCycles
	if warmup == 0 {
		warmup = DefaultWarmupCycles
	}
	e := &Entry{
		Version:       Version,
		Name:          name,
		Platform:      platformName,
		Threads:       sm.Threads,
		LoopCycles:    sm.LoopCycles,
		Mode:          int(sm.Mode),
		FPThrottle:    sm.FPThrottle,
		MeasureCycles: measure,
		WarmupCycles:  warmup,
		Dither:        cfg.Dither,
		Genome:        sm.Genome,
		Program:       base64.StdEncoding.EncodeToString(blob),
	}
	rc, err := e.RunConfig(cp.Platform().Chip)
	if err != nil {
		return nil, err
	}
	m, err := cp.Run(rc)
	if err != nil {
		return nil, fmt.Errorf("corpus: harvest %s: %w", name, err)
	}
	e.Expected = Expected{
		DroopV:      m.MaxDroopV,
		DroopTolV:   cfg.DroopTolV,
		MinV:        m.MinV,
		AvgPowerW:   m.AvgPowerW,
		Fingerprint: Fingerprint(m),
	}
	if cfg.FailFloor > 0 {
		v, found, err := cp.FindFailureVoltage(rc, cfg.FailFloor)
		if err != nil {
			return nil, fmt.Errorf("corpus: harvest %s: failure ladder: %w", name, err)
		}
		e.Expected.FailFloor = cfg.FailFloor
		e.Expected.FailVolts = v
		e.Expected.FailFound = found
	}
	e.PlatformDigest = testbed.PlatformDigest(cp.Platform())
	return e, nil
}
