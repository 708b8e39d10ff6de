package core

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/asm"
	"repro/internal/ga"
	"repro/internal/isa"
	"repro/internal/testbed"
	"repro/internal/tracestore"
)

// Mode selects the stress pattern AUDIT generates.
type Mode int

const (
	// Resonance repeats the HP/LP pattern at the PDN's first-droop
	// resonance frequency so droops build in amplitude (A-Res).
	Resonance Mode = iota
	// Excitation produces isolated low→high activity steps (A-Ex): the
	// loop period is placed far off resonance so each onset is a fresh
	// first-droop excitation that tapers off (Fig. 4, left).
	Excitation
)

func (m Mode) String() string {
	if m == Excitation {
		return "excitation"
	}
	return "resonance"
}

// Options configures one AUDIT generation run.
type Options struct {
	// Platform is the measured system (the hardware path of Fig. 5).
	Platform testbed.Platform
	// Opcodes is the instruction repertoire (default: DefaultOpcodeList).
	Opcodes []*isa.Opcode
	// Threads is the homogeneous thread count the stressmark targets;
	// the GA trains against exactly this configuration (§5.A.2: a
	// stressmark generated for 4T is not automatically good at 8T, and
	// vice versa). Default: one per module.
	Threads int
	// LoopCycles is the loop length L+H in cycles; 0 runs the
	// resonance-detection sweep first.
	LoopCycles int
	// SubBlockCycles is K, the hierarchical sub-block length (§3.C).
	// Default 6. Set equal to the HP length for a flat ([13]-style)
	// genome.
	SubBlockCycles int
	// Mode selects resonance or excitation generation.
	Mode Mode
	// FPThrottle caps FP issue during evaluation (Table 2's A-Res-Th is
	// generated by re-running AUDIT with this set).
	FPThrottle int
	// Cost scores each measurement (default MaxDroop).
	Cost CostFunc
	// GA overrides the search configuration (zero value → defaults).
	GA ga.Config
	// MeasureCycles and WarmupCycles control each fitness evaluation.
	MeasureCycles uint64
	WarmupCycles  uint64
	// NopBias is the probability a fresh slot starts empty.
	NopBias float64
	// NoSeed disables seeding the initial population with the trivial
	// probe stressmark (used when comparing raw generation policies,
	// §3.C).
	NoSeed bool
	// SeedGenomes are injected into the initial population ahead of the
	// probe seed — pass a saved population (LoadStressmark) to resume a
	// previous search.
	SeedGenomes []Genome
	// Name labels the generated stressmark.
	Name string
	// Seed drives all stochastic choices.
	Seed int64
	// WrapRunner, when non-nil, wraps the compiled platform before any
	// fitness measurement — e.g. with a faults.Injector to exercise the
	// search under a lab-fault model. The GA's resilience policy
	// (GA.MaxRetries, GA.Repeats, GA.DegradeFailures) absorbs the
	// transient errors the wrapper raises.
	WrapRunner func(testbed.Runner) testbed.Runner
	// CheckpointPath, when set, atomically persists a SearchCheckpoint
	// after the initial scoring and after every generation, so a killed
	// search loses at most one generation of work.
	CheckpointPath string
	// Resume continues a search from a checkpoint written via
	// CheckpointPath. Thread count, loop length and mode come from the
	// checkpoint (the resonance sweep is skipped); with the same
	// Options otherwise, the resumed search finishes bit-identically to
	// the uninterrupted one.
	Resume *SearchCheckpoint
	// ROMTolV, when positive, lets trace replays run on the
	// reduced-order PDN kernel whenever its calibrated worst-case
	// die-voltage error at the trace's drive level stays within this
	// many volts (see testbed.Platform.ROMTolV). The default 0 keeps
	// every replay on the exact bit-identity kernel. A non-zero value
	// becomes part of the platform identity (digests, corpus
	// baselines).
	ROMTolV float64
	// TraceCacheBytes overrides the compiled platform's trace-cache
	// byte budget (0 keeps the 128 MiB default). Campaigns over large
	// populations of long-running candidates can raise it to keep every
	// distinct trace resident across generations.
	TraceCacheBytes int
	// TraceStorePath, when non-empty, attaches a persistent
	// content-addressed trace store rooted at this directory beneath
	// the in-memory cache: phase-1 captures are written through, and a
	// later process (a resumed campaign, a re-run suite) skips capture
	// for any trace already on disk. Corrupt or version-skewed records
	// degrade to cache misses; results are bit-identical with the store
	// enabled, disabled, cold or warm.
	TraceStorePath string
}

// Stressmark is AUDIT's output: a generated program plus its search
// provenance.
type Stressmark struct {
	Name       string
	Program    *asm.Program
	Threads    int
	LoopCycles int
	Mode       Mode
	// FPThrottle is the FP issue cap the search trained against
	// (0 = unthrottled) — part of the mark's identity: a throttled mark
	// replayed unthrottled is a different experiment.
	FPThrottle int
	// DroopV is the best cost-winning droop measured during generation.
	DroopV float64
	// Genome is the winning genome (rebuildable via CodeGen).
	Genome Genome
	// Search is the GA trajectory (evaluations, history).
	Search *ga.Result[Genome]
	// TraceStats snapshots the compiled platform's trace-cache and
	// batch-pipeline counters at the end of the search (cache hit
	// rates, lane occupancy — see testbed.TraceStats).
	TraceStats testbed.TraceStats
	// SweepPoints holds the resonance sweep, when one ran.
	SweepPoints []SweepPoint
	// Gen is the code generator that built Program; it can rebuild
	// variants of Genome (e.g. the §5.A.5 NOP ablation).
	Gen *CodeGen
}

func (o *Options) fillDefaults() {
	if o.Opcodes == nil {
		o.Opcodes = DefaultOpcodeList()
	}
	if !o.Platform.Chip.HasFMA {
		var kept []*isa.Opcode
		for _, op := range o.Opcodes {
			if op.Class != isa.ClassFMA {
				kept = append(kept, op)
			}
		}
		o.Opcodes = kept
	}
	if o.ROMTolV != 0 {
		o.Platform.ROMTolV = o.ROMTolV
	}
	if o.Threads == 0 {
		o.Threads = o.Platform.Chip.Modules
	}
	if o.SubBlockCycles == 0 {
		o.SubBlockCycles = 6
	}
	if o.Cost == nil {
		o.Cost = MaxDroop
	}
	if o.MeasureCycles == 0 {
		o.MeasureCycles = 5000
	}
	if o.WarmupCycles == 0 {
		o.WarmupCycles = 3000
	}
	if o.NopBias == 0 {
		o.NopBias = 0.25
	}
	if o.Name == "" {
		o.Name = "audit-stressmark"
	}
	if o.GA.PopSize == 0 {
		o.GA = ga.Config{
			PopSize:        12,
			Elites:         2,
			TournamentK:    3,
			MutationProb:   0.6,
			MaxGenerations: 12,
			StagnantLimit:  5,
		}
	}
	if o.GA.Seed == 0 {
		o.GA.Seed = o.Seed + 1
	}
}

// applyTraceOptions configures the compiled platform's trace layer
// from Options: the in-memory cache budget and, when requested, the
// persistent on-disk store. An unopenable store directory is a
// configuration error and fails the run; once the store is open, all
// its runtime failure modes degrade to cache misses.
func applyTraceOptions(cp *testbed.CompiledPlatform, opt Options) error {
	if opt.TraceCacheBytes > 0 {
		cp.SetTraceCacheLimit(opt.TraceCacheBytes)
	}
	if opt.TraceStorePath != "" {
		st, err := tracestore.Open(opt.TraceStorePath, 0)
		if err != nil {
			return fmt.Errorf("core: trace store: %w", err)
		}
		cp.SetTraceStore(st)
	}
	return nil
}

// setup is what prepare hands a search front: the options with
// defaults and any resume envelope applied, the compiled platform, the
// loop (swept when LoopCycles was 0), its region split into S
// sub-blocks of K cycles plus LP cycles, and the code generator.
type setup struct {
	opt      Options
	hetero   bool
	cp       *testbed.CompiledPlatform
	sweep    []SweepPoint
	loop     int
	k, s, lp int
	cg       *CodeGen
}

// prepare is the set-up both search fronts share. A heterogeneous
// search refuses to sweep and supports resonance mode only.
func prepare[G any](opt Options, hetero bool) (*setup, *ga.Checkpoint[G], error) {
	su, resume, err := identify[G](opt, hetero)
	if err != nil {
		return nil, nil, err
	}
	// Compile the platform once: the resonance sweep and every fitness
	// call reuse the factored PDN system and pooled chip state instead
	// of rebuilding them per run.
	if su.cp, err = su.opt.Platform.Compile(); err != nil {
		return nil, nil, err
	}
	if err := applyTraceOptions(su.cp, su.opt); err != nil {
		return nil, nil, err
	}
	if su.loop == 0 {
		sweep := ResonanceSweep{Platform: su.opt.Platform, Runner: su.cp, Threads: su.opt.Threads}
		pts, best, err := sweep.Run(16, 64, 4)
		if err != nil {
			return nil, nil, fmt.Errorf("core: resonance sweep: %w", err)
		}
		su.sweep, su.loop = pts, best.LoopCycles
	}
	if err := su.split(); err != nil {
		return nil, nil, err
	}
	return su, resume, nil
}

// Precheck makes the refusals Generate (hetero false) or GenerateHetero
// (hetero true) makes before any work: a heterogeneous search without
// LoopCycles or outside resonance mode, and a Resume checkpoint from
// another kind of search or format version, or with a population the
// search could not have written. A caller that prints before searching
// runs it first, so that a refused search prints nothing.
func Precheck(opt Options, hetero bool) error {
	var err error
	if hetero {
		_, _, err = identify[HeteroGenome](opt, hetero)
	} else {
		_, _, err = identify[Genome](opt, hetero)
	}
	return err
}

// identify fills in opt's defaults and the identity a Resume envelope
// pins, makes the refusals that need no platform, and, when resuming,
// splits the loop and checks the population against it.
func identify[G any](opt Options, hetero bool) (*setup, *ga.Checkpoint[G], error) {
	opt.fillDefaults()
	var resume *ga.Checkpoint[G]
	if opt.Resume != nil {
		var err error
		if resume, err = decodeGACheckpoint[G](opt.Resume, hetero); err != nil {
			return nil, nil, err
		}
		// The checkpoint pins the search identity; the sweep is skipped.
		opt.LoopCycles = opt.Resume.LoopCycles
		opt.Threads = opt.Resume.Threads
		opt.Mode = Mode(opt.Resume.Mode)
		if opt.Resume.Name != "" {
			opt.Name = opt.Resume.Name
		}
	}
	if hetero && opt.LoopCycles == 0 {
		return nil, nil, fmt.Errorf("core: heterogeneous generation needs an explicit LoopCycles")
	}
	if hetero && opt.Mode != Resonance {
		return nil, nil, fmt.Errorf("core: heterogeneous generation supports resonance mode only")
	}
	su := &setup{opt: opt, hetero: hetero, loop: opt.LoopCycles}
	if resume == nil {
		return su, nil, nil
	}
	if err := su.split(); err != nil {
		return nil, nil, err
	}
	if err := resume.Fits(opt.GA); err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	if err := resume.DrawsFit(opt.GA, su.drawsPerGenome()); err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	for i, g := range resume.Population {
		if !su.fits(g) {
			return nil, nil, fmt.Errorf("core: resume: checkpoint genome %d does not have the shape this search builds", i)
		}
	}
	if !su.fits(resume.Best) {
		return nil, nil, fmt.Errorf("core: resume: checkpoint's best genome does not have the shape this search builds")
	}
	return su, resume, nil
}

// split divides su.loop into the mode's regions, S sub-blocks of K
// cycles plus LP cycles, and builds the code generator.
func (su *setup) split() error {
	// Region split. Resonance: HP = half the loop. Excitation: the
	// pattern repeats every 6 resonance periods — far enough below the
	// resonance that droops cannot build — with a 2-period HP burst.
	var hp, lp, totalLoop int
	switch su.opt.Mode {
	case Resonance:
		totalLoop = su.loop
		hp = su.loop / 2
		lp = totalLoop - hp - 1 // dec+jnz cost ≈ one cycle
	case Excitation:
		// The repeat period sits between harmonics of the resonance
		// (6.5×) so successive excitations cannot build resonantly.
		totalLoop = su.loop*6 + su.loop/2
		hp = su.loop * 2
		lp = totalLoop - hp - 1
	default:
		return fmt.Errorf("core: unknown mode %d", su.opt.Mode)
	}
	k := su.opt.SubBlockCycles
	if k > hp {
		k = hp
	}
	s := hp / k // HP = S sub-blocks of K cycles (remainder folded into LP)
	if s < 1 {
		s = 1
	}
	su.k, su.s, su.lp = k, s, lp+hp-s*k

	su.cg = &CodeGen{
		Opcodes:   su.opt.Opcodes,
		Width:     su.opt.Platform.Chip.DecodeWidth,
		LoopIters: 1 << 40,
		MemBytes:  4096,
	}
	return su.cg.Validate()
}

// drawsPerGenome bounds the RNG values one genome's Random, or one
// child's Crossover and Mutate together, draw (CodeGen.NewGenome,
// Crossover and Mutate): five a slot to build a genome; one a slot to
// cross two; one, then three times at most seven, to mutate one. A
// heterogeneous genome holds one genome a thread, and one more draw
// picks the thread to mutate.
func (su *setup) drawsPerGenome() uint64 {
	slots := uint64(su.k * su.cg.Width)
	threads := uint64(1)
	if su.hetero {
		threads = uint64(su.opt.Threads)
	}
	return max(threads*5*slots, threads*slots+1+1+3*7)
}

// fits reports whether g, a Genome or a HeteroGenome, has the shape
// this search builds: a sub-block of K cycles of slots, at least one
// sub-block and no negative LP region, and, heterogeneous, one such
// genome for every thread.
func (su *setup) fits(g any) bool {
	switch g := g.(type) {
	case Genome:
		return len(g.Slots) == su.k*su.cg.Width && g.S >= 1 && g.LPCycles >= 0
	case HeteroGenome:
		if len(g.PerThread) != su.opt.Threads {
			return false
		}
		for _, t := range g.PerThread {
			if !su.fits(t) {
				return false
			}
		}
		return true
	}
	return false
}

// evolve is the GA loop both search fronts share: it wraps the
// compiled platform, measures each candidate as the programs build
// returns (one for every thread, or one per thread in placement
// order), scores it with the cost function, and checkpoints the search
// under the setup's identity.
func evolve[G any](ctx context.Context, su *setup, ops ga.Ops[G], seeds []G, build func(G) ([]*asm.Program, error), resume *ga.Checkpoint[G]) (*ga.Result[G], error) {
	opt := su.opt
	var runner testbed.Runner = su.cp
	if opt.WrapRunner != nil {
		if runner = opt.WrapRunner(su.cp); runner == nil {
			return nil, fmt.Errorf("core: WrapRunner returned nil")
		}
	}
	makeRC := func(g G) (testbed.RunConfig, error) {
		progs, err := build(g)
		if err != nil {
			return testbed.RunConfig{}, err
		}
		specs, err := testbed.SpreadPlacement(opt.Platform.Chip, progs[0], opt.Threads)
		if err != nil {
			return testbed.RunConfig{}, err
		}
		if len(progs) > 1 {
			for i := range specs {
				specs[i].Program = progs[i]
			}
		}
		return testbed.RunConfig{
			Threads:      specs,
			MaxCycles:    opt.WarmupCycles + opt.MeasureCycles,
			WarmupCycles: opt.WarmupCycles,
			FPThrottle:   opt.FPThrottle,
		}, nil
	}
	eval := func(g G) (float64, error) {
		rc, err := makeRC(g)
		if err != nil {
			return 0, err
		}
		m, err := runner.Run(rc)
		if err != nil {
			return 0, err
		}
		return opt.Cost(m), nil
	}
	ops.EvalGeneration = batchEval(runner, opt, makeRC)
	var sink func(*ga.Checkpoint[G]) error
	if opt.CheckpointPath != "" {
		sink = checkpointSink[G](opt.CheckpointPath, SearchCheckpoint{
			Name:       opt.Name,
			Hetero:     su.hetero,
			Threads:    opt.Threads,
			LoopCycles: su.loop,
			Mode:       int(opt.Mode),
		})
	}
	res, err := ga.RunCheckpointed(ctx, opt.GA, ops, seeds, eval, resume, sink)
	if err != nil {
		what := "GA"
		if su.hetero {
			what = "hetero GA"
		}
		return nil, fmt.Errorf("core: %s: %w", what, err)
	}
	return res, nil
}

// Generate runs the full AUDIT flow: optional resonance detection, then
// the GA over hierarchical genomes with fitness measured on the
// platform. The search trains against the configured thread count,
// throttle setting and cost function — re-running with different
// settings is how the paper adapts to new configurations (§5.B, §5.C).
// Cancelling ctx stops the search between evaluations; with
// CheckpointPath set, the interrupted run can be resumed losslessly.
func Generate(ctx context.Context, opt Options) (*Stressmark, error) {
	su, resume, err := prepare[Genome](opt, false)
	if err != nil {
		return nil, err
	}
	opt, cg := su.opt, su.cg
	build := func(g Genome) ([]*asm.Program, error) {
		prog, err := cg.Build(opt.Name, g)
		return []*asm.Program{prog}, err
	}
	ops := ga.Ops[Genome]{
		Random: func(rng *rand.Rand) Genome {
			return cg.NewGenome(rng, su.k, su.s, su.lp, opt.NopBias)
		},
		Crossover:   cg.Crossover,
		Mutate:      cg.Mutate,
		Fingerprint: Genome.Fingerprint,
	}
	// Seed the initial population with the trivial high-power probe
	// pattern — "the initial population of stressmarks either can be
	// generated randomly or seeded with existing benchmarks or
	// stressmarks to improve the convergence rate" (§3).
	var seeds []Genome
	for _, g := range opt.SeedGenomes {
		if len(g.Slots) == su.k*cg.Width {
			seeds = append(seeds, g)
		}
	}
	if !opt.NoSeed {
		seeds = append(seeds, cg.seedGenome(su.k, su.s, su.lp))
	}
	res, err := evolve(ctx, su, ops, seeds, build, resume)
	if err != nil {
		return nil, err
	}
	prog, err := cg.Build(opt.Name, res.Best)
	if err != nil {
		return nil, err
	}
	return &Stressmark{
		Name:        opt.Name,
		Program:     prog,
		Threads:     opt.Threads,
		LoopCycles:  su.loop,
		Mode:        opt.Mode,
		FPThrottle:  opt.FPThrottle,
		DroopV:      res.BestFitness,
		Genome:      res.Best,
		Search:      res,
		TraceStats:  su.cp.TraceStats(),
		SweepPoints: su.sweep,
		Gen:         cg,
	}, nil
}

// batchEval builds the GA's generation-level evaluator over a runner
// that supports batched measurement, or returns nil (per-candidate
// scoring) when the runner cannot batch — a fault injector, say.
// Scores are identical to the per-candidate path; only the evaluation
// schedule changes.
// A runner that also implements testbed.ContextBatchRunner (the
// compiled platform, the distributed coordinator) gets the search
// context, so cancelling the search stops the batch instead of waiting
// for it to drain.
func batchEval[G any](runner testbed.Runner, opt Options, makeRC func(G) (testbed.RunConfig, error)) func(context.Context, []G) ([]float64, []error) {
	br, ok := runner.(testbed.BatchRunner)
	if !ok {
		return nil
	}
	cbr, _ := runner.(testbed.ContextBatchRunner)
	workers := opt.GA.Parallel
	if workers <= 0 {
		workers = 1
	}
	cost := opt.Cost
	return func(ctx context.Context, gs []G) ([]float64, []error) {
		fits := make([]float64, len(gs))
		errs := make([]error, len(gs))
		rcs := make([]testbed.RunConfig, 0, len(gs))
		slots := make([]int, 0, len(gs))
		for i, g := range gs {
			rc, err := makeRC(g)
			if err != nil {
				errs[i] = err
				continue
			}
			rcs = append(rcs, rc)
			slots = append(slots, i)
		}
		var ms []*testbed.Measurement
		var merrs []error
		if cbr != nil {
			ms, merrs = cbr.MeasureBatchContext(ctx, rcs, 0, workers)
		} else {
			ms, merrs = br.MeasureBatch(rcs, 0, workers)
		}
		for k, i := range slots {
			if merrs[k] != nil {
				errs[i] = merrs[k]
				continue
			}
			fits[i] = cost(ms[k])
		}
		return fits, errs
	}
}
