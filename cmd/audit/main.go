// Command audit generates a di/dt stressmark for a simulated platform
// and reports the search trajectory, the generated assembly, and its
// measured droop. This is the end-to-end AUDIT flow of Fig. 5 on the
// "hardware" (simulated testbed) path.
//
// Usage:
//
//	audit [flags]
//
//	-platform   bulldozer | phenom            (default bulldozer)
//	-threads    homogeneous thread count      (default 4)
//	-mode       resonance | excitation        (default resonance)
//	-loop       loop length in cycles; 0 = auto resonance sweep
//	-subblock   hierarchical sub-block size K (default 6)
//	-throttle   FP issue cap during generation (0 = off)
//	-pop        GA population                 (default 14)
//	-gens       GA max generations            (default 14)
//	-seed       RNG seed                      (default 1)
//	-o          write the stressmark assembly to this file
//	-obj        write the binary object image to this file
//	-save       write the finished stressmark (winner + population) here
//	-corpus-add harvest the finished stressmark into this corpus dir
//	-checkpoint write a mid-search checkpoint here every generation
//	-resume     continue from a -checkpoint or -save file
//	-faults     inject lab faults at this transient rate (0 = off)
//	-rom-tol    volts of PDN replay error admitting the reduced-order
//	            kernel (0 = off, exact replay only); a non-zero value
//	            changes the platform digest
//	-trace-cache-mb trace cache budget in MiB (0 = default 128)
//	-cpuprofile write a pprof CPU profile of the search to this file
//	-pprof      serve net/http/pprof on this address (e.g. :6060)
//
// Distributed search (stdout stays byte-identical to a single-node run):
//
//	-listen      coordinate: serve the worker protocol on this address
//	             and lease each generation's evaluations to workers
//	-unit-size   run configs per work unit (default 4)
//	-lease-ttl   lease deadline; heartbeats extend it (default 3s)
//	-min-workers wait for this many workers before searching
//	-v           log lease traffic to stderr
//	-worker      run as a measurement worker instead of searching
//	-coordinator coordinator base URL, e.g. http://host:7070
//	-worker-id   stable worker name (default host.pid)
//	-worker-par  capture parallelism per leased unit (default 1)
//
// With -listen, -trace-store also serves the directory to workers over
// /v1/trace, so each distinct trace is captured once in the pool; a
// worker's own -trace-store is a local store in front of that tier.
// -rom-tol is platform identity: workers must match the coordinator.
//
// A search with -checkpoint survives Ctrl-C (or a coordinator crash):
// `audit -resume <checkpoint>` finishes it bit-identically to an
// uninterrupted run.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/audit"
	"repro/internal/corpus"
	"repro/internal/dist"
	"repro/internal/report"
	"repro/internal/testbed"
	"repro/internal/tracestore"
)

type cliOptions struct {
	platform, mode         string
	threads, loop          int
	subblock, throttle     int
	pop, gens              int
	seed                   int64
	outAsm, outObj, saveTo string
	checkpoint, resume     string
	corpusAdd              string
	faultRate              float64
	hetero                 bool
	romTol                 float64
	traceCacheMB           int
	traceStore             string
	cpuProfile, pprofAddr  string
	worker                 bool
	coordinator, workerID  string
	workerPar              int
	listen                 string
	unitSize, minWorkers   int
	leaseTTL               time.Duration
	verbose                bool
}

// parseFlags reads args into a cliOptions over a fresh FlagSet that
// reports to stderr.
func parseFlags(args []string, stderr io.Writer) (cliOptions, error) {
	var c cliOptions
	fs := flag.NewFlagSet("audit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.platform, "platform", "bulldozer", "bulldozer or phenom")
	fs.IntVar(&c.threads, "threads", 4, "homogeneous thread count")
	fs.StringVar(&c.mode, "mode", "resonance", "resonance or excitation")
	fs.IntVar(&c.loop, "loop", 0, "loop length in cycles (0 = auto sweep)")
	fs.IntVar(&c.subblock, "subblock", 6, "hierarchical sub-block cycles")
	fs.IntVar(&c.throttle, "throttle", 0, "FP throttle limit during generation")
	fs.IntVar(&c.pop, "pop", 14, "GA population size")
	fs.IntVar(&c.gens, "gens", 14, "GA max generations")
	fs.Int64Var(&c.seed, "seed", 1, "random seed")
	fs.StringVar(&c.outAsm, "o", "", "write NASM-style assembly here")
	fs.StringVar(&c.outObj, "obj", "", "write binary object image here")
	fs.StringVar(&c.saveTo, "save", "", "write the finished stressmark (winner + population) here")
	fs.StringVar(&c.corpusAdd, "corpus-add", "", "harvest the finished stressmark into this corpus directory (see cmd/corpus)")
	fs.StringVar(&c.checkpoint, "checkpoint", "", "write a mid-search checkpoint here every generation")
	fs.StringVar(&c.resume, "resume", "", "resume from a -checkpoint or -save file")
	fs.Float64Var(&c.faultRate, "faults", 0, "inject lab faults at this transient rate in [0,1] (0 = off)")
	fs.BoolVar(&c.hetero, "hetero", false, "give each thread its own genome (resonance mode only)")
	fs.Float64Var(&c.romTol, "rom-tol", 0, "volts of PDN replay error admitting the reduced-order kernel (0 = exact replay only)")
	fs.IntVar(&c.traceCacheMB, "trace-cache-mb", 0, "trace cache budget in MiB (0 = default 128)")
	fs.StringVar(&c.traceStore, "trace-store", "", "persist chip traces in this directory across runs (created if absent); with -listen, also serve them to workers over /v1/trace")
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the search to this file")
	fs.StringVar(&c.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. :6060)")
	fs.BoolVar(&c.worker, "worker", false, "run as a measurement worker for an audit -listen coordinator")
	fs.StringVar(&c.coordinator, "coordinator", "", "coordinator base URL for -worker, e.g. http://host:7070")
	fs.StringVar(&c.workerID, "worker-id", "", "stable worker name for -worker (default host.pid)")
	fs.IntVar(&c.workerPar, "worker-par", 1, "capture parallelism per leased unit in -worker mode")
	fs.StringVar(&c.listen, "listen", "", "coordinate a distributed search: serve the worker protocol on this address")
	fs.IntVar(&c.unitSize, "unit-size", 0, "run configs per work unit with -listen (0 = default 4)")
	fs.DurationVar(&c.leaseTTL, "lease-ttl", 0, "lease deadline with -listen; heartbeats extend it (0 = default 3s)")
	fs.IntVar(&c.minWorkers, "min-workers", 0, "with -listen, wait for this many registered workers before searching")
	fs.BoolVar(&c.verbose, "v", false, "log lease traffic to stderr (with -listen)")
	return c, fs.Parse(args)
}

func main() {
	// Ctrl-C cancels the search between evaluations instead of killing
	// the process mid-write; with -checkpoint the run is resumable.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the whole command: it parses args, runs the search (or the
// worker) and returns the exit code — 2 for a usage error, 130 for an
// interrupted search, 1 for any other failure.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	c, err := parseFlags(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2 // the FlagSet has said why
	}
	if c.listen != "" && (c.worker || c.faultRate != 0 || c.hetero) {
		fmt.Fprintln(stderr, "audit: -listen coordinates a homogeneous search; it does not combine with -worker, -faults or -hetero")
		return 2
	}
	if c.pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(c.pprofAddr, nil); err != nil {
				fmt.Fprintln(stderr, "audit: pprof server:", err)
			}
		}()
		fmt.Fprintf(stderr, "audit: pprof at http://%s/debug/pprof/\n", c.pprofAddr)
	}
	if c.cpuProfile != "" {
		f, err := os.Create(c.cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, "audit:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "audit: cpuprofile:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	if c.worker {
		err = runWorker(ctx, c, stderr)
		if errors.Is(err, context.Canceled) {
			return 0 // clean shutdown: leases expire, coordinator reassigns
		}
	} else {
		err = search(ctx, c, stdout, stderr)
		if errors.Is(err, context.Canceled) {
			if c.checkpoint != "" {
				fmt.Fprintf(stderr, "audit: interrupted; resume with -resume %s\n", c.checkpoint)
			} else {
				fmt.Fprintln(stderr, "audit: interrupted (use -checkpoint to make searches resumable)")
			}
			return 130
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "audit:", err)
		return 1
	}
	return 0
}

// resolvePlatform returns the -platform preset with -rom-tol applied.
// The tolerance is set on the platform (not only Options) so every
// compile in this process — search, resonance sweep, corpus harvest,
// worker — shares one platform identity, and Platform.Compile refuses
// a negative or NaN value for all of them.
func (c cliOptions) resolvePlatform() (audit.Platform, error) {
	plat, err := testbed.PlatformByName(c.platform)
	if err != nil {
		return plat, err
	}
	plat.ROMTolV = c.romTol
	return plat, nil
}

// labFaults scales the lab preset so -faults sets the transient-loss
// rate and the other nuisances follow proportionally, and validates
// the result: a rate outside [0,1] (or NaN) is refused.
func labFaults(rate float64, seed int64) (audit.FaultConfig, error) {
	fc := audit.LabFaults(seed)
	scale := rate / fc.TransientRate
	fc.TransientRate = rate
	fc.DropoutRate *= scale
	fc.ThrottleRate *= scale
	if err := fc.Validate(); err != nil {
		return fc, fmt.Errorf("-faults %v: %w", rate, err)
	}
	return fc, nil
}

// searchOptions builds the search the flags describe: the platform,
// the mode and the GA. Faults, -listen and -resume are layered on by
// search.
func (c cliOptions) searchOptions() (audit.Options, error) {
	plat, err := c.resolvePlatform()
	if err != nil {
		return audit.Options{}, err
	}
	var m audit.Mode
	switch c.mode {
	case "resonance":
		m = audit.Resonance
	case "excitation":
		m = audit.Excitation
	default:
		return audit.Options{}, fmt.Errorf("unknown mode %q", c.mode)
	}
	return audit.Options{
		Platform:        plat,
		Threads:         c.threads,
		Mode:            m,
		LoopCycles:      c.loop,
		SubBlockCycles:  c.subblock,
		FPThrottle:      c.throttle,
		CheckpointPath:  c.checkpoint,
		ROMTolV:         c.romTol,
		TraceCacheBytes: c.traceCacheMB << 20,
		TraceStorePath:  c.traceStore,
		GA: audit.GAConfig{
			PopSize: c.pop, Elites: 2, TournamentK: 3,
			MutationProb: 0.6, MaxGenerations: c.gens, StagnantLimit: 6,
			Seed: c.seed,
		},
		Seed: c.seed,
		Name: fmt.Sprintf("A-%s-%dT", c.mode, c.threads),
	}, nil
}

// search runs the AUDIT flow and prints its deterministic outcome to
// stdout; timing and distribution telemetry go to stderr. With
// -listen it is the same search with generation evaluation sharded to
// workers.
func search(ctx context.Context, c cliOptions, stdout, stderr io.Writer) error {
	opts, err := c.searchOptions()
	if err != nil {
		return err
	}
	plat := opts.Platform
	var fc audit.FaultConfig
	if c.faultRate != 0 {
		if fc, err = labFaults(c.faultRate, c.seed); err != nil {
			return err
		}
	}

	var co *coordinator
	if c.listen != "" {
		if co, err = listen(c, plat, stderr); err != nil {
			return err
		}
		defer co.srv.Close()
		opts.WrapRunner = func(r audit.Runner) audit.Runner { return co.wrap(ctx, r) }
	}

	if c.resume != "" {
		if err := loadResume(c.resume, &opts, stdout); err != nil {
			return err
		}
	}

	var injector *audit.FaultInjector
	if c.faultRate != 0 {
		opts.WrapRunner = func(r audit.Runner) audit.Runner {
			in, err := audit.NewFaultInjector(fc, r)
			if err != nil {
				panic(err) // fc was validated above and r is the compiled platform
			}
			injector = in
			return in
		}
		// Resilience policy to absorb the injected faults.
		opts.GA.MaxRetries = 4
		opts.GA.DegradeFailures = true
		fmt.Fprintf(stdout, "fault injection on: transient rate %.0f%%, retries %d\n",
			100*c.faultRate, opts.GA.MaxRetries)
	}

	if c.hetero {
		if c.corpusAdd != "" {
			return fmt.Errorf("-corpus-add records homogeneous stressmarks only (not -hetero)")
		}
		return runHetero(ctx, c, plat, opts, &injector, stdout, stderr)
	}

	fmt.Fprintf(stdout, "generating %s stressmark for %s (%dT, throttle=%d)...\n",
		c.mode, plat.Chip.Name, c.threads, c.throttle)
	start := time.Now()
	sm, err := audit.GenerateContext(ctx, opts)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	if len(sm.SweepPoints) > 0 {
		tbl := &report.Table{Title: "resonance sweep", Headers: []string{"loop (cyc)", "freq (MHz)", "droop (mV)"}}
		for _, p := range sm.SweepPoints {
			tbl.AddRow(fmt.Sprint(p.LoopCycles), report.F(p.FreqHz/1e6, 1), report.F(p.DroopV*1e3, 1))
		}
		fmt.Fprintln(stdout, tbl)
	}
	fmt.Fprintf(stdout, "loop length: %d cycles (%.1f MHz)\n", sm.LoopCycles,
		plat.Chip.ClockHz/float64(sm.LoopCycles)/1e6)
	fmt.Fprintf(stdout, "GA: %d evaluations over %d generations", sm.Search.Evaluations, sm.Search.Generations)
	if hits, misses := sm.Search.CacheHits, sm.Search.CacheMisses; hits+misses > 0 {
		fmt.Fprintf(stdout, " (fitness cache: %d hits / %d misses, %.0f%% saved)",
			hits, misses, 100*float64(hits)/float64(hits+misses))
	}
	fmt.Fprintln(stdout)
	printThroughput(stderr, sm.Search.Evaluations, elapsed,
		sm.Search.CacheHits, sm.Search.CacheMisses, sm.TraceStats)
	if co != nil {
		co.report()
	}
	printResilience(stdout, sm.Search.Retries, sm.Search.TimedOut, sm.Search.Degraded, injector)
	fmt.Fprintln(stdout, report.BarChart("best droop by generation (mV)",
		genLabels(len(sm.Search.History)), scale(sm.Search.History, 1e3), 40))
	fmt.Fprintf(stdout, "best droop: %s (%.1f%% of nominal)\n",
		report.MilliVolts(sm.DroopV), 100*sm.DroopV/plat.Nominal())

	if c.outAsm != "" {
		if err := writeFileAtomic(c.outAsm, []byte(sm.Program.Text())); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "assembly written to", c.outAsm)
	}
	if c.outObj != "" {
		blob, err := audit.EncodeProgram(sm.Program)
		if err != nil {
			return err
		}
		if err := writeFileAtomic(c.outObj, blob); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "object image written to", c.outObj)
	}
	if c.saveTo != "" {
		if err := sm.SaveFile(c.saveTo); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "stressmark written to", c.saveTo)
	}
	if c.corpusAdd != "" {
		if err := depositCorpus(c, plat, sm, stdout); err != nil {
			return err
		}
	}
	if c.outAsm == "" {
		fmt.Fprintln(stdout, "\n--- generated stressmark ---")
		fmt.Fprint(stdout, sm.Program.Text())
	}
	return nil
}

// runWorker turns this process into a measurement shard for an
// `audit -listen` coordinator: compile the local platform, register
// with its digest, then lease → measure → post until killed. A
// SIGKILLed or partitioned worker costs the search nothing but a lease
// TTL.
func runWorker(ctx context.Context, c cliOptions, stderr io.Writer) error {
	if c.coordinator == "" {
		return fmt.Errorf("-worker needs -coordinator <url>")
	}
	// The ROM tolerance is platform identity: the worker registers the
	// ROM-enabled digest, so it only leases work from a coordinator
	// running the same tolerance.
	plat, err := c.resolvePlatform()
	if err != nil {
		return err
	}
	id := c.workerID
	if id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		id = fmt.Sprintf("%s.%d", host, os.Getpid())
	}
	cp, err := audit.Compile(plat)
	if err != nil {
		return err
	}
	if c.traceStore != "" {
		st, err := tracestore.Open(c.traceStore, 0)
		if err != nil {
			return fmt.Errorf("trace store: %w", err)
		}
		cp.SetTraceStore(st)
	}
	// The coordinator's trace tier sits below the local store: traces a
	// peer already captured arrive compressed over the wire, and fresh
	// captures are published for the rest of the pool. A coordinator
	// without a trace store answers 404 and every lookup degrades to a
	// local capture.
	logf := func(format string, args ...any) {
		fmt.Fprintf(stderr, format+"\n", args...)
	}
	tier, err := dist.NewTraceTierClient(dist.TraceTierConfig{
		BaseURL: c.coordinator, WorkerID: id, Logf: logf,
	})
	if err != nil {
		return err
	}
	cp.SetTraceTier(tier)
	w, err := dist.NewWorker(dist.WorkerConfig{
		ID:       id,
		BaseURL:  c.coordinator,
		Runner:   cp,
		Platform: testbed.PlatformDigest(plat),
		Parallel: c.workerPar,
		Logf:     logf,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "audit: worker %s serving %s for %s\n", id, plat.Chip.Name, c.coordinator)
	err = w.Run(ctx)
	st := w.Stats()
	fmt.Fprintf(stderr, "audit: worker %s done: %d units, %d abandoned, %d failures, %d rpc retries\n",
		id, st.Units, st.Abandoned, st.Failures, st.RPCRetries)
	if ts := cp.TraceStats(); ts.TierHits+ts.TierMisses+ts.Captures > 0 {
		fmt.Fprintf(stderr, "audit: worker %s traces: %d captured, %d tier hits, %d store hits, %s on the wire, capture time saved %s\n",
			id, ts.Captures, ts.TierHits, ts.StoreHits, wireBytes(ts.WireBytes),
			time.Duration(ts.CaptureNSSaved).Round(time.Millisecond))
	}
	return err
}

// wireBytes renders a byte count with a binary unit.
func wireBytes(n uint64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// runHetero is search for -hetero; injector is set once the search
// wraps its runner with -faults.
func runHetero(ctx context.Context, c cliOptions, plat audit.Platform, opts audit.Options, injector **audit.FaultInjector, stdout, stderr io.Writer) error {
	if opts.LoopCycles == 0 && opts.Resume == nil {
		return fmt.Errorf("-hetero needs an explicit -loop (run cmd/resonance first)")
	}
	fmt.Fprintf(stdout, "generating heterogeneous %s stressmark for %s (%dT)...\n",
		c.mode, plat.Chip.Name, c.threads)
	start := time.Now()
	hsm, err := audit.GenerateHeteroContext(ctx, opts)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Fprintf(stdout, "GA: %d evaluations", hsm.Search.Evaluations)
	if hits, misses := hsm.Search.CacheHits, hsm.Search.CacheMisses; hits+misses > 0 {
		fmt.Fprintf(stdout, " (fitness cache: %d hits / %d misses)", hits, misses)
	}
	fmt.Fprintln(stdout)
	printThroughput(stderr, hsm.Search.Evaluations, elapsed,
		hsm.Search.CacheHits, hsm.Search.CacheMisses, hsm.TraceStats)
	if *injector != nil {
		printResilience(stdout, hsm.Search.Retries, hsm.Search.TimedOut, hsm.Search.Degraded, *injector)
	}
	fmt.Fprintf(stdout, "best droop: %s; per-thread programs:\n", report.MilliVolts(hsm.DroopV))
	for i, prog := range hsm.Programs {
		fmt.Fprintf(stdout, "  thread %d: %d instructions, FP fraction %.0f%%\n",
			i, prog.Len(), 100*prog.FPFraction())
	}
	if c.outAsm != "" {
		for i, prog := range hsm.Programs {
			name := fmt.Sprintf("%s.t%d", c.outAsm, i)
			if err := writeFileAtomic(name, []byte(prog.Text())); err != nil {
				return err
			}
		}
		fmt.Fprintf(stdout, "per-thread assembly written to %s.t*\n", c.outAsm)
	}
	if c.saveTo != "" {
		if err := hsm.SaveFile(c.saveTo); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "stressmark written to", c.saveTo)
	}
	return nil
}

// depositCorpus harvests the finished stressmark into the regression
// corpus: a fresh baseline measurement on a clean compiled platform,
// stamped with its digest (see cmd/corpus for replaying it in CI).
func depositCorpus(c cliOptions, plat audit.Platform, sm *audit.Stressmark, stdout io.Writer) error {
	db, err := corpus.Open(c.corpusAdd)
	if err != nil {
		return err
	}
	cp, err := audit.Compile(plat)
	if err != nil {
		return err
	}
	e, err := corpus.Harvest(cp, c.platform, sm, corpus.HarvestConfig{})
	if err != nil {
		return err
	}
	path, err := db.Add(e)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "corpus entry written to %s (droop baseline %s)\n",
		path, report.MilliVolts(e.Expected.DroopV))
	return nil
}

// loadResume points opts at a previous run's state. Both artifact kinds
// are accepted: a -checkpoint file resumes the search losslessly
// mid-flight; a -save file seeds a fresh search with the old
// population (the pre-checkpoint behaviour).
func loadResume(path string, opts *audit.Options, stdout io.Writer) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if audit.IsSearchCheckpoint(blob) {
		ck, err := audit.LoadSearchCheckpoint(bytes.NewReader(blob))
		if err != nil {
			return err
		}
		opts.Resume = ck
		fmt.Fprintf(stdout, "resuming search from %s (generation %d)\n", path, searchGen(ck))
		return nil
	}
	prev, pop, err := audit.LoadStressmark(bytes.NewReader(blob))
	if err != nil {
		return err
	}
	opts.SeedGenomes = pop
	if opts.LoopCycles == 0 {
		opts.LoopCycles = prev.LoopCycles
	}
	fmt.Fprintf(stdout, "seeding from %s: %d genomes, previous best %.1f mV\n",
		path, len(pop), prev.DroopV*1e3)
	return nil
}

// searchGen peeks the generation counter out of the opaque GA state.
func searchGen(ck *audit.SearchCheckpoint) int {
	var probe struct {
		Gen int `json:"gen"`
	}
	_ = json.Unmarshal(ck.GA, &probe)
	return probe.Gen
}

// printThroughput summarises the evaluation pipeline: how fast the
// search scored candidates and how much work the memo, the trace
// cache, and the multi-lane replay kernels absorbed. It goes to
// stderr: stdout stays byte-identical across same-seed runs (the
// repo's determinism guarantee), and wall-clock timing is not.
func printThroughput(w io.Writer, evals int, elapsed time.Duration, hits, misses int, ts audit.TraceStats) {
	if evals == 0 || elapsed <= 0 {
		return
	}
	fmt.Fprintf(w, "throughput: %.1f evals/sec over %s", float64(evals)/elapsed.Seconds(),
		elapsed.Round(time.Millisecond))
	if tot := hits + misses; tot > 0 {
		fmt.Fprintf(w, ", memo hit rate %.0f%%", 100*float64(hits)/float64(tot))
	}
	if tot := ts.Hits + ts.Misses; tot > 0 {
		fmt.Fprintf(w, ", trace-cache hit rate %.0f%%", 100*float64(ts.Hits)/float64(tot))
	}
	if ts.LaneBatches > 0 {
		fmt.Fprintf(w, ", lane occupancy %.1f", float64(ts.LaneRuns)/float64(ts.LaneBatches))
	}
	if tot := ts.StoreHits + ts.StoreMisses; tot > 0 {
		fmt.Fprintf(w, ", trace-store hits %d/%d", ts.StoreHits, tot)
	}
	if tot := ts.TierHits + ts.TierMisses; tot > 0 {
		fmt.Fprintf(w, ", trace-tier hits %d/%d", ts.TierHits, tot)
	}
	if ts.WireBytes > 0 {
		fmt.Fprintf(w, ", wire %s", wireBytes(ts.WireBytes))
	}
	if ts.CaptureNSSaved > 0 {
		fmt.Fprintf(w, ", capture saved %s",
			time.Duration(ts.CaptureNSSaved).Round(time.Millisecond))
	}
	if ts.CaptureNS+ts.ReplayNS > 0 {
		fmt.Fprintf(w, ", capture %s / replay %s",
			time.Duration(ts.CaptureNS).Round(time.Millisecond),
			time.Duration(ts.ReplayNS).Round(time.Millisecond))
	}
	if tot := ts.ROMReplays + ts.ExactReplays; tot > 0 {
		if ts.ReplayNS > 0 {
			fmt.Fprintf(w, ", replay %s/lane",
				time.Duration(ts.ReplayNS/tot).Round(time.Microsecond))
		}
		fmt.Fprintf(w, ", kernels %d rom / %d exact", ts.ROMReplays, ts.ExactReplays)
	}
	fmt.Fprintln(w)
}

// printResilience reports what the fault injector did, if there is
// one, and the GA's retry counters whenever faults were injected or
// any counter fired.
func printResilience(w io.Writer, retries, timedOut, degraded int, in *audit.FaultInjector) {
	if in != nil {
		s := in.Stats()
		fmt.Fprintf(w, "faults: %d runs, %d transient losses (%d dropouts), %d throttled, %d skewed\n",
			s.Runs, s.Transients, s.Dropouts, s.Throttled, s.Skewed)
	} else if retries+timedOut+degraded == 0 {
		return
	}
	fmt.Fprintf(w, "resilience: %d retries, %d timeouts, %d degraded evaluations\n",
		retries, timedOut, degraded)
}

// writeFileAtomic is audit.WriteFileAtomic for byte blobs.
func writeFileAtomic(path string, blob []byte) error {
	return audit.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(blob)
		return err
	})
}

func genLabels(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("gen %02d", i+1)
	}
	return out
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}
