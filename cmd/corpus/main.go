// Command corpus manages the versioned stressmark corpus: a
// file-per-entry database of discovered stressmarks with baselined
// measurements, replayed in CI to catch unexplained result drift.
//
// Usage:
//
//	corpus ls    -db <dir>
//	corpus add   -db <dir> -platform <name> [flags] <stressmark.json>...
//	corpus run   -db <dir> [-lanes N] [-workers N] [-skip-failure] [-rom-tol V] [-v]
//	corpus redux -db <dir> [-skip-failure]
//
// add harvests saved stressmarks (cmd/audit -save files) into baselined
// entries. run replays every entry and exits nonzero unless all pass:
// DRIFT means the platform description is unchanged but results moved —
// some code path altered the numbers, which is exactly what the corpus
// exists to catch. platform-skew means the platform description itself
// changed; if that was intentional, redux re-baselines every entry
// in place (same files, new expectations and digests).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/report"
	"repro/internal/testbed"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it dispatches on args[0] and returns the
// exit code — 2 for a usage error, 1 for a failed command or a corpus
// that does not pass.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	var cmd func(*flag.FlagSet, []string, io.Writer) error
	switch args[0] {
	case "ls":
		cmd = cmdLs
	case "add":
		cmd = cmdAdd
	case "run":
		cmd = cmdRun
	case "redux":
		cmd = cmdRedux
	case "-h", "-help", "--help", "help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "corpus: unknown command %q\n", args[0])
		usage(stderr)
		return 2
	}
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	err := cmd(fs, args[1:], stdout)
	switch {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2 // the flag package already said why
	case err != nil:
		fmt.Fprintln(stderr, "corpus:", err)
		return 1
	}
	return 0
}

// errUsage marks a flag-parse failure the FlagSet has already reported.
var errUsage = errors.New("usage")

// parse parses a subcommand's flags, mapping a parse error to errUsage.
func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	return nil
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage:
  corpus ls    -db <dir>                                 list entries
  corpus add   -db <dir> -platform <name> <sm.json>...   harvest saved stressmarks
  corpus run   -db <dir> [-skip-failure] [-v]            replay and verify
  corpus redux -db <dir> [-skip-failure]                 re-baseline in place`)
}

func openDB(dir string) (*corpus.DB, error) {
	if dir == "" {
		return nil, fmt.Errorf("-db is required")
	}
	return corpus.Open(dir)
}

func cmdLs(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	dir := fs.String("db", "", "corpus directory")
	if err := parse(fs, args); err != nil {
		return err
	}
	db, err := openDB(*dir)
	if err != nil {
		return err
	}
	entries, err := db.Load()
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		fmt.Fprintln(stdout, "corpus is empty")
		return nil
	}
	tbl := &report.Table{
		Title:   fmt.Sprintf("corpus %s (%d entries)", db.Dir(), len(entries)),
		Headers: []string{"id", "name", "platform", "T", "loop", "droop (mV)", "tol (mV)", "fail V", "digest"},
	}
	for _, e := range entries {
		fail := "-"
		if e.Expected.FailFloor > 0 {
			if e.Expected.FailFound {
				fail = report.F(e.Expected.FailVolts, 4)
			} else {
				fail = fmt.Sprintf(">%s", report.F(e.Expected.FailFloor, 3))
			}
		}
		tol := "exact"
		if e.Expected.DroopTolV > 0 {
			tol = report.F(e.Expected.DroopTolV*1e3, 2)
		}
		tbl.AddRow(e.ID, e.Name, e.Platform, fmt.Sprint(e.Threads), fmt.Sprint(e.LoopCycles),
			report.F(e.Expected.DroopV*1e3, 2), tol, fail, e.PlatformDigest[:12])
	}
	fmt.Fprintln(stdout, tbl)
	return nil
}

func cmdAdd(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	dir := fs.String("db", "", "corpus directory")
	platform := fs.String("platform", "bulldozer", "platform the stressmarks were trained on")
	name := fs.String("name", "", "entry name override (single input only)")
	measure := fs.Uint64("measure", 0, "baseline measurement cycles (0 = default)")
	warmup := fs.Uint64("warmup", 0, "baseline warmup cycles (0 = default)")
	tol := fs.Float64("tol", 0, "droop tolerance in volts (0 = bit-exact)")
	failFloor := fs.Float64("fail-floor", 0, "also baseline the failure ladder down to this supply (0 = off)")
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("add: no stressmark files given")
	}
	if *name != "" && fs.NArg() > 1 {
		return fmt.Errorf("add: -name only applies to a single input")
	}
	db, err := openDB(*dir)
	if err != nil {
		return err
	}
	cp, err := compilePlatform(*platform, 0)
	if err != nil {
		return err
	}
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		sm, _, err := core.LoadStressmark(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		e, err := corpus.Harvest(cp, *platform, sm, corpus.HarvestConfig{
			Name:          *name,
			MeasureCycles: *measure,
			WarmupCycles:  *warmup,
			DroopTolV:     *tol,
			FailFloor:     *failFloor,
		})
		if err != nil {
			return err
		}
		dst, err := db.Add(e)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "added %s: droop %s -> %s\n", e.Name, report.MilliVolts(e.Expected.DroopV), dst)
	}
	return nil
}

// compilePlatform compiles the named platform at a ROM tolerance;
// Compile refuses a negative or NaN one.
func compilePlatform(name string, romTolV float64) (*testbed.CompiledPlatform, error) {
	p, err := testbed.PlatformByName(name)
	if err != nil {
		return nil, err
	}
	p.ROMTolV = romTolV
	return p.Compile()
}

// byPlatform groups entries so each platform is compiled (and its
// entries batch-measured) once.
func byPlatform(entries []*corpus.Entry) map[string][]*corpus.Entry {
	out := make(map[string][]*corpus.Entry)
	for _, e := range entries {
		out[e.Platform] = append(out[e.Platform], e)
	}
	return out
}

func cmdRun(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	dir := fs.String("db", "", "corpus directory")
	lanes := fs.Int("lanes", 0, "replay lanes per batch (0 = default)")
	workers := fs.Int("workers", 0, "batch workers (0 = default)")
	skipFailure := fs.Bool("skip-failure", false, "skip voltage-at-failure ladders")
	romTol := fs.Float64("rom-tol", 0, "replay with the reduced-order PDN kernel at this tolerance (volts); entries baselined on the exact platform then report platform-skew")
	verbose := fs.Bool("v", false, "print per-entry results even when all pass")
	if err := parse(fs, args); err != nil {
		return err
	}
	db, err := openDB(*dir)
	if err != nil {
		return err
	}
	entries, err := db.Load()
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("corpus %s is empty", db.Dir())
	}
	opt := corpus.ReplayOptions{Lanes: *lanes, Workers: *workers, SkipFailure: *skipFailure}

	bad := 0
	for platform, group := range byPlatform(entries) {
		cp, err := compilePlatform(platform, *romTol)
		if err != nil {
			return err
		}
		for _, r := range corpus.Replay(cp, group, opt) {
			if r.Verdict != corpus.Pass {
				bad++
			}
			if r.Verdict != corpus.Pass || *verbose {
				printResult(stdout, r)
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d/%d entries did not pass (platform-skew from an intentional change? re-baseline with `corpus redux`)",
			bad, len(entries))
	}
	fmt.Fprintf(stdout, "corpus: %d entries replayed, all pass\n", len(entries))
	return nil
}

func printResult(w io.Writer, r corpus.Result) {
	line := fmt.Sprintf("%-14s %-24s %-9s", r.Verdict, r.Entry.Name, r.Entry.Platform)
	if r.Measured != nil {
		line += fmt.Sprintf(" droop %s (baseline %s)",
			report.MilliVolts(r.Measured.MaxDroopV), report.MilliVolts(r.Entry.Expected.DroopV))
	}
	if r.Detail != "" {
		line += ": " + r.Detail
	}
	fmt.Fprintln(w, line)
}

// cmdRedux re-baselines every entry on its platform's current
// behaviour: same identity (and therefore the same file), fresh
// expectations and platform digest. Run it only after an intentional
// platform or simulator change, and commit the diff for review — the
// point of the corpus is that re-baselining is visible, not automatic.
func cmdRedux(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	dir := fs.String("db", "", "corpus directory")
	skipFailure := fs.Bool("skip-failure", false, "drop failure-ladder baselines instead of re-running them")
	if err := parse(fs, args); err != nil {
		return err
	}
	db, err := openDB(*dir)
	if err != nil {
		return err
	}
	entries, err := db.Load()
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("corpus %s is empty", db.Dir())
	}
	for platform, group := range byPlatform(entries) {
		cp, err := compilePlatform(platform, 0)
		if err != nil {
			return err
		}
		digest := testbed.PlatformDigest(cp.Platform())
		for _, e := range group {
			old := e.Expected
			if err := rebaseline(cp, e, *skipFailure); err != nil {
				return fmt.Errorf("%s: %w", e.Name, err)
			}
			e.PlatformDigest = digest
			if _, err := db.Add(e); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "redux %-24s droop %s -> %s\n", e.Name,
				report.MilliVolts(old.DroopV), report.MilliVolts(e.Expected.DroopV))
		}
	}
	return nil
}

// rebaseline refreshes an entry's expectations from a fresh
// measurement, preserving its tolerance policy and ladder floor.
func rebaseline(cp *testbed.CompiledPlatform, e *corpus.Entry, skipFailure bool) error {
	rc, err := e.RunConfig(cp.Platform().Chip)
	if err != nil {
		return err
	}
	m, err := cp.Run(rc)
	if err != nil {
		return err
	}
	floor := e.Expected.FailFloor
	e.Expected = corpus.Expected{
		DroopV:      m.MaxDroopV,
		DroopTolV:   e.Expected.DroopTolV,
		MinV:        m.MinV,
		AvgPowerW:   m.AvgPowerW,
		Fingerprint: corpus.Fingerprint(m),
	}
	if floor > 0 && !skipFailure {
		v, found, err := cp.FindFailureVoltage(rc, floor)
		if err != nil {
			return err
		}
		e.Expected.FailFloor = floor
		e.Expected.FailVolts = v
		e.Expected.FailFound = found
	}
	return nil
}
