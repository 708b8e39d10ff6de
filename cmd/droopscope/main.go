// Command droopscope runs a workload on the simulated testbed and
// reports its voltage-droop characteristics: worst droop/overshoot,
// droop-event counts, an ASCII Vdd histogram (the Fig. 10 view), and
// optionally the voltage-at-failure point (the Table 1 procedure).
//
// Usage:
//
//	droopscope [flags] <workload>
//
// where <workload> is a benchmark name (zeusmp, swaptions, mcf, …; see
// -list), a stressmark (SM1, SM2, SM-Res), or an assembly file
// produced by cmd/audit (-f).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/audit"
	"repro/internal/report"
	"repro/internal/scope"
	"repro/internal/testbed"
	"repro/internal/workloads"
)

func main() {
	var (
		platform = flag.String("platform", "bulldozer", "bulldozer or phenom")
		threads  = flag.Int("threads", 4, "thread count (spread across modules)")
		cycles   = flag.Uint64("cycles", 100000, "measured cycles")
		file     = flag.String("f", "", "assembly file to run instead of a named workload")
		failure  = flag.Bool("failure", false, "also search for the voltage-at-failure point")
		throttle = flag.Int("throttle", 0, "FP throttle limit")
		stats    = flag.Bool("stats", false, "print pipeline and cache statistics")
		list     = flag.Bool("list", false, "list available workloads and exit")
	)
	flag.Parse()
	if *list {
		for _, w := range workloads.All() {
			fmt.Printf("%-14s (%s)\n", w.Name, w.Suite)
		}
		fmt.Println("SM1, SM2, SM-Res  (manual stressmarks)")
		return
	}
	if err := run(*platform, *threads, *cycles, *file, *failure, *throttle, *stats, flag.Arg(0)); err != nil {
		fmt.Fprintln(os.Stderr, "droopscope:", err)
		os.Exit(1)
	}
}

func resolve(name, file string) (*audit.Program, error) {
	if file != "" {
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		return audit.ParseProgram(string(src))
	}
	switch name {
	case "":
		return nil, fmt.Errorf("need a workload name or -f file (try -list)")
	case "SM1":
		return workloads.SM1(workloads.DefaultLoopCycles), nil
	case "SM2":
		return workloads.SM2(workloads.DefaultLoopCycles), nil
	case "SM-Res":
		return workloads.SMRes(workloads.DefaultLoopCycles), nil
	}
	w, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	return w.Program, nil
}

func run(platform string, threads int, cycles uint64, file string, failure bool, throttle int, stats bool, name string) error {
	plat, err := testbed.PlatformByName(platform)
	if err != nil {
		return err
	}
	prog, err := resolve(name, file)
	if err != nil {
		return err
	}
	nom := plat.Nominal()
	hist, err := scope.NewHistogram(nom-0.2, nom+0.12, 64)
	if err != nil {
		return err
	}
	specs, err := testbed.SpreadPlacement(plat.Chip, prog, threads)
	if err != nil {
		return err
	}
	m, err := plat.Run(testbed.RunConfig{
		Threads:          specs,
		MaxCycles:        3000 + cycles,
		WarmupCycles:     3000,
		FPThrottle:       throttle,
		Histogram:        hist,
		TriggerThreshold: nom - 0.02,
	})
	if err != nil {
		return err
	}
	fmt.Printf("workload    : %s (%dT on %s)\n", prog.Name, threads, plat.Chip.Name)
	fmt.Printf("cycles      : %d   instructions: %d   IPC: %.2f\n",
		m.Cycles, m.Retired, float64(m.Retired)/float64(m.Cycles))
	fmt.Printf("avg power   : %.1f W\n", m.AvgPowerW)
	fmt.Printf("worst droop : %s (%.1f%% of nominal)\n", report.MilliVolts(m.MaxDroopV), 100*m.MaxDroopV/nom)
	fmt.Printf("overshoot   : %s\n", report.MilliVolts(m.MaxOvershootV))
	fmt.Printf("droop events: %d below %s\n", m.DroopEvents, report.MilliVolts(0.02))

	if stats {
		rate := func(h, miss uint64) float64 {
			if h+miss == 0 {
				return 0
			}
			return 100 * float64(h) / float64(h+miss)
		}
		fmt.Printf("branches    : %d (%.2f%% mispredicted)\n", m.Branches,
			100*float64(m.Mispredicts)/float64(max(m.Branches, 1)))
		fmt.Printf("cache hits  : L1 %.1f%%  L2 %.1f%%  L3 %.1f%%\n",
			rate(m.L1Hits, m.L1Misses), rate(m.L2Hits, m.L2Misses), rate(m.L3Hits, m.L3Misses))
	}

	centers := make([]float64, len(hist.Counts))
	for i := range centers {
		centers[i] = hist.BinCenter(i)
	}
	fmt.Println(report.Histogram("Vdd distribution (V)", centers, hist.Counts, 24, 40))

	if failure {
		rc := testbed.RunConfig{
			Threads:      specs,
			MaxCycles:    25000,
			WarmupCycles: 3000,
			FPThrottle:   throttle,
		}
		v, ok, err := plat.FindFailureVoltage(rc, nom-0.3)
		if err != nil {
			return err
		}
		if ok {
			fmt.Printf("fails at    : %.4f V (nominal − %s)\n", v, report.MilliVolts(nom-v))
		} else {
			fmt.Printf("no failure above %.4f V\n", nom-0.3)
		}
	}
	return nil
}
