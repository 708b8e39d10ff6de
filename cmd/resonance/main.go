// Command resonance characterises a platform's power-delivery network:
// the AC impedance sweep with its first/second/third droop peaks
// (Fig. 3) and AUDIT's software-side resonance detection — the
// HP/NOP loop-length sweep of §3.
//
// Usage:
//
//	resonance [-platform bulldozer|phenom] [-sweep]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/audit"
	"repro/internal/pdn"
	"repro/internal/report"
	"repro/internal/testbed"
)

func main() {
	var (
		platform = flag.String("platform", "bulldozer", "bulldozer or phenom")
		doSweep  = flag.Bool("sweep", true, "also run the software loop-length sweep")
	)
	flag.Parse()
	if err := run(*platform, *doSweep); err != nil {
		fmt.Fprintln(os.Stderr, "resonance:", err)
		os.Exit(1)
	}
}

func run(platform string, doSweep bool) error {
	plat, err := testbed.PlatformByName(platform)
	if err != nil {
		return err
	}

	peaks, err := pdn.FindResonances(plat.PDN, 3e3, 1e9, 1200)
	if err != nil {
		return err
	}
	tbl := &report.Table{
		Title:   fmt.Sprintf("PDN impedance peaks — %s", plat.PDN.Name),
		Headers: []string{"order", "frequency", "|Z|"},
	}
	names := map[int]string{1: "first droop", 2: "second droop", 3: "third droop"}
	for _, p := range peaks {
		label := names[p.Order]
		if label == "" {
			label = fmt.Sprintf("order %d", p.Order)
		}
		tbl.AddRow(label, fmtFreq(p.FreqHz), fmt.Sprintf("%.3f mΩ", p.ZOhms*1e3))
	}
	fmt.Println(tbl)
	fmt.Printf("analytic first droop: %s (die stage L=%.3g H, C=%.3g F)\n\n",
		fmtFreq(plat.PDN.FirstDroopNominal()), plat.PDN.LDie, plat.PDN.CDie)

	if !doSweep {
		return nil
	}
	fmt.Println("software resonance detection (HP/NOP loop-length sweep):")
	sweep := audit.ResonanceSweep{Platform: plat}
	pts, best, err := sweep.Run(16, 64, 2)
	if err != nil {
		return err
	}
	labels := make([]string, len(pts))
	vals := make([]float64, len(pts))
	for i, p := range pts {
		labels[i] = fmt.Sprintf("%2d cyc (%5.1f MHz)", p.LoopCycles, p.FreqHz/1e6)
		vals[i] = p.DroopV * 1e3
	}
	fmt.Println(report.BarChart("droop by loop length (mV)", labels, vals, 40))
	fmt.Printf("worst-case loop: %d cycles → %s excites the first droop\n",
		best.LoopCycles, fmtFreq(best.FreqHz))
	return nil
}

func fmtFreq(hz float64) string {
	switch {
	case hz >= 1e6:
		return fmt.Sprintf("%.1f MHz", hz/1e6)
	case hz >= 1e3:
		return fmt.Sprintf("%.1f kHz", hz/1e3)
	default:
		return fmt.Sprintf("%.1f Hz", hz)
	}
}
