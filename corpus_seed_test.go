package repro

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ga"
	"repro/internal/testbed"
)

// seedCorpusDir is the committed regression corpus: stressmarks
// harvested from short searches over the repo's example scenarios
// (resonant 4T, FP-throttled, dithered, and a Phenom point), baselined
// bit-exactly. CI replays it on every change; see cmd/corpus and
// DESIGN.md §12.
const seedCorpusDir = "testdata/corpus"

// TestSeedCorpusReplay replays the committed corpus against the current
// tree. Every entry must pass: DRIFT here means a code change moved
// simulated measurements without any platform-description change to
// explain it — either fix the change or consciously re-baseline with
// `go run ./cmd/corpus redux -db testdata/corpus` and commit the diff.
//
// Regenerate the corpus from scratch (new searches, new baselines) with:
//
//	AUDIT_GOLDEN_REGEN=1 go test -run TestSeedCorpusReplay -v .
func TestSeedCorpusReplay(t *testing.T) {
	if os.Getenv("AUDIT_GOLDEN_REGEN") != "" {
		regenSeedCorpus(t)
		return
	}
	db, err := corpus.Open(seedCorpusDir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := db.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 4 {
		t.Fatalf("seed corpus has %d entries, want at least 4 (regenerate with AUDIT_GOLDEN_REGEN=1)", len(entries))
	}
	byPlatform := map[string][]*corpus.Entry{}
	for _, e := range entries {
		byPlatform[e.Platform] = append(byPlatform[e.Platform], e)
	}
	for platform, group := range byPlatform {
		p, err := testbed.PlatformByName(platform)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := p.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range corpus.Replay(cp, group, corpus.ReplayOptions{}) {
			if r.Verdict != corpus.Pass {
				t.Errorf("%s (%s): %s: %s", r.Entry.Name, platform, r.Verdict, r.Detail)
			}
		}
	}
}

// regenSeedCorpus rebuilds testdata/corpus from scratch: four short
// searches covering the repo's example scenarios, harvested with
// bit-exact baselines. Deliberately deterministic (fixed seeds) so two
// regens on the same tree produce identical files.
func regenSeedCorpus(t *testing.T) {
	old, err := filepath.Glob(filepath.Join(seedCorpusDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range old {
		if err := os.Remove(f); err != nil {
			t.Fatal(err)
		}
	}
	db, err := corpus.Open(seedCorpusDir)
	if err != nil {
		t.Fatal(err)
	}

	smallGA := ga.Config{
		PopSize: 10, Elites: 2, TournamentK: 3, MutationProb: 0.6,
		MaxGenerations: 8, StagnantLimit: 6, Seed: 77,
	}
	ctx := context.Background()

	add := func(e *corpus.Entry, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		path, err := db.Add(e)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Printf("seeded %s (droop %.3f mV) -> %s\n", e.Name, e.Expected.DroopV*1e3, path)
	}

	bull := testbed.Bulldozer()
	bcp, err := bull.Compile()
	if err != nil {
		t.Fatal(err)
	}

	// 1. The flagship: resonant 4T on Bulldozer at the PDN's resonant
	// loop length, with the only failure-ladder baseline (ladders cost a
	// descent of measurements per replay, so one per corpus is plenty).
	resonant, err := core.Generate(ctx, core.Options{
		Platform: bull, Threads: 4, Mode: core.Resonance,
		LoopCycles: 36, GA: smallGA, Seed: 77, Name: "seed-resonant-4t",
	})
	if err != nil {
		t.Fatal(err)
	}
	add(corpus.Harvest(bcp, "bulldozer", resonant, corpus.HarvestConfig{
		FailFloor: bull.PDN.VNom * 0.80,
	}))

	// 2. FP-throttled (the paper's A-Res-Th scenario).
	throttled, err := core.Generate(ctx, core.Options{
		Platform: bull, Threads: 4, Mode: core.Resonance, FPThrottle: 1,
		LoopCycles: 36, GA: smallGA, Seed: 77, Name: "seed-throttled-4t",
	})
	if err != nil {
		t.Fatal(err)
	}
	add(corpus.Harvest(bcp, "bulldozer", throttled, corpus.HarvestConfig{}))

	// 3. The resonant winner replayed under a multicore dither schedule
	// (same genome, different measurement config — a distinct identity).
	plan, err := core.ExactDither([]int{0, 1, 2, 3}, resonant.LoopCycles, 4)
	if err != nil {
		t.Fatal(err)
	}
	add(corpus.Harvest(bcp, "bulldozer", resonant, corpus.HarvestConfig{
		Name:   "seed-dithered-4t",
		Dither: plan.Specs,
	}))

	// 4. A Phenom point, so the corpus covers both platforms.
	phen := testbed.Phenom()
	pcp, err := phen.Compile()
	if err != nil {
		t.Fatal(err)
	}
	phenom, err := core.Generate(ctx, core.Options{
		Platform: phen, Threads: 4, Mode: core.Resonance,
		LoopCycles: 40, GA: smallGA, Seed: 77, Name: "seed-phenom-4t",
	})
	if err != nil {
		t.Fatal(err)
	}
	add(corpus.Harvest(pcp, "phenom", phenom, corpus.HarvestConfig{}))
}
