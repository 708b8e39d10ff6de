package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faults"
	"repro/internal/ga"
	"repro/internal/testbed"
)

// goldenHash folds labelled parts into one short hex digest.
type goldenHash struct{ parts [][2]string }

func (h *goldenHash) add(t *testing.T, label string, v any) {
	t.Helper()
	var blob []byte
	switch v := v.(type) {
	case []byte:
		blob = v
	case string:
		blob = []byte(v)
	default:
		var err error
		if blob, err = json.Marshal(v); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	sum := sha256.Sum256(blob)
	h.parts = append(h.parts, [2]string{label, hex.EncodeToString(sum[:8])})
}

func (h *goldenHash) sum() string {
	d := sha256.New()
	for _, p := range h.parts {
		d.Write([]byte(p[0] + "=" + p[1] + "\n"))
	}
	return hex.EncodeToString(d.Sum(nil)[:8])
}

// deterministicStats drops the wall-clock fields of TraceStats.
func deterministicStats(s testbed.TraceStats) testbed.TraceStats {
	s.CaptureNS, s.ReplayNS, s.CaptureNSSaved = 0, 0, 0
	return s
}

// TestSearchGolden pins ten small searches, homogeneous and
// heterogeneous, to a hash of everything a search hands back: the GA
// result, the program text(s), the resonance sweep, the Save bytes, the
// final checkpoint bytes and the trace-cache counters (wall-clock
// fields zeroed). A refactor of the search driver must leave every
// hash alone.
func TestSearchGolden(t *testing.T) {
	p := testbed.Bulldozer()
	lab := func(seed int64) func(testbed.Runner) testbed.Runner {
		return func(r testbed.Runner) testbed.Runner {
			fc := faults.Lab(seed)
			fc.TransientRate = 0.3
			return faults.MustNew(fc, r)
		}
	}
	ga3 := func(seed int64, mod func(*ga.Config)) ga.Config {
		cfg := smallGA(seed)
		cfg.MaxGenerations = 3
		if mod != nil {
			mod(&cfg)
		}
		return cfg
	}
	faulty := func(c *ga.Config) {
		c.MaxRetries = 1
		c.Repeats = 2
		c.DegradeFailures = true
	}
	cases := []struct {
		name       string
		hetero     bool
		checkpoint bool
		opt        Options
		want       string
	}{
		{name: "sweep", opt: Options{GA: ga3(3, nil), Seed: 3}, want: "fc1c1058c4e8c065"},
		{name: "resonance", opt: Options{LoopCycles: 36, GA: ga3(5, nil), Seed: 5}, want: "0dd5a94ac3b978d3"},
		{name: "excitation", opt: Options{LoopCycles: 36, Mode: Excitation, GA: ga3(9, nil), Seed: 9}, want: "d568f0a49e4110a1"},
		{name: "parallel", opt: Options{LoopCycles: 36, GA: ga3(11, func(c *ga.Config) { c.Parallel = 3 }), Seed: 11}, want: "ea8dba432d1da011"},
		{name: "faults", opt: Options{LoopCycles: 36, GA: ga3(31, faulty), WrapRunner: lab(31), Seed: 31}, want: "146b2a1e4132d070"},
		{name: "checkpointed", checkpoint: true, opt: Options{LoopCycles: 36, GA: ga3(17, nil), Name: "golden-ck", Seed: 17}, want: "e5d85357ef0db0c2"},
		{name: "hetero-8t", hetero: true, opt: Options{LoopCycles: 36, Threads: 8, GA: ga3(61, nil), Name: "golden-8t", Seed: 61}, want: "1679ba721331a7a8"},
		{name: "hetero-2t-parallel", hetero: true, opt: Options{LoopCycles: 36, Threads: 2, GA: ga3(5, func(c *ga.Config) { c.Parallel = 4 }), Seed: 5}, want: "987d36b6b091fb25"},
		{name: "hetero-checkpointed", hetero: true, checkpoint: true, opt: Options{LoopCycles: 36, Threads: 2, GA: ga3(41, nil), Seed: 41}, want: "7df08f659e6e3803"},
		{name: "hetero-4t-faults", hetero: true, opt: Options{LoopCycles: 36, Threads: 4, GA: ga3(43, faulty), WrapRunner: lab(43), Seed: 43}, want: "449e0041395c12ec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := tc.opt
			opt.Platform = p
			opt.MeasureCycles, opt.WarmupCycles = 2000, 1200
			if tc.checkpoint {
				opt.CheckpointPath = filepath.Join(t.TempDir(), "search.ck")
			}
			var h goldenHash
			var saved bytes.Buffer
			if tc.hetero {
				sm, err := GenerateHetero(context.Background(), opt)
				if err != nil {
					t.Fatal(err)
				}
				h.add(t, "search", sm.Search)
				for _, prog := range sm.Programs {
					h.add(t, "program", prog.Text())
				}
				h.add(t, "stats", deterministicStats(sm.TraceStats))
				if err := sm.Save(&saved); err != nil {
					t.Fatal(err)
				}
			} else {
				sm, err := Generate(context.Background(), opt)
				if err != nil {
					t.Fatal(err)
				}
				h.add(t, "search", sm.Search)
				h.add(t, "program", sm.Program.Text())
				h.add(t, "sweep", sm.SweepPoints)
				h.add(t, "stats", deterministicStats(sm.TraceStats))
				if err := sm.Save(&saved); err != nil {
					t.Fatal(err)
				}
			}
			h.add(t, "save", saved.Bytes())
			if tc.checkpoint {
				blob, err := os.ReadFile(opt.CheckpointPath)
				if err != nil {
					t.Fatal(err)
				}
				h.add(t, "checkpoint", blob)
			}
			if got := h.sum(); got != tc.want {
				t.Errorf("hash %s, want %s (parts %v)", got, tc.want, h.parts)
			}
		})
	}
}
