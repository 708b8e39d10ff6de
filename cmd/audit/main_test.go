package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/audit"
)

// searchArgs is a small fixed-seed search, the one CI runs end to end.
var searchArgs = []string{"-pop", "6", "-gens", "3", "-loop", "36", "-seed", "7"}

// syncBuffer is a bytes.Buffer that may be read while run writes to it
// from another goroutine.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// runAudit runs the command in-process and returns its exit code and
// output.
func runAudit(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	var out, errb bytes.Buffer
	code = run(ctx, args, &out, &errb)
	return code, out.String(), errb.String()
}

func with(extra ...string) []string {
	return append(append([]string(nil), searchArgs...), extra...)
}

var servingRE = regexp.MustCompile(`serving worker protocol on (\S+)`)

// coordinate runs `audit -listen 127.0.0.1:0 -min-workers n` with n
// in-process workers pointed at the address it prints on stderr.
func coordinate(t *testing.T, n int) (stdout, stderr string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	var out bytes.Buffer
	var errb syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, with("-listen", "127.0.0.1:0", "-min-workers", strconv.Itoa(n)), &out, &errb)
	}()
	var addr string
	for addr == "" {
		select {
		case code := <-done:
			t.Fatalf("coordinator exited %d before listening:\n%s", code, errb.String())
		case <-time.After(5 * time.Millisecond):
		}
		if m := servingRE.FindStringSubmatch(errb.String()); m != nil {
			addr = m[1]
		}
	}
	wctx, stopWorkers := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var werr syncBuffer
			args := []string{"-worker", "-coordinator", "http://" + addr, "-worker-id", fmt.Sprintf("w%d", i)}
			if code := run(wctx, args, io.Discard, &werr); code != 0 {
				t.Errorf("worker w%d exited %d:\n%s", i, code, werr.String())
			}
		}()
	}
	code := <-done
	stopWorkers()
	wg.Wait()
	if code != 0 {
		t.Fatalf("coordinator exited %d:\n%s", code, errb.String())
	}
	return out.String(), errb.String()
}

// TestSameSearchAnyRole: one search, three roles — single-node, a
// coordinator with no workers, and a coordinator sharding to two
// workers — must print byte-identical stdout.
func TestSameSearchAnyRole(t *testing.T) {
	code, want, errs := runAudit(t, searchArgs...)
	if code != 0 {
		t.Fatalf("single-node search exited %d:\n%s", code, errs)
	}
	if !strings.Contains(want, "best droop:") {
		t.Fatalf("single-node stdout has no result:\n%s", want)
	}
	check := func(role, got string) {
		t.Helper()
		if got != want {
			t.Errorf("%s stdout differs from single-node:\n--- single-node ---\n%s\n--- %s ---\n%s", role, want, role, got)
		}
	}

	got, errs := coordinate(t, 0)
	check("coordinator without workers", got)
	if !strings.Contains(errs, "dist: 0 units remote") {
		t.Errorf("coordinator without workers reported remote units:\n%s", errs)
	}

	got, errs = coordinate(t, 2)
	check("coordinator with two workers", got)
	m := regexp.MustCompile(`dist: (\d+) units remote`).FindStringSubmatch(errs)
	if m == nil || m[1] == "0" {
		t.Errorf("coordinator with two workers sent no units remote:\n%s", errs)
	}
}

func TestExitCodes(t *testing.T) {
	const compileErr = "ROM tolerance must be a non-negative voltage"
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"unknown flag", []string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{"exact retired", with("-exact"), 2, "flag provided but not defined: -exact"},
		{"batch-lanes retired", with("-batch-lanes", "8"), 2, "flag provided but not defined: -batch-lanes"},
		{"listen+worker", with("-listen", "127.0.0.1:0", "-worker"), 2, "does not combine"},
		{"listen+faults", with("-listen", "127.0.0.1:0", "-faults", "0.1"), 2, "does not combine"},
		{"listen+hetero", with("-listen", "127.0.0.1:0", "-hetero"), 2, "does not combine"},
		{"faults 1.5", with("-faults", "1.5"), 1, "outside [0,1]"},
		{"faults NaN", with("-faults", "NaN"), 1, "outside [0,1]"},
		{"faults -0.1", with("-faults", "-0.1"), 1, "outside [0,1]"},
		{"rom-tol search", with("-rom-tol", "-1"), 1, compileErr},
		{"rom-tol worker", []string{"-worker", "-coordinator", "http://127.0.0.1:1", "-rom-tol", "-1"}, 1, compileErr},
		{"rom-tol listen", with("-listen", "127.0.0.1:0", "-rom-tol", "-1"), 1, compileErr},
		{"unknown platform", with("-platform", "sandy-bridge"), 1, `unknown platform "sandy-bridge"`},
		{"hetero without loop", []string{"-hetero", "-threads", "8", "-faults", "0.2"}, 1, "-hetero needs an explicit -loop"},
		{"hetero excitation", with("-hetero", "-mode", "excitation", "-faults", "0.2"), 1, "resonance mode only"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errs := runAudit(t, tc.args...)
			if code != tc.code {
				t.Errorf("exit %d, want %d\nstderr:\n%s", code, tc.code, errs)
			}
			if !strings.Contains(errs, tc.stderr) {
				t.Errorf("stderr lacks %q:\n%s", tc.stderr, errs)
			}
			// Refused flags, bad fault rates and refused hetero searches
			// stop before the search prints anything; a bad tolerance is
			// refused when the platform compiles, after the opening line.
			if tc.code == 2 || strings.HasPrefix(tc.name, "faults") || strings.HasPrefix(tc.name, "hetero") {
				if out != "" {
					t.Errorf("refused run printed search output:\n%s", out)
				}
			}
		})
	}
}

// TestDamagedCheckpointRefused resumes checkpoints of a small search
// that were cut or reshaped by hand. Each must be refused before the
// search prints anything: exit 1, one line on stderr, empty stdout.
func TestDamagedCheckpointRefused(t *testing.T) {
	base := []string{"-pop", "6", "-loop", "36", "-seed", "3"}
	checkpoint := func(hetero bool) map[string]any {
		t.Helper()
		path := filepath.Join(t.TempDir(), "ck.json")
		args := append(append([]string(nil), base...), "-gens", "2", "-checkpoint", path)
		if hetero {
			args = append(args, "-hetero")
		}
		if code, _, errs := runAudit(t, args...); code != 0 {
			t.Fatalf("checkpointed search exit %d:\n%s", code, errs)
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var ck map[string]any
		if err := json.Unmarshal(blob, &ck); err != nil {
			t.Fatal(err)
		}
		return ck
	}
	homo, hetero := checkpoint(false), checkpoint(true)
	member := func(ga map[string]any) map[string]any {
		return ga["population"].([]any)[0].(map[string]any)
	}
	for _, tc := range []struct {
		name   string
		hetero bool
		damage func(ga map[string]any)
		stderr string
	}{
		{"population of one", false, func(ga map[string]any) {
			ga["population"] = ga["population"].([]any)[:1]
			ga["fitnesses"] = ga["fitnesses"].([]any)[:1]
		}, "checkpoint has 1 genomes and 1 fitnesses; this search breeds 6"},
		{"population without fitnesses", false, func(ga map[string]any) {
			ga["fitnesses"] = []any{}
		}, "checkpoint has 6 genomes and 0 fitnesses"},
		{"short genome", false, func(ga map[string]any) {
			slots := member(ga)["Slots"].([]any)
			member(ga)["Slots"] = slots[:len(slots)/2]
		}, "genome 0 does not have the shape"},
		{"no sub-block", false, func(ga map[string]any) {
			ga["best"].(map[string]any)["S"] = 0
		}, "best genome does not have the shape"},
		{"hetero member without threads", true, func(ga map[string]any) {
			member(ga)["PerThread"] = []any{}
		}, "genome 0 does not have the shape"},
		{"hetero member short of threads", true, func(ga map[string]any) {
			member(ga)["PerThread"] = member(ga)["PerThread"].([]any)[:1]
		}, "genome 0 does not have the shape"},
		// A resume replays the RNG to this position a draw at a time.
		{"RNG position past its generations", false, func(ga map[string]any) {
			ga["rng_draws"] = 1e15
		}, "RNG position 1000000000000000 lies past"},
		{"hetero RNG position past its generations", true, func(ga map[string]any) {
			ga["rng_draws"] = 1e15
		}, "RNG position 1000000000000000 lies past"},
		// The scores must agree with each other as the engine keeps them.
		{"best fitness past its history", false, func(ga map[string]any) {
			ga["best_fitness"] = 5.0
		}, "best fitness 5 is not its history's last"},
		{"hetero best fitness past its history", true, func(ga map[string]any) {
			ga["best_fitness"] = 5.0
		}, "best fitness 5 is not its history's last"},
		{"fitnesses reversed", false, func(ga map[string]any) {
			slices.Reverse(ga["fitnesses"].([]any))
		}, "fitnesses are not best first"},
		{"best fitness below the population's", false, func(ga map[string]any) {
			ga["best_fitness"] = ga["fitnesses"].([]any)[0].(float64) / 2
		}, "lies below its population's best"},
		{"history of the wrong length", false, func(ga map[string]any) {
			ga["history"] = ga["history"].([]any)[1:]
		}, "checkpoint of generation 2 holds a history of 1 generations"},
		{"history that falls", false, func(ga map[string]any) {
			h := ga["history"].([]any)
			h[0] = 2 * h[1].(float64)
		}, "history falls at generation 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := homo
			if tc.hetero {
				src = hetero
			}
			var ck map[string]any // a deep copy of src to damage
			blob, _ := json.Marshal(src)
			json.Unmarshal(blob, &ck)
			tc.damage(ck["ga"].(map[string]any))
			blob, _ = json.Marshal(ck)
			path := filepath.Join(t.TempDir(), "damaged.json")
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				t.Fatal(err)
			}
			args := append(append([]string(nil), base...), "-gens", "4", "-resume", path)
			if tc.hetero {
				args = append(args, "-hetero")
			}
			code, out, errs := runAudit(t, args...)
			if code != 1 || out != "" || !strings.Contains(errs, tc.stderr) || strings.Count(errs, "\n") != 1 {
				t.Errorf("exit %d, want 1 with %q as the one line on stderr and no stdout\nstdout:\n%s\nstderr:\n%s",
					code, tc.stderr, out, errs)
			}
		})
	}
}

// referenceRunner measures every run, batched or not, on Platform.Run:
// the per-cycle reference loop, with no trace, cache or replay. It
// batches, so a search wrapped in it keeps the default evaluation
// schedule.
type referenceRunner struct{ p audit.Platform }

func (r referenceRunner) Run(rc audit.RunConfig) (*audit.Measurement, error) { return r.p.Run(rc) }

func (r referenceRunner) MeasureBatch(rcs []audit.RunConfig, lanes, workers int) ([]*audit.Measurement, []error) {
	return r.MeasureBatchContext(context.Background(), rcs, lanes, workers)
}

func (r referenceRunner) MeasureBatchContext(_ context.Context, rcs []audit.RunConfig, _, _ int) ([]*audit.Measurement, []error) {
	ms := make([]*audit.Measurement, len(rcs))
	errs := make([]error, len(rcs))
	for i, rc := range rcs {
		ms[i], errs[i] = r.p.Run(rc)
	}
	return ms, errs
}

// TestReplayEqualsReference: every replay streams a candidate's whole
// trace, which is bit-exact against the reference loop, so a search
// must end the same when every evaluation runs on Platform.Run — same
// GA result and program text. The search's resonance sweep measures its
// probes as one batch on the compiled platform (it does not go through
// WrapRunner), so its points are checked against the same sweep run
// probe by probe on Platform.Run. The
// first case is the search `audit -pop 24 -gens 4 -seed 5` runs, built
// by the command's own flag code; the second a small fixed-loop search.
func TestReplayEqualsReference(t *testing.T) {
	cli, err := parseFlags([]string{"-pop", "24", "-gens", "4", "-seed", "5"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	cliOpts, err := cli.searchOptions()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts audit.Options
	}{
		{"audit -pop 24 -gens 4 -seed 5", cliOpts},
		{"small search", audit.Options{
			Platform:      audit.BulldozerPlatform(),
			LoopCycles:    36,
			GA:            audit.GAConfig{PopSize: 8, Elites: 2, TournamentK: 3, MutationProb: 0.6, MaxGenerations: 4, Seed: 11},
			MeasureCycles: 2000,
			WarmupCycles:  1200,
			Seed:          11,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			replay, err := audit.Generate(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			refOpts := tc.opts
			refOpts.WrapRunner = func(r audit.Runner) audit.Runner {
				return referenceRunner{r.(*audit.CompiledPlatform).Platform()}
			}
			ref, err := audit.Generate(refOpts)
			if err != nil {
				t.Fatal(err)
			}
			// The sweep's 13 probes (loop lengths 16 to 64 in steps of
			// 4) are the reference search's only batch runs.
			var sweepRuns uint64
			if tc.opts.LoopCycles == 0 {
				sweepRuns = 13
			}
			if ref.TraceStats.BatchRuns != sweepRuns || replay.TraceStats.BatchRuns <= sweepRuns {
				t.Fatalf("batch runs: reference search %d, replay search %d; want %d and more",
					ref.TraceStats.BatchRuns, replay.TraceStats.BatchRuns, sweepRuns)
			}
			if !reflect.DeepEqual(replay.Search, ref.Search) {
				t.Errorf("GA result differs from the reference search:\n got %+v\nwant %+v", replay.Search, ref.Search)
			}
			if tc.opts.LoopCycles == 0 {
				p := tc.opts.Platform
				pts, _, err := audit.ResonanceSweep{Platform: p, Runner: p, Threads: tc.opts.Threads}.Run(16, 64, 4)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(replay.SweepPoints, pts) {
					t.Errorf("sweep differs from the reference loop's:\n got %v\nwant %v", replay.SweepPoints, pts)
				}
			}
			if got, want := replay.Program.Text(), ref.Program.Text(); got != want {
				t.Errorf("program differs from the reference search:\n--- replay ---\n%s\n--- reference ---\n%s", got, want)
			}
		})
	}
}
