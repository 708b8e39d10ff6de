package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// childEnv carries a sampleReq to a re-executed child: each sample runs
// in a fresh process, so no cache, pool or heap state leaks between
// samples and rusage measures exactly one search.
const childEnv = "AUDITBENCH_SAMPLE"

// childTimeout bounds one child; the largest sample takes a few
// seconds, so hitting it means the search hung.
const childTimeout = 150 * time.Second

// minSamples is the fewest timed samples a workload gets, however slow
// the machine: enough for a median and quartiles.
const minSamples = 3

// A run measures seedsPerRun searches, seed + i×seedStride, in rotation:
// one seed's GA memo can serve three times the candidates another's
// does, and averaging over searches keeps a run's medians from hanging
// on one seed's luck.
const seedsPerRun, seedStride = 3, 1000

// sampleProcs is the GOMAXPROCS of every timed and traced sample. On a
// shared two-vCPU host a search spread over both cores slows whenever
// either core is contended: ten runs of search-warm spread 20% run to
// run on two cores and 9% on one, measured interleaved. The untimed
// prep searches keep every core.
const sampleProcs = 1

// sampleReq tells runSample what to run.
type sampleReq struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Size     searchSize `json:"size"`
	// Store is the trace-store directory: empty for a cold start,
	// filled by the prep run for a warm one.
	Store string `json:"store"`
	// Traced asks for spans and the per-layer ledger; Out is where the
	// spans are written.
	Traced bool   `json:"traced,omitempty"`
	Out    string `json:"out,omitempty"`
	// Procs, when positive, is the child's GOMAXPROCS.
	Procs int `json:"procs,omitempty"`
}

// sampler runs one sample. The command runs each in a child process;
// the tests run them in-process.
type sampler func(ctx context.Context, req sampleReq) (*sample, error)

// childSampler re-executes this binary for every sample and reads the
// child's CPU time and peak RSS from its rusage.
func childSampler(stderr io.Writer) (sampler, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context, req sampleReq) (*sample, error) {
		blob, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		ctx, cancel := context.WithTimeout(ctx, childTimeout)
		defer cancel()
		cmd := exec.CommandContext(ctx, exe)
		cmd.Env = append(os.Environ(), childEnv+"="+string(blob))
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s sample: %w", req.Workload, err)
		}
		var s sample
		if err := json.Unmarshal(out.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("%s sample: bad child output: %w", req.Workload, err)
		}
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			s.CPUS = seconds(ru.Utime) + seconds(ru.Stime)
			s.PeakRSSMB = float64(ru.Maxrss) / 1024 // KiB on Linux
		}
		return &s, nil
	}, nil
}

func seconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// runChild is the child side of childSampler.
func runChild(spec string, stdout, stderr io.Writer) int {
	var req sampleReq
	if err := json.Unmarshal([]byte(spec), &req); err != nil {
		fmt.Fprintln(stderr, "auditbench: bad sample request:", err)
		return 2
	}
	if req.Procs > 0 {
		runtime.GOMAXPROCS(req.Procs)
	}
	s, err := runSample(context.Background(), req)
	if err != nil {
		fmt.Fprintln(stderr, "auditbench:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(s); err != nil {
		fmt.Fprintln(stderr, "auditbench:", err)
		return 1
	}
	return 0
}

// harness runs workloads and checks them against each other.
type harness struct {
	seed    int64
	size    searchSize
	seconds float64
	trace   bool
	// dir holds the trace stores, out the traced samples' span files.
	dir, out string
	sample   sampler
	log      io.Writer
	// golden maps workload to its result hash at goldenSeed; nil skips
	// the golden check (a shrunken search has no golden).
	golden map[string]string
}

// report is one workload's outcome.
type report struct {
	W       workload
	Samples []*sample
	Traced  *sample
	// Failures lists every failed check; Attempted and Failed count
	// candidates over every sample run for this workload.
	Failures          []string
	Attempted, Failed int
	// Overhead is the traced sample's wall ÷ the median wall of the
	// timed samples of its seed − 1.
	Overhead float64
	// skip marks a workload whose cold references could not be made.
	skip bool
}

// expected is how many candidates one search scores: the initial
// population, then Pop−Elites children per generation.
func (h *harness) expected() int { return h.size.Pop + h.size.Gens*(h.size.Pop-2) }

func (h *harness) seeds() []int64 {
	seeds := make([]int64, seedsPerRun)
	for i := range seeds {
		seeds[i] = h.seed + int64(i)*seedStride
	}
	return seeds
}

// run measures the given workloads: untimed cold reference searches of
// every seed when a workload needs them, then timed samples rotating
// across the workloads and seeds until each workload has had h.seconds
// of sampling, then one traced sample each when h.trace is set.
func (h *harness) run(ctx context.Context, ws []workload) ([]*report, error) {
	reps := make([]*report, len(ws))
	// The prep searches' candidates and failures are counted once, on
	// the first workload that needs them.
	var owner *report
	for i, w := range ws {
		reps[i] = &report{W: w}
		if owner == nil && w.needsRef() {
			owner = reps[i]
		}
	}
	seeds := h.seeds()
	shared := filepath.Join(h.dir, "shared")
	refs := map[int64]*sample{}
	for _, seed := range seeds {
		if owner == nil {
			break
		}
		fmt.Fprintf(h.log, "auditbench: prep: cold search, seed %d, filling %s\n", seed, shared)
		s, err := h.sample(ctx, sampleReq{Workload: "search-cold", Seed: seed, Size: h.size, Store: shared})
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			// Without every reference the workloads that need them are
			// not run; the failure is reported like a failed sample.
			owner.Attempted += h.expected()
			owner.Failed += h.expected()
			for _, r := range reps {
				if r.W.needsRef() {
					r.Failures = append(r.Failures, fmt.Sprintf("prep seed %d: %v", seed, err))
					r.skip = true
				}
			}
			break
		}
		refs[seed] = s
		owner.Attempted += s.Candidates
		if f := h.goldenCheck(s); f != "" {
			owner.fail(s, "prep: "+f)
		}
	}

	spent := make([]time.Duration, len(ws))
	for n := 0; ; n++ {
		progressed := false
		for i, r := range reps {
			if r.skip || spent[i].Seconds() >= h.seconds && len(r.Samples) >= minSamples {
				continue
			}
			if n > 0 && len(r.Samples) == 0 {
				continue // failing every time; one failure is reported
			}
			progressed = true
			t0 := time.Now()
			s, err := h.one(ctx, r.W, seeds[n%len(seeds)], shared, false, n)
			spent[i] += time.Since(t0)
			if err != nil {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				r.Failures = append(r.Failures, err.Error())
				r.Attempted += h.expected()
				r.Failed += h.expected()
				continue
			}
			r.check(h, s, refs[s.Seed])
			r.Samples = append(r.Samples, s)
		}
		if !progressed {
			break
		}
	}

	if h.trace {
		for _, r := range reps {
			if r.skip {
				continue
			}
			s, err := h.one(ctx, r.W, seeds[0], shared, true, 0)
			if err != nil {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				r.Failures = append(r.Failures, "traced: "+err.Error())
				r.Attempted += h.expected()
				r.Failed += h.expected()
				continue
			}
			r.check(h, s, refs[s.Seed])
			r.Traced = s
			var walls []float64
			for _, t := range r.Samples {
				if t.Seed == s.Seed {
					walls = append(walls, t.SetupS+t.SearchS)
				}
			}
			_, med, _ := quartiles(walls)
			r.Overhead = (s.SetupS+s.SearchS)/med - 1
		}
	}
	return reps, nil
}

// one runs a single sample of w, metering the host while it runs:
// against the shared prepped store when w is warm, else against a fresh
// empty store it removes afterwards.
func (h *harness) one(ctx context.Context, w workload, seed int64, shared string, traced bool, n int) (*sample, error) {
	req := sampleReq{Workload: w.Name, Seed: seed, Size: h.size, Store: shared, Traced: traced, Out: h.out, Procs: sampleProcs}
	if !w.Warm {
		req.Store = filepath.Join(h.dir, fmt.Sprintf("%s-%d-%t", w.Name, n, traced))
		defer os.RemoveAll(req.Store)
	}
	stop := meterHost()
	s, err := h.sample(ctx, req)
	ref := stop()
	if err != nil {
		return nil, err
	}
	s.RefS = ref
	return s, nil
}

// goldenCheck compares a sample's hash with the committed golden for
// its workload; "" means it matches or there is nothing to compare.
func (h *harness) goldenCheck(s *sample) string {
	want, ok := h.golden[s.Workload]
	if h.golden == nil || s.Seed != goldenSeed || !ok || s.Hash == want {
		return ""
	}
	return fmt.Sprintf("%s hash %s, golden %s", s.Workload, s.Hash, want)
}

// check runs every correctness check on one of r's samples.
func (r *report) check(h *harness, s *sample, ref *sample) {
	r.Attempted += s.Candidates
	r.Failed += s.Degraded
	var bad []string
	if f := h.goldenCheck(s); f != "" {
		bad = append(bad, f)
	}
	for _, o := range r.Samples {
		if o.Seed == s.Seed && o.Hash != s.Hash {
			bad = append(bad, fmt.Sprintf("hash %s differs from an earlier sample's %s", s.Hash, o.Hash))
			break
		}
	}
	if ref != nil && !r.W.ROM && s.Hash != ref.Hash {
		bad = append(bad, fmt.Sprintf("hash %s differs from the cold reference %s", s.Hash, ref.Hash))
	}
	if r.W.Warm && s.Stats.Captures != 0 {
		bad = append(bad, fmt.Sprintf("warm search captured %d traces", s.Stats.Captures))
	}
	if r.W.ROM && s.Stats.ExactReplays != 0 {
		bad = append(bad, fmt.Sprintf("ROM search ran %d exact replays", s.Stats.ExactReplays))
	}
	if want := h.expected(); s.Candidates != want {
		bad = append(bad, fmt.Sprintf("scored %d candidates, want %d", s.Candidates, want))
	}
	if lg := s.Ledger; lg != nil {
		if d := math.Abs(lg.SumSelfS-lg.RootS) / lg.RootS; d > 0.02 {
			bad = append(bad, fmt.Sprintf("layer self times sum to %.4f s, root is %.4f s (%.1f%% off)", lg.SumSelfS, lg.RootS, 100*d))
		}
		if r.W.Dist && lg.WorkerS > distWorkers*lg.BatchS {
			bad = append(bad, fmt.Sprintf("worker busy+RPC %.3f s exceeds %d × batch wall %.3f s", lg.WorkerS, distWorkers, lg.BatchS))
		}
	}
	if len(bad) > 0 {
		r.fail(s, bad...)
	}
}

// fail records failed checks of s and counts its candidates as failed.
func (r *report) fail(s *sample, msgs ...string) {
	for _, m := range msgs {
		r.Failures = append(r.Failures, fmt.Sprintf("seed %d: %s", s.Seed, m))
	}
	r.Failed += s.Candidates - s.Degraded
}

// genLatencies pools the timed samples' generation latencies.
func (r *report) genLatencies() []float64 {
	var gens []float64
	for _, s := range r.Samples {
		gens = append(gens, s.GenMS...)
	}
	return gens
}

// slowdown is how much slower than nominal the host ran during the
// timed samples: the median of their hostRef medians ÷ refNominalS.
func (r *report) slowdown() float64 {
	refs := make([]float64, len(r.Samples))
	for i, s := range r.Samples {
		refs[i] = s.RefS
	}
	_, med, _ := quartiles(refs)
	return med / refNominalS
}

// metrics computes the end-to-end metrics over the timed samples, with
// the timings divided by slow, the host's slowdown; slow 1 gives them
// as measured.
func (r *report) metrics(slow float64) map[string]summary {
	var setup, eps, cpu, alloc, rss []float64
	for _, s := range r.Samples {
		setup = append(setup, s.SetupS)
		eps = append(eps, float64(s.Candidates)/s.SearchS)
		cpu = append(cpu, s.CPUS)
		alloc = append(alloc, s.AllocMB)
		rss = append(rss, s.PeakRSSMB)
	}
	return map[string]summary{
		"setup_s":     summarize(setup).scaled(1 / slow),
		"evals_per_s": summarize(eps).scaled(slow),
		"gen_p50_ms":  summarize(r.genLatencies()).scaled(1 / slow),
		"cpu_s":       summarize(cpu).scaled(1 / slow),
		"alloc_mb":    summarize(alloc),
		"peak_rss_mb": summarize(rss),
	}
}
