package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The child side of childSampler, when this test binary is re-executed
// as a sample.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(runChild(spec, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// tinySize is a search small enough to run every workload in a test.
var tinySize = searchSize{Pop: 6, Gens: 2, MeasureCycles: 2000}

func smokeHarness(t *testing.T, trace bool) *harness {
	t.Helper()
	return &harness{
		seed: 3, size: tinySize, seconds: 1e-9, trace: trace,
		dir: t.TempDir(), out: t.TempDir(),
		sample: runSample, log: io.Discard,
	}
}

// All four workloads on a tiny search, traced: every check passes,
// warm and dist reproduce the cold result, warm and rom capture
// nothing, and each traced ledger adds up.
func TestSmokeAllWorkloads(t *testing.T) {
	h := smokeHarness(t, true)
	reps, err := h.run(context.Background(), workloads)
	if err != nil {
		t.Fatal(err)
	}
	hashes := map[string]string{}
	for _, r := range reps {
		for _, f := range r.Failures {
			t.Errorf("%s: %s", r.W.Name, f)
		}
		if r.Failed != 0 {
			t.Errorf("%s: %d candidates failed", r.W.Name, r.Failed)
		}
		if len(r.Samples) != minSamples || r.Traced == nil {
			t.Fatalf("%s: %d timed samples (want %d), traced %v", r.W.Name, len(r.Samples), minSamples, r.Traced != nil)
		}
		s := r.Samples[0]
		hashes[r.W.Name] = s.Hash
		if s.Candidates != h.expected() || len(s.GenMS) != tinySize.Gens+1 {
			t.Errorf("%s: %d candidates in %d generations", r.W.Name, s.Candidates, len(s.GenMS))
		}
		if r.W.Warm && s.Stats.Captures != 0 {
			t.Errorf("%s: %d captures against a filled store", r.W.Name, s.Stats.Captures)
		}
		lg := r.Traced.Ledger
		if lg.RootS <= 0 || lg.SumSelfS < 0.98*lg.RootS || lg.SumSelfS > 1.02*lg.RootS {
			t.Errorf("%s: self times sum to %v, root %v", r.W.Name, lg.SumSelfS, lg.RootS)
		}
		for _, d := range perLayer {
			if _, ok := lg.Layers[d.Name]; !ok {
				t.Errorf("%s: traced sample lacks %s", r.W.Name, d.Name)
			}
		}
		if _, err := os.Stat(r.Traced.Spans); err != nil {
			t.Errorf("%s: span file: %v", r.W.Name, err)
		}
		if slow := r.slowdown(); !(slow > 0) {
			t.Errorf("%s: host slowdown %v", r.W.Name, slow)
		}
		for name, m := range r.metrics(r.slowdown()) {
			if !(m.Median > 0) && name != "cpu_s" && name != "peak_rss_mb" {
				t.Errorf("%s: %s = %v", r.W.Name, name, m.Median)
			}
		}
	}
	if hashes["search-warm"] != hashes["search-cold"] || hashes["search-dist"] != hashes["search-cold"] {
		t.Errorf("hashes differ across workloads: %v", hashes)
	}
	dist := reps[3].Traced.Ledger
	if dist.WorkerS <= 0 || dist.WorkerS > distWorkers*dist.BatchS || dist.Layers["dist.units_remote"] == 0 {
		t.Errorf("dist ledger: workers %v s in %v s of batches, %v remote units", dist.WorkerS, dist.BatchS, dist.Layers["dist.units_remote"])
	}
	if reps[2].Samples[0].Stats.ExactReplays != 0 {
		t.Errorf("rom: %d exact replays", reps[2].Samples[0].Stats.ExactReplays)
	}

	var out bytes.Buffer
	if !printReports(&out, reps, false) {
		t.Errorf("report says incorrect:\n%s", out.String())
	}
	var res result
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	// Every timed and traced sample, plus the prep searches counted once.
	want := seedsPerRun * h.expected()
	for _, r := range reps {
		want += (len(r.Samples) + 1) * h.expected()
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != want || len(res.Metrics) != len(workloads)*len(perLayer) {
		t.Errorf("result %+v with %d metrics; want %d attempted", res, len(res.Metrics), want)
	}
}

// A prep search that errors is a failure like a failed sample: the
// workloads that need its reference are not run, its candidates count
// once, and the result line still says incorrect.
func TestPrepErrorSkipsDependents(t *testing.T) {
	h := smokeHarness(t, false)
	h.sample = func(ctx context.Context, req sampleReq) (*sample, error) {
		if filepath.Base(req.Store) == "shared" && req.Workload == "search-cold" {
			return nil, errors.New("child crashed")
		}
		return runSample(ctx, req)
	}
	reps, err := h.run(context.Background(), workloads)
	if err != nil {
		t.Fatal(err)
	}
	attempted, failed := 0, 0
	for _, r := range reps {
		attempted += r.Attempted
		failed += r.Failed
		if r.W.needsRef() != (len(r.Samples) == 0) || r.W.needsRef() != (len(r.Failures) == 1) {
			t.Errorf("%s: %d samples, failures %q", r.W.Name, len(r.Samples), r.Failures)
		}
	}
	if want := (minSamples + 1) * h.expected(); attempted != want || failed != h.expected() {
		t.Errorf("%d of %d candidates failed; want %d of %d", failed, attempted, h.expected(), want)
	}
	var out bytes.Buffer
	if printReports(&out, reps, false) {
		t.Error("report says correct")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || res.Correct || res.Failed != failed {
		t.Errorf("result line %q: %v", lines[len(lines)-1], err)
	}
}

// A failed check marks the result incorrect and counts the sample's
// candidates as failed.
func TestFailedCheckCountsCandidates(t *testing.T) {
	h := smokeHarness(t, false)
	h.seed = goldenSeed
	h.golden = map[string]string{"search-cold": "0000000000000000"}
	reps, err := h.run(context.Background(), workloads[:1])
	if err != nil {
		t.Fatal(err)
	}
	// Of the three samples, one per seed, only seed 1 has a golden.
	r := reps[0]
	if len(r.Failures) != 1 || r.Failed != h.expected() || r.Attempted != minSamples*h.expected() {
		t.Errorf("failures %q, %d of %d candidates failed", r.Failures, r.Failed, r.Attempted)
	}
	var out bytes.Buffer
	if printReports(&out, reps, true) {
		t.Error("report says correct")
	}
	if !strings.Contains(out.String(), `"correct":false`) {
		t.Errorf("result line does not say incorrect:\n%s", out.String())
	}
}

// A sample in a child process reports its search and the child's
// rusage.
func TestChildSample(t *testing.T) {
	sample, err := childSampler(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sample(context.Background(), sampleReq{Workload: "search-cold", Seed: 1, Size: tinySize, Store: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if s.Candidates != tinySize.Pop+tinySize.Gens*(tinySize.Pop-2) || s.CPUS <= 0 || s.PeakRSSMB <= 0 || s.Hash == "" {
		t.Errorf("child sample %+v", s)
	}
}

func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{{"-workload", "nope"}, {"-trace", "2"}, {"-seconds", "0"}, {"extra"}} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}
