// Command auditbench is the end-to-end benchmark of the AUDIT search:
// one fixed-seed core.Generate run four ways (cold trace store, warm
// store, ROM replay kernel, loopback distributed pool), timed sample by
// sample in fresh child processes, with every result checked, and an
// optional traced sample per workload that accounts for the time layer
// by layer. See README.md.
//
// Usage:
//
//	auditbench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out DIR]
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
)

// baselineJSON holds the golden result hashes and the recorded
// baseline sets.
//
//go:embed baseline.json
var baselineJSON []byte

// goldenSeed is the seed the golden hashes were taken at.
const goldenSeed = 1

// defaultSeconds is the sampling time per workload; it matches
// run_seconds in BENCHMARK.json.
const defaultSeconds = 20

type baselineFile struct {
	Golden map[string]string `json:"golden"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if spec := os.Getenv(childEnv); spec != "" {
		return runChild(spec, stdout, stderr)
	}
	fs := flag.NewFlagSet("auditbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all, rotating sample by sample)")
	seed := fs.Int64("seed", goldenSeed, "search seed")
	secs := fs.Float64("seconds", defaultSeconds, "sampling time per workload, in seconds")
	trace := fs.Int("trace", 0, "1: add one traced sample per workload and report per-layer metrics")
	out := fs.String("out", "", "directory for span files (default: a new temporary directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "auditbench: bad arguments")
		fs.Usage()
		return 2
	}
	ws := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "auditbench: unknown workload %q\n", *name)
			return 2
		}
		ws = []workload{w}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var base baselineFile
	if err := json.Unmarshal(baselineJSON, &base); err != nil {
		fmt.Fprintln(stderr, "auditbench: baseline.json:", err)
		return 1
	}
	sample, err := childSampler(stderr)
	if err != nil {
		fmt.Fprintln(stderr, "auditbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp("", "auditbench-")
	if err != nil {
		fmt.Fprintln(stderr, "auditbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	if *trace == 1 && *out == "" {
		if *out, err = os.MkdirTemp("", "auditbench-spans-"); err != nil {
			fmt.Fprintln(stderr, "auditbench:", err)
			return 1
		}
	} else if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(stderr, "auditbench:", err)
			return 1
		}
	}
	h := &harness{
		seed: *seed, size: benchSize, seconds: *secs, trace: *trace == 1,
		dir: dir, out: *out, sample: sample, log: stderr, golden: base.Golden,
	}
	reps, err := h.run(ctx, ws)
	if err != nil {
		fmt.Fprintln(stderr, "auditbench:", err)
		return 1
	}
	ok := printReports(stdout, reps, len(ws) == 1)
	if !ok {
		return 1
	}
	return 0
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReports prints each workload's table, then the result line. With
// one workload the metric names are bare; with several they are
// prefixed by the workload. It reports whether every check passed.
func printReports(w io.Writer, reps []*report, single bool) bool {
	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, r := range reps {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		if len(r.Failures) > 0 || r.Failed > 0 {
			res.Correct = false
		}
		prefix := ""
		if !single {
			prefix = r.W.Name + "."
		}
		slow := r.slowdown()
		ms, raw := r.metrics(slow), r.metrics(1)
		gens := ms["gen_p50_ms"].N
		fmt.Fprintf(w, "== %s (seeds %s): %d samples, %d generations, %d candidates attempted, %d failed\n",
			r.W.Name, seedsOf(r), len(r.Samples), gens, r.Attempted, r.Failed)
		fmt.Fprintf(w, "   %s\n", r.W.Why)
		fmt.Fprintf(w, "   host: reference kernel %.2f ms, %.3f× its nominal %.0f ms; timings are divided by that slowdown\n",
			1e3*slow*refNominalS, slow, 1e3*refNominalS)
		fmt.Fprintf(w, "   %-14s %12s %12s %12s %6s  %-5s %12s\n", "metric", "median", "q1", "q3", "n", "unit", "as measured")
		for _, d := range endToEnd {
			s := ms[d.Name]
			fmt.Fprintf(w, "   %-14s %12.4f %12.4f %12.4f %6d  %-5s %12.4f\n", d.Name, s.Median, s.Q1, s.Q3, s.N, d.Unit, raw[d.Name].Median)
			if r.Traced == nil && s.N > 0 {
				res.Metrics[prefix+d.Name] = metric{s.Median, d.Unit}
			}
		}
		if p := tailPercentile(gens); p > 0 {
			fmt.Fprintf(w, "   generation tail: p%d %.4f ms, the highest percentile with 10 of the %d latencies beyond it\n",
				p, percentile(r.genLatencies(), float64(p))/slow, gens)
		}
		if r.Traced != nil {
			printLedger(w, r)
			for _, d := range perLayer {
				res.Metrics[prefix+d.Name] = metric{r.Traced.Ledger.Layers[d.Name], d.Unit}
			}
		}
		if len(r.Failures) == 0 {
			fmt.Fprintln(w, "   checks: ok")
		}
		for _, f := range r.Failures {
			fmt.Fprintln(w, "   CHECK FAILED:", f)
		}
	}
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(w, `{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}`)
		return false
	}
	fmt.Fprintln(w, string(blob))
	return res.Correct
}

// seedsOf lists the seeds r's timed samples ran, in first-use order.
func seedsOf(r *report) string {
	var seeds []string
	seen := map[int64]bool{}
	for _, s := range r.Samples {
		if !seen[s.Seed] {
			seen[s.Seed] = true
			seeds = append(seeds, strconv.FormatInt(s.Seed, 10))
		}
	}
	return strings.Join(seeds, ", ")
}

// printLedger prints a traced sample's self-time table, checks and
// per-layer metrics.
func printLedger(w io.Writer, r *report) {
	lg := r.Traced.Ledger
	fmt.Fprintf(w, "   -- traced sample: wall %.3f s, %+.1f%% against the timed median (tracing overhead, not gated)\n",
		r.Traced.SetupS+r.Traced.SearchS, 100*r.Overhead)
	fmt.Fprintf(w, "   spans: %s\n", r.Traced.Spans)
	layers := make([]string, 0, len(lg.SelfS))
	for l := range lg.SelfS {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return lg.SelfS[layers[i]] > lg.SelfS[layers[j]] })
	fmt.Fprintf(w, "   %-10s %10s %7s\n", "layer", "self_s", "share")
	for _, l := range layers {
		fmt.Fprintf(w, "   %-10s %10.4f %6.1f%%\n", l, lg.SelfS[l], 100*lg.SelfS[l]/lg.RootS)
	}
	fmt.Fprintf(w, "   sum of self times %.4f s, root core.Generate %.4f s\n", lg.SumSelfS, lg.RootS)
	if r.W.Dist {
		fmt.Fprintf(w, "   workers: busy + control RPC %.3f s within batch windows of %.3f s (limit %d×)\n",
			lg.WorkerS, lg.BatchS, distWorkers)
	}
	fmt.Fprintf(w, "   %-34s %14s  %-9s %s\n", "layer metric", "value", "unit", "should move")
	for _, d := range perLayer {
		fmt.Fprintf(w, "   %-34s %14.4f  %-9s %s on %s\n", d.Name, lg.Layers[d.Name], d.Unit, d.Moves, d.On)
	}
	details := make([]string, 0, len(lg.Detail))
	for k := range lg.Detail {
		details = append(details, k)
	}
	sort.Strings(details)
	for _, k := range details {
		fmt.Fprintf(w, "   %-34s %14.4f  (detail, this workload only)\n", k, lg.Detail[k])
	}
}
