package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkSpec is BENCHMARK.json at the repository root, the contract
// between this benchmark and whoever runs it.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	blob, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(blob))
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	var spec benchmarkSpec
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

func TestBenchmarkSpec(t *testing.T) {
	spec := loadSpec(t)
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	better := func(n, b string) {
		if b != "higher" && b != "lower" {
			t.Errorf("metric %s: better %q is neither higher nor lower", n, b)
		}
	}

	if len(spec.Command) == 0 || len(spec.Command) > 32 {
		t.Errorf("command has %d strings", len(spec.Command))
	}
	for _, c := range spec.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command string %q", c)
		}
	}
	if len(spec.Paths) < 1 || len(spec.Paths) > 16 {
		t.Errorf("%d paths", len(spec.Paths))
	}
	for _, p := range spec.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q", p)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 || spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d: want 1..60 and equal to defaultSeconds %d", spec.RunSeconds, defaultSeconds)
	}

	if n := len(spec.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Errorf("%d workloads; want 2..8 and the %d the command runs", n, len(workloads))
	}
	for _, w := range spec.Workloads {
		name("workload", w.Name)
		if cw, ok := workloadByName(w.Name); !ok {
			t.Errorf("workload %q unknown to the command", w.Name)
		} else if cw.Why != w.Why {
			t.Errorf("workload %s: why differs from the command's %q", w.Name, cw.Why)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}

	if n := len(spec.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Errorf("%d end-to-end metrics; want 1..16 and the %d the command reports", n, len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		name("metric", m.Name)
		better(m.Name, m.Better)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if i < len(endToEnd) && (endToEnd[i].Name != m.Name || endToEnd[i].Unit != m.Unit || endToEnd[i].Better != m.Better) {
			t.Errorf("end_to_end[%d] = %+v, the command reports %+v", i, m, endToEnd[i])
		}
	}
	setup := false
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setup = true
			for _, o := range spec.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s bound %v is not the largest (%s has %v)", m.Bound, o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric in s, lower better")
	}

	if n := len(spec.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Errorf("%d per-layer metrics; want 1..128 and the %d the command reports", n, len(perLayer))
	}
	for i, m := range spec.PerLayer {
		name("metric", m.Name)
		better(m.Name, m.Better)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if i < len(perLayer) && (perLayer[i].Name != m.Name || perLayer[i].Unit != m.Unit || perLayer[i].Better != m.Better) {
			t.Errorf("per_layer[%d] = %+v, the command reports %+v", i, m, perLayer[i])
		}
	}
}

// Every layer metric names the end-to-end metric it should move and the
// workload to look at, so a claimed layer gain has a place to show.
func TestLayerMetricsNameWhatTheyMove(t *testing.T) {
	e2e := map[string]bool{}
	for _, m := range endToEnd {
		e2e[m.Name] = true
	}
	for _, m := range perLayer {
		if !e2e[m.Moves] {
			t.Errorf("layer metric %s moves %q, not an end-to-end metric", m.Name, m.Moves)
		}
		if _, ok := workloadByName(m.On); !ok {
			t.Errorf("layer metric %s moves %s on %q, not a workload", m.Name, m.Moves, m.On)
		}
		if layer, _, _ := strings.Cut(m.Name, "."); layer == m.Name {
			t.Errorf("layer metric %s is not named layer.metric", m.Name)
		}
	}
}

// baseline.json carries a golden hash per workload and two recorded
// sets covering every workload × end-to-end metric.
func TestBaselineFile(t *testing.T) {
	var b struct {
		Machine map[string]any    `json:"machine"`
		Golden  map[string]string `json:"golden"`
		Sets    []struct {
			Workloads map[string]map[string]summary `json:"workloads"`
		} `json:"sets"`
	}
	if err := json.Unmarshal(baselineJSON, &b); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"nproc", "go", "cpu"} {
		if b.Machine[k] == nil {
			t.Errorf("baseline machine lacks %q", k)
		}
	}
	if len(b.Sets) != 2 {
		t.Errorf("baseline has %d sets, want 2", len(b.Sets))
	}
	for _, w := range workloads {
		if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(b.Golden[w.Name]) {
			t.Errorf("golden hash for %s: %q", w.Name, b.Golden[w.Name])
		}
		for i, set := range b.Sets {
			for _, m := range endToEnd {
				if s, ok := set.Workloads[w.Name][m.Name]; !ok || s.N < 1 || s.Median <= 0 {
					t.Errorf("set %d lacks %s on %s: %+v", i, m.Name, w.Name, s)
				}
			}
		}
	}
	if b.Golden["search-warm"] != b.Golden["search-cold"] || b.Golden["search-dist"] != b.Golden["search-cold"] {
		t.Error("warm and dist goldens must equal cold's: they run the same search")
	}
}
