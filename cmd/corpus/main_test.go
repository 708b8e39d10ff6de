package main

import (
	"bytes"
	"strings"
	"testing"
)

// seedCorpus is the committed regression corpus at the repository
// root.
const seedCorpus = "../../testdata/corpus"

// corpusRun runs the command in-process and returns its exit code and
// output.
func corpusRun(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestRunSeedCorpusPasses(t *testing.T) {
	code, out, errs := corpusRun(t, "run", "-db", seedCorpus)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errs)
	}
	if !strings.Contains(out, "4 entries replayed, all pass") {
		t.Fatalf("stdout does not report a passing replay:\n%s", out)
	}
}

// TestRunROMIsPlatformSkew: every seed entry was baselined on the
// exact platform, so a ROM-enabled replay must fail the run with
// platform-skew on every entry, and never DRIFT, which would mean the
// ROM moved numbers without moving the platform digest.
func TestRunROMIsPlatformSkew(t *testing.T) {
	code, out, errs := corpusRun(t, "run", "-db", seedCorpus, "-rom-tol", "1e-5", "-v")
	if code == 0 {
		t.Fatalf("ROM replay of an exact-platform corpus passed:\n%s", out)
	}
	if n := strings.Count(out, "platform-skew"); n != 4 {
		t.Errorf("%d platform-skew verdicts, want one per entry (4):\n%s", n, out)
	}
	if strings.Contains(out, "DRIFT") {
		t.Errorf("DRIFT under ROM replay:\n%s", out)
	}
	if !strings.Contains(errs, "4/4 entries did not pass") {
		t.Errorf("stderr does not report the failed replay:\n%s", errs)
	}
}

func TestRunRejectsNegativeROMTol(t *testing.T) {
	code, out, errs := corpusRun(t, "run", "-db", seedCorpus, "-rom-tol", "-1")
	if code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if !strings.Contains(errs, "ROM tolerance must be a non-negative voltage") {
		t.Errorf("stderr lacks the Compile error:\n%s", errs)
	}
	if out != "" {
		t.Errorf("rejected replay printed results:\n%s", out)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"frobnicate", "-db", seedCorpus},
		{"run", "-no-such-flag"},
		{"run", "-db", seedCorpus, "-lanes", "4"}, // the width is the pipeline's choice
	} {
		if code, _, _ := corpusRun(t, args...); code != 2 {
			t.Errorf("corpus %q: exit %d, want 2", args, code)
		}
	}
	if code, out, _ := corpusRun(t, "help"); code != 0 || !strings.Contains(out, "corpus run") {
		t.Errorf("corpus help: exit %d, stdout %q", code, out)
	}
}
