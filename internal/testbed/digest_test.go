package testbed

import (
	"fmt"
	"os"
	"testing"
)

// Golden platform digests for the two shipped test systems. A failure
// here means the platform description itself changed — a chip, power,
// PDN or failure-model field was added, removed or recalibrated — which
// invalidates every corpus entry baselined on the old digest. That must
// be an explicit, reviewed event: update these values AND re-baseline
// (or consciously keep) the affected corpora. Regenerate (never to
// paper over an accidental change) with:
//
//	AUDIT_GOLDEN_REGEN=1 go test -run TestPlatformDigestGolden -v ./internal/testbed/
var goldenPlatformDigests = map[string]string{
	"bulldozer": "37135682d6ddeef7b02ce27586a0c06a611f406d996a28ee3ff7880958effbb8",
	"phenom":    "acd0fdf08bc981c01a060eca55ce117de77921982f8fd4aeb5ae000d86d999c2",
}

func TestPlatformDigestGolden(t *testing.T) {
	regen := os.Getenv("AUDIT_GOLDEN_REGEN") != ""
	for name := range goldenPlatformDigests {
		p, err := PlatformByName(name)
		if err != nil {
			t.Fatal(err)
		}
		got := PlatformDigest(p)
		if regen {
			fmt.Printf("\t%q: %q,\n", name, got)
			continue
		}
		if want := goldenPlatformDigests[name]; got != want {
			t.Errorf("%s: PlatformDigest = %s, want %s (platform description drifted — review and re-baseline corpora)",
				name, got, want)
		}
	}
}

// TestPlatformByName pins the resolver every command and the corpus
// share: each preset name maps to its constructor, anything else is an
// error.
func TestPlatformByName(t *testing.T) {
	for name, want := range map[string]Platform{"bulldozer": Bulldozer(), "phenom": Phenom()} {
		got, err := PlatformByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if PlatformDigest(got) != PlatformDigest(want) {
			t.Errorf("%s resolved to a different platform", name)
		}
	}
	for _, name := range []string{"", "Bulldozer", "sandy-bridge"} {
		if _, err := PlatformByName(name); err == nil {
			t.Errorf("unknown platform %q resolved", name)
		}
	}
}

// TestPlatformDigestSensitivity proves the digest covers all four
// platform components: perturbing any one of them must move it, and
// re-computing on an unchanged platform must not.
func TestPlatformDigestSensitivity(t *testing.T) {
	base := Bulldozer()
	ref := PlatformDigest(base)
	if PlatformDigest(Bulldozer()) != ref {
		t.Fatal("digest is not deterministic across identical platforms")
	}
	perturb := map[string]func(*Platform){
		"chip":    func(p *Platform) { p.Chip.DecodeWidth++ },
		"power":   func(p *Platform) { p.Power.FrontEndPJPerOp *= 2 },
		"pdn":     func(p *Platform) { p.PDN.LDie *= 1.5 },
		"failure": func(p *Platform) { p.Failure.CriticalV[1] += 0.01 },
	}
	for name, mutate := range perturb {
		p := Bulldozer()
		mutate(&p)
		if PlatformDigest(p) == ref {
			t.Errorf("perturbing the %s model did not change the platform digest", name)
		}
	}
	if PlatformDigest(Phenom()) == ref {
		t.Error("bulldozer and phenom digests collide")
	}
}

// TestCaptureDigestExcludesNetwork pins the trace-store salt's
// narrower contract: phase-1 traces depend only on the chip and power
// models, so a PDN- or failure-model change must NOT move the capture
// digest (platforms differing only on the network side share stored
// traces), while a chip or power change must.
func TestCaptureDigestExcludesNetwork(t *testing.T) {
	base := Bulldozer()
	ref := string(captureDigest(base))

	pdnOnly := Bulldozer()
	pdnOnly.PDN.LDie *= 1.5
	pdnOnly.Failure.CriticalV[1] += 0.01
	if string(captureDigest(pdnOnly)) != ref {
		t.Error("capture digest moved on a network-side change; stored traces would stop sharing")
	}
	chip := Bulldozer()
	chip.Chip.DecodeWidth++
	if string(captureDigest(chip)) == ref {
		t.Error("capture digest ignored a chip change")
	}
	pw := Bulldozer()
	pw.Power.FrontEndPJPerOp *= 2
	if string(captureDigest(pw)) == ref {
		t.Error("capture digest ignored a power-model change")
	}
}
