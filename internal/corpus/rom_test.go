package corpus

import (
	"testing"

	"repro/internal/testbed"
)

// TestReplayROMToleranceIsPlatformSkew: enabling the reduced-order
// replay kernel is a platform change — its tolerance is part of the
// platform digest — so replaying an exact-kernel baseline on a
// ROM-enabled platform must classify as platform skew, never DRIFT,
// even when the ROM's sub-µV error leaves every number inside the
// entry's gates. And on a matching ROM platform the corpus round-trips:
// harvest and replay under the same tolerance pass.
func TestReplayROMToleranceIsPlatformSkew(t *testing.T) {
	exact := compile(t, testbed.Bulldozer())
	e := harvestEntry(t, exact, HarvestConfig{})

	rom := testbed.Bulldozer()
	rom.ROMTolV = 1e-5
	rcp := compile(t, rom)

	res := Replay(rcp, []*Entry{e}, ReplayOptions{})
	if res[0].Verdict != PlatformSkew {
		t.Fatalf("exact baseline on ROM platform: verdict %s (%s), want platform-skew",
			res[0].Verdict, res[0].Detail)
	}

	re := harvestEntry(t, rcp, HarvestConfig{})
	same := Replay(rcp, []*Entry{re}, ReplayOptions{})
	if same[0].Verdict != Pass {
		t.Fatalf("ROM baseline on same ROM platform: verdict %s (%s), want pass",
			same[0].Verdict, same[0].Detail)
	}
}
