package repro

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
	"repro/internal/testbed"
	"repro/internal/tracestore"
)

// TestTraceCompressionOnCorpus is the acceptance bar for the v2 trace
// record format: captured on the committed regression corpus — real
// stressmark traces, not synthetic streams — the compressed records
// must be at least 4× smaller than the flat 16 B/cycle encoding (one
// float64 of energy and one issue word per cycle) they replaced. The
// ratio is measured on the actual store files a warm distributed
// search would move over /v1/trace.
func TestTraceCompressionOnCorpus(t *testing.T) {
	db, err := corpus.Open(seedCorpusDir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := db.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("seed corpus is empty")
	}

	dir := t.TempDir()
	store, err := tracestore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
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
		cp.SetTraceStore(store)
		for _, e := range group {
			rc, err := e.RunConfig(p.Chip)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cp.Run(rc); err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
		}
	}

	files, err := filepath.Glob(filepath.Join(dir, "*.trace"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("corpus replay captured no trace records")
	}
	var flatTotal, v2Total int64
	for _, f := range files {
		blob, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		rec, ok := tracestore.Decode(blob)
		if !ok {
			t.Fatalf("%s: stored record does not decode", filepath.Base(f))
		}
		v2Total += int64(len(blob))
		flatTotal += int64(16 * len(rec.Energy))
	}
	ratio := float64(flatTotal) / float64(v2Total)
	t.Logf("corpus traces: %d records, flat %d B → v2 %d B (%.1f×)",
		len(files), flatTotal, v2Total, ratio)
	if ratio < 4 {
		t.Errorf("v2 compression on corpus traces is %.2f×, want ≥ 4×", ratio)
	}
}
