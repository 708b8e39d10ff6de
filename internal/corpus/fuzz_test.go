package corpus

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/testbed"
)

// FuzzEntry: no entry file may panic the corpus. Decoding and verify
// never panic; an entry that verify and Add accept survives Add → Load
// unchanged; and once sealed, any decodable entry verifies and builds
// its run config on the Bulldozer chip without panicking, which takes
// the fuzzer past the checksum.
func FuzzEntry(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "corpus", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed entries (%v)", err)
	}
	for _, p := range paths {
		blob, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	chip := testbed.Bulldozer().Chip

	f.Fuzz(func(t *testing.T, data []byte) {
		var e Entry
		if json.Unmarshal(data, &e) != nil {
			return
		}
		if e.verify() == nil {
			want := e
			db, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.Add(&e); err == nil {
				got, err := db.Load()
				if err != nil {
					t.Fatalf("Load refuses the entry Add wrote: %v", err)
				}
				// JSON omits an empty dither plan, which is the nil plan.
				if len(want.Dither) == 0 {
					want.Dither = nil
				}
				if len(got) != 1 || !reflect.DeepEqual(*got[0], want) {
					t.Fatalf("entry changed across Add → Load:\n got %+v\nwant %+v", got, want)
				}
			}
		}

		e.Version = Version
		if err := e.seal(); err != nil {
			t.Fatalf("seal: %v", err)
		}
		if err := e.verify(); err != nil {
			t.Fatalf("sealed entry fails verify: %v", err)
		}
		e.RunConfig(chip)
	})
}
