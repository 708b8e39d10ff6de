package dist

import (
	"encoding/json"
	"reflect"
	"testing"
)

// wireSeeds are units as encodeUnit printed them while a slot could
// still force the reference loop and a unit carried a lane width:
// shared and per-thread programs, every scalar field set, one slot that
// sets the retired exact_cycle_loop field, and the retired "lanes" on
// both. A coordinator of that version may still send them.
var wireSeeds = []string{
	`{"id":1,"batch":3,"programs":["QURUMQEAYQAAAAABAAIAqqoAAAAAAABVVQAAAAAAAAEABABsb29wAAAAAAMAAAARAAIAAgEAAAAAAAAAAAAAAAAAAAAAAAAAAAAAFAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAkAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAABABsb29w","QURUMQEAYoAAAAAAAAEAAQBsAQAAAAQAAAAQAAEBAAAAAAAA/f////////8AAAAAAAAAAAAADAABAAAAAAABBQAAAAAAAAAAEAAAAAAAAAAAAAUAAQEBAQAAAAAAAAAAAAAAAAAAAAAAAAAAAAAKAAAAAAAAAAAAAAAAAAAAAAAAAAAAAQAAAAEAbA=="],"slots":[{"threads":[{"prog":0,"module":0,"core":0},{"prog":0,"module":1,"core":0},{"prog":1,"module":2,"core":1,"max_instrs":900,"start_skew":7}],"max_cycles":4000,"warmup_cycles":500,"supply_volts":1.1375,"fp_throttle":1,"dither":[{"Core":2,"PeriodCycles":64,"PadCycles":2}]},{"threads":[{"prog":1,"module":0,"core":0}],"max_cycles":3000,"record_waveform":true,"scope_sample_hz":2000000000,"trigger_threshold":1.085}],"lanes":4}`,
	`{"id":2,"batch":3,"programs":["QURUMQEAYQAAAAABAAIAqqoAAAAAAABVVQAAAAAAAAEABABsb29wAAAAAAMAAAARAAIAAgEAAAAAAAAAAAAAAAAAAAAAAAAAAAAAFAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAkAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAABABsb29w"],"slots":[{"threads":[{"prog":0,"module":0,"core":0}],"max_cycles":2000,"warmup_cycles":100,"exact_cycle_loop":true}],"lanes":4}`,
}

// FuzzWireUnit: no lease body may panic a worker's decode, and a unit
// decodeUnit accepts must survive encodeUnit → JSON → decodeUnit with
// every RunConfig field equal.
func FuzzWireUnit(f *testing.F) {
	for _, s := range wireSeeds {
		var u WireUnit
		if err := json.Unmarshal([]byte(s), &u); err != nil {
			f.Fatal(err)
		}
		if _, err := decodeUnit(&u); err != nil {
			f.Fatalf("unit %d no longer decodes: %v", u.ID, err)
		}
		f.Add([]byte(s))
	}
	u, err := encodeUnit(7, 1, distSlate(f, 2))
	if err != nil {
		f.Fatal(err)
	}
	blob, err := json.Marshal(u)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)

	f.Fuzz(func(t *testing.T, data []byte) {
		var u WireUnit
		if json.Unmarshal(data, &u) != nil {
			return
		}
		rcs, err := decodeUnit(&u)
		if err != nil {
			return
		}
		u2, err := encodeUnit(u.ID, u.Batch, rcs)
		if err != nil {
			t.Fatalf("accepted unit does not re-encode: %v", err)
		}
		blob, err := json.Marshal(u2)
		if err != nil {
			t.Fatal(err)
		}
		var u3 WireUnit
		if err := json.Unmarshal(blob, &u3); err != nil {
			t.Fatal(err)
		}
		back, err := decodeUnit(&u3)
		if err != nil {
			t.Fatalf("re-encoded unit does not decode: %v", err)
		}
		// JSON omits an empty dither plan, which is the nil plan.
		for i := range rcs {
			if len(rcs[i].Dither) == 0 {
				rcs[i].Dither = nil
			}
		}
		if !reflect.DeepEqual(back, rcs) {
			t.Fatalf("unit changed across the wire:\n got %+v\nwant %+v", back, rcs)
		}
	})
}
