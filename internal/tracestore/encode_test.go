package tracestore

import (
	"bytes"
	"math"
	"os"
	"testing"
)

// shapeRecords enumerates every Record shape the codec must carry
// exactly: empty, unsupported, aperiodic, periodic with and without a
// head, adversarial float patterns (NaN payloads, infinities, negative
// zero, denormals) and issue words exercising every varint width.
// Mismatched Energy/Issues lengths are not a shape but a corruption
// (mismatchedRecords).
func shapeRecords() map[string]*Record {
	nan := math.Float64frombits(0x7ff8_dead_beef_0001) // NaN with payload
	shapes := map[string]*Record{
		"empty":       {},
		"unsupported": {Unsupported: true, Done: true},
		"aperiodic": {
			Energy: []float64{1.25, 1.25, 3.5, -0.0, 2.75},
			Issues: []uint64{0, 1, 1, 7, 1 << 40},
			Done:   true,
		},
		"periodic-headless": {
			Energy:   []float64{2.0, 2.5, 2.0, 2.5},
			Issues:   []uint64{3, 5, 3, 5},
			Periodic: true, PeriodLen: 4,
		},
		"single-cycle": {
			Energy: []float64{math.Inf(1)}, Issues: []uint64{math.MaxUint64},
		},
		"float-zoo": {
			Energy: []float64{
				0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
				nan, math.NaN(), 5e-324, -5e-324, math.MaxFloat64,
				math.SmallestNonzeroFloat64, 1, 1, 1,
			},
			Issues: make([]uint64, 13),
		},
		"capture-ns": {
			Energy:    []float64{1, 1},
			Issues:    []uint64{1, 1},
			CaptureNS: 123_456_789_012,
		},
		"full": sampleRecord(257, 42),
	}
	shapes["full"].CaptureNS = 9999
	withHead := sampleRecord(96, 7)
	withHead.HeadLen, withHead.PeriodLen = 13, 83
	shapes["periodic-with-head"] = withHead
	return shapes
}

// mismatchedRecords are records whose Energy and Issues lengths
// disagree. Encode still writes them, but replay indexes both arrays by
// cycle, so Decode must refuse them: accepted, one upload through the
// trace tier would crash every worker's replay.
func mismatchedRecords() map[string]*Record {
	return map[string]*Record{
		"issues-longer-than-energy": {Energy: []float64{1}, Issues: []uint64{1, 2, 3, 4}},
		"energy-longer-than-issues": {Energy: []float64{1, 2, 3, 4}, Issues: []uint64{9}},
		"issues-missing":            {Energy: []float64{2, 2.5}},
		"periodic-short-issues": {
			Energy: make([]float64, 5000), Issues: make([]uint64, 10),
			Periodic: true, HeadLen: 904, PeriodLen: 4096,
		},
	}
}

func recordsIdentical(t *testing.T, name string, got, want *Record) {
	t.Helper()
	if !recordsEqual(got, want) {
		t.Errorf("%s: record changed across encode/decode", name)
	}
	if got.CaptureNS != want.CaptureNS {
		t.Errorf("%s: CaptureNS %d != %d", name, got.CaptureNS, want.CaptureNS)
	}
}

func TestV2RoundTripAllShapes(t *testing.T) {
	for name, want := range shapeRecords() {
		blob := Encode(want)
		if !bytes.HasPrefix(blob, []byte(magic2)) {
			t.Fatalf("%s: Encode did not emit a v2 record", name)
		}
		got, ok := Decode(blob)
		if !ok {
			t.Fatalf("%s: v2 blob failed to decode", name)
		}
		recordsIdentical(t, name, got, want)
		// Determinism: same record, same bytes.
		if !bytes.Equal(blob, Encode(want)) {
			t.Errorf("%s: Encode is nondeterministic", name)
		}
	}
}

// TestV1StillDecodes proves coexistence: a directory written by an old
// binary keeps serving hits after the upgrade, via both the codec-level
// Decode dispatch and a Store handle.
func TestV1StillDecodes(t *testing.T) {
	want := sampleRecord(64, 5)
	got, ok := Decode(EncodeV1(want))
	if !ok {
		t.Fatal("v1 blob failed to decode through the dispatching Decode")
	}
	recordsIdentical(t, "v1", got, want)

	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("old key")
	if err := os.WriteFile(s.path(key), EncodeV1(want), 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok = s.Get(key)
	if !ok {
		t.Fatal("v1 file on disk read as a miss")
	}
	recordsIdentical(t, "v1-store", got, want)
	// Overwriting rewrites as v2; the record is unchanged.
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(s.path(key))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(blob, []byte(magic2)) {
		t.Fatal("Put left a v1 record on disk")
	}
}

// TestV2CorruptionIsAMiss hammers a v2 blob: every bit flip and every
// truncation length must decode as a miss, never a wrong record or a
// panic, and a Store must unlink the damaged file.
func TestV2CorruptionIsAMiss(t *testing.T) {
	rec := sampleRecord(48, 3)
	pristine := Encode(rec)
	for i := 0; i < len(pristine)*8; i++ {
		blob := append([]byte(nil), pristine...)
		blob[i/8] ^= 1 << (i % 8)
		if got, ok := Decode(blob); ok && !recordsEqual(got, rec) {
			t.Fatalf("bit flip %d decoded to a different record", i)
		}
	}
	for n := 0; n < len(pristine); n++ {
		if _, ok := Decode(pristine[:n]); ok {
			t.Fatalf("truncation to %d bytes decoded", n)
		}
	}

	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("k")
	if err := s.Put(key, rec); err != nil {
		t.Fatal(err)
	}
	p := s.path(key)
	if err := os.WriteFile(p, pristine[:len(pristine)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("truncated v2 record served as a hit")
	}
	if _, err := os.Stat(p); err == nil {
		t.Fatal("truncated v2 record left on disk")
	}
}

func TestRawBlobAPI(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("raw key")
	rec := sampleRecord(80, 11)
	rec.CaptureNS = 42
	if err := s.Put(key, rec); err != nil {
		t.Fatal(err)
	}
	addr := Addr(key)
	blob, ok := s.GetRaw(addr)
	if !ok {
		t.Fatal("GetRaw miss after Put")
	}
	if !bytes.Equal(blob, Encode(rec)) {
		t.Fatal("GetRaw returned different bytes than Put wrote")
	}

	// PutRaw into a second store round-trips through Get — the wire
	// transfer path: disk bytes are wire bytes.
	s2, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.PutRaw(addr, blob); err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(key)
	if !ok {
		t.Fatal("miss after PutRaw")
	}
	recordsIdentical(t, "raw", got, rec)

	// v1 blobs serve over the raw path too.
	if err := s2.PutRaw(addr, EncodeV1(rec)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.GetRaw(addr); !ok {
		t.Fatal("v1 blob not served via GetRaw")
	}

	// Hostile inputs: bad addresses and undecodable blobs are rejected
	// before touching the filesystem.
	for _, bad := range []string{
		"", "short", "../../../../etc/passwd",
		"ZZ" + addr[2:], addr[:63] + "G", addr + "00",
	} {
		if err := s2.PutRaw(bad, blob); err == nil {
			t.Errorf("PutRaw accepted address %q", bad)
		}
		if _, ok := s2.GetRaw(bad); ok {
			t.Errorf("GetRaw served address %q", bad)
		}
	}
	if err := s2.PutRaw(addr, blob[:len(blob)/2]); err == nil {
		t.Error("PutRaw accepted a truncated blob")
	}
	// PutRaw is the only check on a /v1/trace upload: a well-formed
	// record whose Energy and Issues lengths disagree must not pass it.
	for name, rec := range mismatchedRecords() {
		if err := s2.PutRaw(addr, Encode(rec)); err == nil {
			t.Errorf("PutRaw accepted mismatched record %s", name)
		}
	}
	if err := s2.PutRaw(addr, nil); err == nil {
		t.Error("PutRaw accepted an empty blob")
	}
}

// TestV2CompressionOnPeriodicTrace checks the codec pulls its weight on
// the workload it was built for: a long repetitive per-cycle stream,
// the shape Brent-periodic stressmark traces take. The ≥4× acceptance
// bar on real corpus traces lives in the root ratio test; this is the
// unit-level floor.
func TestV2CompressionOnPeriodicTrace(t *testing.T) {
	const n = 4096
	rec := &Record{
		Energy:   make([]float64, n),
		Issues:   make([]uint64, n),
		Periodic: true, HeadLen: 96, PeriodLen: n - 96, Done: true,
	}
	for i := range rec.Energy {
		rec.Energy[i] = 2.5 + 0.25*float64(i%17)
		rec.Issues[i] = uint64(0b1011 << (i % 3))
	}
	v2 := len(Encode(rec))
	v1 := EncodedSizeV1(rec)
	if ratio := float64(v1) / float64(v2); ratio < 4 {
		t.Errorf("v2 compression ratio %.2f× on periodic trace (v1=%dB v2=%dB), want ≥4×",
			ratio, v1, v2)
	}
}

func BenchmarkTraceEncodeV2(b *testing.B) {
	const n = 65536
	rec := &Record{
		Energy:   make([]float64, n),
		Issues:   make([]uint64, n),
		Periodic: true, HeadLen: 128, PeriodLen: n - 128, Done: true,
	}
	for i := range rec.Energy {
		rec.Energy[i] = 2.5 + 0.25*float64(i%23)
		rec.Issues[i] = uint64(i % 5)
	}
	blob := Encode(rec)
	b.SetBytes(int64(16 * n)) // v1 payload bytes processed per op
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := Encode(rec)
		if dec, ok := Decode(out); !ok || len(dec.Energy) != n {
			b.Fatal("round trip failed")
		}
	}
	b.ReportMetric(float64(EncodedSizeV1(rec))/float64(len(blob)), "ratio")
}
