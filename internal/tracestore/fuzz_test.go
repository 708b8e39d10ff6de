package tracestore

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the record decoder — the bytes a
// store file or a /v1/trace upload can hold. Decode must never panic,
// and whatever it accepts must be replayable and canonical: Energy and
// Issues equally long, a periodic split that covers the stored span
// exactly, and a v2 re-encoding that decodes to the identical record.
func FuzzDecode(f *testing.F) {
	for _, rec := range shapeRecords() {
		blob := Encode(rec)
		f.Add(blob)
		f.Add(legacyBlob(blob[len(magic2) : len(blob)-8]))
	}
	for _, rec := range mismatchedRecords() {
		f.Add(Encode(rec))
	}
	f.Add([]byte(magic2))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, blob []byte) {
		rec, ok := Decode(blob)
		if !ok {
			return
		}
		if len(rec.Energy) != len(rec.Issues) {
			t.Fatalf("accepted %d energy values with %d issue words", len(rec.Energy), len(rec.Issues))
		}
		if rec.Periodic && (rec.HeadLen < 0 || rec.PeriodLen <= 0 || rec.HeadLen+rec.PeriodLen != len(rec.Energy)) {
			t.Fatalf("accepted periodic split head %d + period %d over %d cycles", rec.HeadLen, rec.PeriodLen, len(rec.Energy))
		}
		again, ok := Decode(Encode(rec))
		if !ok {
			t.Fatal("re-encoded record failed to decode")
		}
		if !recordsEqual(again, rec) || again.CaptureNS != rec.CaptureNS {
			t.Fatal("record changed across Encode/Decode")
		}
	})
}

// FuzzEnergyXOR holds the word-level energy codec to the bit-at-a-time
// reference. The input is read two ways: as a float64 stream, which
// must encode to identical bytes and decode back, also from a
// truncated encoding; and as an arbitrary bit stream, from which both
// decoders must return the same values, tail and verdict.
func FuzzEnergyXOR(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint16(0))
	f.Add(appendEnergyXOR(nil, []float64{1.5, 1.5, 2.25, -0.0, 3, 3}), uint16(9), uint16(6))
	for _, rec := range shapeRecords() {
		enc := appendEnergyXOR(nil, rec.Energy)
		f.Add(enc, uint16(len(enc)/2), uint16(len(rec.Energy)))
	}
	f.Fuzz(func(t *testing.T, data []byte, cut, count uint16) {
		vals := make([]float64, len(data)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		enc := appendEnergyXOR(nil, vals)
		if !bytes.Equal(enc, refAppendEnergyXOR(nil, vals)) {
			t.Fatalf("encoding of %d values differs from the reference", len(vals))
		}
		checkDecodeEnergy(t, "round trip", enc, len(vals))
		checkDecodeEnergy(t, "truncated", enc[:int(cut)%(len(enc)+1)], len(vals))
		// Each value takes at least one bit, so counts past 8·len(data)+1
		// fail alike and only cost allocation.
		checkDecodeEnergy(t, "arbitrary", data, int(count)%(8*len(data)+2))
	})
}
