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
// Issues equally long, a whole-run record (no periodic flag, every
// periodic header field zero), and a v2 re-encoding that decodes to the
// identical record.
func FuzzDecode(f *testing.F) {
	for _, rec := range shapeRecords() {
		blob := Encode(rec)
		f.Add(blob)
		f.Add(legacyBlob(blob[len(magic2) : len(blob)-8]))
	}
	for _, rec := range mismatchedRecords() {
		f.Add(Encode(rec))
	}
	for _, blob := range periodicBlobs(f) {
		f.Add(blob)
	}
	f.Add(headerWith(0, periodicFlag))
	for _, i := range periodicSlots() {
		f.Add(headerWith(i, 1))
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
		header := payloadHeader(t, blob)
		if header[0]&periodicFlag != 0 {
			t.Fatalf("accepted a record with the periodic flag (flags %#x)", header[0])
		}
		for _, i := range periodicSlots() {
			if header[i] != 0 {
				t.Fatalf("accepted a record with periodic header field %d = %d", i, header[i])
			}
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

// payloadHeader returns the headerFields varints that open an accepted
// blob's payload.
func payloadHeader(t *testing.T, blob []byte) []uint64 {
	d := decoders.Get().(*decoder)
	defer d.release()
	p, ok := d.inflate(blob[len(magic2) : len(blob)-8])
	if !ok {
		t.Fatal("accepted blob does not inflate")
	}
	header := make([]uint64, headerFields)
	for i := range header {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			t.Fatal("accepted blob has a short header")
		}
		header[i], p = v, p[n:]
	}
	return header
}

// FuzzEnergyXOR holds the word-level energy codec to the bit-at-a-time
// reference. The input is read two ways: as a float64 stream, which
// must encode to identical bytes and decode back, also from a
// truncated encoding; and as an arbitrary bit stream, from which both
// decoders must return the same values, tail and verdict.
func FuzzEnergyXOR(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint16(0))
	f.Add(appendEnergyXOR(nil, []float64{1.5, 1.5, 2.25, -0.0, 3, 3}), uint16(9), uint16(6))
	streams := [][]float64{
		{2.0, 2.5, 2.0, 2.5},       // a two-value alternation
		sampleRecord(96, 7).Energy, // a ramp
	}
	for _, rec := range shapeRecords() {
		streams = append(streams, rec.Energy)
	}
	for _, vals := range streams {
		enc := appendEnergyXOR(nil, vals)
		f.Add(enc, uint16(len(enc)/2), uint16(len(vals)))
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
