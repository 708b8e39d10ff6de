package tracestore

import (
	"bytes"
	"math"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the record decoder — the bytes a
// store file or a /v1/trace upload can hold — as they come and with
// their checksum recomputed, so that mutations reach the structural
// checks. Decode must never panic and must agree with valid and with
// the view; it may allocate a margin on the blob's length, plus the
// arrays (16 bytes a cycle) only for a blob whose frame passes every
// check that sizes them. Whatever it accepts must be replayable and
// canonical: Energy and Issues equally long, a record that re-encodes
// to a blob decoding to the identical record, and a view that streams
// the same bits through a window in the spans spans picks (checkView).
func FuzzDecode(f *testing.F) {
	var seed uint64
	add := func(blob []byte) {
		f.Add(blob, seed)
		seed++
	}
	for _, rec := range shapeRecords() {
		blob := Encode(rec)
		add(blob)
		add(legacyBlob(blob[len(magic3) : len(blob)-8]))
	}
	for _, hexes := range []map[string]string{v2RecordHex, periodicRecordHex} {
		for _, blob := range hexBlobs(f, hexes) {
			add(blob)
		}
	}
	for _, rec := range mismatchedRecords() {
		add(Encode(rec))
	}
	table := []uint64{math.Float64bits(1.5), 7, math.Float64bits(-0.0), 8, math.Float64bits(math.Inf(1)), 9}
	for _, runs := range [][]uint64{{2, 3, 1}, {2, 3}, {2, 0, 4}, {6}, {1, 5}} {
		for _, lag := range []uint64{0, 1, 2, 3, MaxLag} {
			add(blobV3(0, 6, 3, lag, table, runs, []byte{0b10_01_00}))
		}
	}
	add([]byte(magic3))
	add([]byte{})
	f.Fuzz(func(t *testing.T, blob []byte, spans uint64) {
		for _, b := range [][]byte{blob, reframe(blob)} {
			limit := uint64(2*len(b) + 1<<16)
			if fr := (frame{}); fr.parse(b) {
				limit += 16 * fr.n
			}
			var rec *Record
			var ok bool
			if n := allocatedBy(func() { rec, ok = Decode(b) }); n > limit {
				t.Fatalf("decoding %d bytes (ok %v) allocated %d bytes, past %d", len(b), ok, n, limit)
			}
			if ok != valid(b) {
				t.Fatalf("Decode says %v, valid %v", ok, !ok)
			}
			if _, vok := parseEncoded(b); vok != ok {
				t.Fatalf("Decode says %v, the view %v", ok, vok)
			}
			if ok {
				checkAccepted(t, rec)
				checkView(t, b, rec, spans)
			}
		}
	})
}

// checkView holds the view of an accepted blob to rec, what Decode
// returns for it: the same header and cycle count, a decode through a
// window full of garbage, in the spans spanPicker draws from spans,
// that equals rec bit for bit and never writes past the window, and
// the largest energy a scan over rec.Energy finds.
func checkView(t *testing.T, blob []byte, rec *Record, spans uint64) {
	t.Helper()
	e, ok := parseEncoded(blob)
	if !ok {
		t.Fatal("no view of an accepted blob")
	}
	h := e.Header()
	if h.Energy != nil || h.Issues != nil || h.Done != rec.Done || h.Unsupported != rec.Unsupported ||
		h.EndStats != rec.EndStats || h.EndRetired != rec.EndRetired || h.CaptureNS != rec.CaptureNS {
		t.Fatalf("view header %+v, want the record's", h)
	}
	n := e.Cycles()
	if n != len(rec.Energy) || e.Size() != len(blob) {
		t.Fatalf("view of %d cycles in %d bytes, want %d in %d", n, e.Size(), len(rec.Energy), len(blob))
	}
	checkStream(t, e, rec, spanPicker(spans, e.Lag()))
	m := 0.0
	for _, v := range rec.Energy {
		if v > m {
			m = v
		}
	}
	if math.Float64bits(e.MaxEnergy()) != math.Float64bits(m) {
		t.Fatalf("view's largest energy %v, a scan finds %v", e.MaxEnergy(), m)
	}
}

// fuzzAlphabet is the energies fuzzRecord draws from: NaN payloads,
// both zeros, infinities and denormals among ordinary values.
var fuzzAlphabet = [8]float64{
	1.5, math.Copysign(0, -1), 0, math.Float64frombits(0x7ff8_dead_beef_0001),
	math.Inf(-1), 5e-324, 2.75, math.NaN(),
}

// fuzzLags are the distances fuzzRecord repeats cycles from.
var fuzzLags = [8]int{1, 2, 3, 7, 64, 97, 612, MaxLag + 1}

// fuzzRecord builds a record from fuzz bytes on a small alphabet, so
// that tables, lags and runs all occur. A byte below 0x80 appends one
// cycle: an energy from fuzzAlphabet and one of 16 issue words. A byte
// from 0x80 repeats 1 to 61 cycles from one of fuzzLags back (or from
// cycle 0, if the record is shorter). hdr fills the header fields.
func fuzzRecord(data []byte, hdr uint64) *Record {
	rec := &Record{Done: hdr&1 != 0, Unsupported: hdr&2 != 0, CaptureNS: hdr >> 2, EndRetired: hdr * 3}
	for i := range rec.EndStats {
		rec.EndStats[i] = hdr >> (8 * i)
	}
	for _, b := range data {
		if b < 0x80 || len(rec.Energy) == 0 {
			rec.Energy = append(rec.Energy, fuzzAlphabet[b&7])
			rec.Issues = append(rec.Issues, uint64(b>>3&15)*0x1111_0000_0000_1111)
			continue
		}
		lag := min(fuzzLags[b>>4&7], len(rec.Energy))
		for range 1 + 4*int(b&15) {
			n := len(rec.Energy)
			rec.Energy = append(rec.Energy, rec.Energy[n-lag])
			rec.Issues = append(rec.Issues, rec.Issues[n-lag])
		}
	}
	return rec
}

// FuzzRoundTrip holds the encoder to the format on records built from
// fuzz bytes: Encode is deterministic and within blobBound, and Decode
// and the view, streamed in the spans spans picks, return every field
// bit for bit, NaN payloads and −0 included.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint64(0), uint64(0))
	f.Add([]byte{0x05}, uint64(1), uint64(1))
	f.Add(bytes.Repeat([]byte{0x01}, 40), uint64(2), uint64(2))
	f.Add([]byte{0x01, 0x02, 0x03, 0x8f, 0x8f, 0x8f}, uint64(3), uint64(3))           // lag 1
	f.Add([]byte{0x01, 0x0a, 0x13, 0xaf, 0x21, 0xaf, 0xaf}, uint64(1<<40), uint64(4)) // lag 3, a perturbation
	f.Add([]byte{0x00, 0x08, 0x10, 0x18, 0x20, 0x28, 0x30, 0x38, 0xff, 0xff}, uint64(0xdead_beef), uint64(5))
	f.Add(bytes.Repeat([]byte{0x07, 0x0f, 0x17, 0x1f, 0xbf}, 20), uint64(7), uint64(6)) // NaNs, lag 7
	f.Add(append(bytes.Repeat([]byte{0x41, 0x42}, 40), 0xcf, 0xcf, 0x43, 0xcf), uint64(64), uint64(7))
	f.Add(append(bytes.Repeat([]byte{0x11, 0x22, 0x33, 0x44, 0x55}, 25), 0xdf, 0xdf, 0xdf), uint64(97), uint64(8))
	f.Add(append(bytes.Repeat([]byte{0x7f, 0x6e, 0x5d}, 250), 0xef, 0xef, 0x00, 0xef), uint64(612), uint64(9))
	f.Add(bytes.Repeat([]byte{0x01, 0x12, 0x23, 0x34, 0x45, 0x56, 0x67, 0x70, 0xff}, 12), uint64(1<<63), uint64(10))
	f.Add(bytes.Repeat([]byte{0x3c, 0x9a, 0x7b, 0xe5, 0x06}, 30), uint64(42), uint64(11))
	f.Fuzz(func(t *testing.T, data []byte, hdr, spans uint64) {
		rec := fuzzRecord(data, hdr)
		blob := Encode(rec)
		if !bytes.Equal(blob, Encode(rec)) {
			t.Fatal("Encode is nondeterministic")
		}
		if len(blob) > blobBound(len(rec.Energy)) {
			t.Fatalf("%d-byte blob for %d cycles, past blobBound %d", len(blob), len(rec.Energy), blobBound(len(rec.Energy)))
		}
		got, ok := Decode(blob)
		if !ok || !valid(blob) {
			t.Fatalf("blob of %d cycles does not decode", len(rec.Energy))
		}
		recordsIdentical(t, "fuzz", got, rec)
		checkView(t, blob, rec, spans)
	})
}
