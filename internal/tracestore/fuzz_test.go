package tracestore

import "testing"

// FuzzDecode feeds arbitrary bytes to the record decoder — the bytes a
// store file or a /v1/trace upload can hold. Decode must never panic,
// and whatever it accepts must be replayable and canonical: Energy and
// Issues equally long, a periodic split that covers the stored span
// exactly, and a v2 re-encoding that decodes to the identical record.
func FuzzDecode(f *testing.F) {
	for _, rec := range shapeRecords() {
		f.Add(Encode(rec))
		f.Add(EncodeV1(rec))
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
