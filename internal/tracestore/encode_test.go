package tracestore

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/bits"
	"os"
	"runtime"
	"testing"
)

// shapeRecords enumerates every Record shape the codec must carry
// exactly: empty, unsupported, aperiodic, adversarial float patterns
// (NaN payloads, infinities, negative zero, denormals) and issue words
// exercising every varint width.
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
	return shapes
}

// aperiodicRecord is the shape most search traces take: 23k cycles
// with no period, where the per-cycle energy follows a random walk of
// per-unit issue counts. Half the cycles repeat their predecessor
// (a zero XOR), most others reuse the previous ~55-bit XOR window,
// and now and then supply noise opens a fresh one — the mix real
// search records show — and its blob (58 KiB) sits at the large end
// of theirs.
func aperiodicRecord() *Record {
	const n = 23_000
	rec := &Record{
		Energy: make([]float64, n), Issues: make([]uint64, n), Done: true,
		EndRetired: 61_234, CaptureNS: 412_345_678,
		EndStats: [statsWords]uint64{5012, 97, 40_321, 2210, 1800, 410, 300, 110},
	}
	unitE := [6]float64{412.375, 297.03125, 655.8125, 118.4, 903.21875, 71.6}
	s, q := uint64(0x9e3779b97f4a7c15), uint64(0x0101)
	for i := range rec.Energy {
		s = s*6364136223846793005 + 1442695040888963407 // 64-bit LCG
		r := s >> 24
		if r%8 >= 3 { // 5 cycles in 8 change one unit's issue count
			u := r >> 3 % 6
			q = q&^(0xff<<(8*u)) | (r>>6%4)<<(8*u)
		}
		e := 1500.0
		for u, ue := range unitE {
			e += float64(q>>(8*u)&0xff) * ue
		}
		if r>>8%32 == 0 { // now and then, supply noise off the grid
			e += float64(r>>13%1024) * 0.0625
		}
		rec.Energy[i], rec.Issues[i] = e, q
	}
	return rec
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
		"long-energy-short-issues":  {Energy: make([]float64, 5000), Issues: make([]uint64, 10)},
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

// encodeGolden pins the v2 format: the length and FNV-1a hash of
// Encode's output for every shape, recorded from the bit-at-a-time
// codec the word-level one replaced. Stores on disk and the /v1/trace
// wire depend on these bytes never moving.
var encodeGolden = map[string]struct {
	n    int
	hash uint64
}{
	"aperiodic":      {52, 0x6d5b8fc38d0f089d},
	"aperiodic-walk": {59479, 0x596ea912b676e2d0},
	"capture-ns":     {42, 0xe4855ced37d4b756},
	"empty":          {25, 0x9f8edd176d1fbbc8},
	"float-zoo":      {80, 0x97ff01a0abb35096},
	"full":           {275, 0x046ee014ab9de0f2},
	"single-cycle":   {34, 0xf65dbb6ce331287e},
	"unsupported":    {26, 0x35bf8f6e987c6f7d},
}

func TestEncodeGolden(t *testing.T) {
	shapes := shapeRecords()
	shapes["aperiodic-walk"] = aperiodicRecord()
	if len(shapes) != len(encodeGolden) {
		t.Fatalf("%d shapes but %d goldens: pin every shape", len(shapes), len(encodeGolden))
	}
	for name, rec := range shapes {
		want, ok := encodeGolden[name]
		if !ok {
			t.Errorf("%s: no golden", name)
			continue
		}
		// Twice, so the second Encode runs on pooled state.
		for range 2 {
			blob := Encode(rec)
			h := fnv.New64a()
			h.Write(blob)
			if len(blob) != want.n || h.Sum64() != want.hash {
				t.Errorf("%s: Encode gave %d bytes hashing %#016x, want %d bytes hashing %#016x",
					name, len(blob), h.Sum64(), want.n, want.hash)
			}
		}
	}
}

// TestEnergyXORMatchesReference holds the word-level bit codec to the
// bit-at-a-time reference on every shape's energy stream and on XOR
// windows of every width, 57–64 bits included (a read of one starts
// mid-byte and takes a ninth byte), and on truncations into the tail.
func TestEnergyXORMatchesReference(t *testing.T) {
	streams := map[string][]float64{"aperiodic-walk": aperiodicRecord().Energy}
	for name, rec := range shapeRecords() {
		streams[name] = rec.Energy
	}
	for w := 1; w <= 64; w++ {
		// Alternate a value with one differing in a w-bit window placed
		// at every offset, so each width is written fresh and reused.
		var vals []float64
		for tz := 0; tz+w <= 64; tz += 7 {
			x := (uint64(1)<<(w-1) | 1) << tz
			vals = append(vals, 1.5, math.Float64frombits(math.Float64bits(1.5)^x))
		}
		streams[fmt.Sprintf("window-%d", w)] = vals
	}
	for name, vals := range streams {
		got, want := appendEnergyXOR(nil, vals), refAppendEnergyXOR(nil, vals)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: word-level encoding differs from the reference", name)
		}
		checkDecodeEnergy(t, name, want, len(vals))
		// Every truncation fails exactly where the reference does.
		for cut := len(want) - 1; cut >= 0 && cut >= len(want)-24; cut-- {
			checkDecodeEnergy(t, name, want[:cut], len(vals))
		}
	}
}

// checkDecodeEnergy compares decodeEnergyXOR with the reference on
// one input: the same values, the same tail and the same verdict.
func checkDecodeEnergy(t *testing.T, name string, p []byte, n int) {
	t.Helper()
	wantVals, wantTail, wantOK := refDecodeEnergyXOR(p, n)
	vals := make([]float64, n)
	tail, ok := decodeEnergyXOR(p, vals)
	if ok != wantOK {
		t.Fatalf("%s: decoding %d bytes as %d values: ok %v, reference %v", name, len(p), n, ok, wantOK)
	}
	if !ok {
		return
	}
	if !bytes.Equal(tail, wantTail) || len(tail) != len(wantTail) {
		t.Fatalf("%s: tail of %d bytes, reference %d", name, len(tail), len(wantTail))
	}
	for i := range vals {
		if math.Float64bits(vals[i]) != math.Float64bits(wantVals[i]) {
			t.Fatalf("%s: value %d is %#x, reference %#x", name, i,
				math.Float64bits(vals[i]), math.Float64bits(wantVals[i]))
		}
	}
}

// TestDecodeIssuesMatchesUvarint holds the branch-free varint path to
// binary.Uvarint: on deltas of every varint length, on non-minimal and
// overlong encodings, and on every prefix of random byte strings.
func TestDecodeIssuesMatchesUvarint(t *testing.T) {
	ref := func(p []byte, n int) ([]uint64, []byte, bool) {
		out, prev := make([]uint64, n), uint64(0)
		for i := range out {
			v, k := binary.Uvarint(p)
			if k <= 0 {
				return nil, nil, false
			}
			prev ^= v
			out[i], p = prev, p[k:]
		}
		return out, p, true
	}
	check := func(p []byte, n int) {
		t.Helper()
		want, wantTail, wantOK := ref(p, n)
		got := make([]uint64, n)
		tail, ok := decodeIssues(p, got)
		if ok != wantOK || ok && (!bytes.Equal(tail, wantTail) || len(tail) != len(wantTail)) {
			t.Fatalf("% x as %d words: ok %v tail %d, Uvarint says ok %v tail %d", p, n, ok, len(tail), wantOK, len(wantTail))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("% x: word %d is %#x, Uvarint says %#x", p, i, got[i], want[i])
			}
		}
	}
	var p []byte
	for shift := 0; shift < 64; shift++ {
		p = binary.AppendUvarint(p, 1<<shift)
		p = binary.AppendUvarint(p, 1<<shift-1)
	}
	p = append(p, 0x80, 0x00, 0xff, 0x80, 0x00) // non-minimal zero and 127
	check(p, 130)
	check(append(p, make([]byte, 8)...), 130)
	overflow := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0}
	check(overflow, 1)
	s := uint64(1)
	for range 2000 {
		b := make([]byte, 24)
		for i := range b {
			s = s*6364136223846793005 + 1442695040888963407
			b[i] = byte(s >> 56)
			if s>>40&3 == 0 {
				b[i] &= 0x7f // end varints often enough to decode several
			}
		}
		for cut := range len(b) + 1 {
			for n := 0; n <= 4; n++ {
				check(b[:cut], n)
			}
		}
	}
}

// v1Magic heads the flat record format older binaries wrote. No
// writer for it survives; tests fabricate such files as this magic
// plus arbitrary bytes.
const v1Magic = "AUDTRC1\n"

// legacyBlob fabricates a file an older binary could have left: the v1
// magic, body, and a checksum that holds, so nothing but the magic
// tells it from a v2 record.
func legacyBlob(body []byte) []byte {
	blob := append([]byte(v1Magic), body...)
	return appendU64(blob, fnv1a(blob))
}

// TestV1RecordIsAMiss: the v1 format is no longer read, so a store an
// older binary left is a cold start. Each v1 file is a miss in Decode,
// a miss in Get (which unlinks it) and refused by PutRaw; the
// recaptured record is then stored, and served, as v2.
func TestV1RecordIsAMiss(t *testing.T) {
	want := sampleRecord(64, 5)
	v2 := Encode(want)
	for name, blob := range map[string][]byte{
		"arbitrary":        append([]byte(v1Magic), bytes.Repeat([]byte{0xa5}, 300)...),
		"v2-body-v1-magic": legacyBlob(v2[len(magic2) : len(v2)-8]),
	} {
		if _, ok := Decode(blob); ok {
			t.Errorf("%s: Decode accepted a v1 blob", name)
		}
		s, err := Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		key := []byte("old key")
		p := s.path(key)
		if err := os.WriteFile(p, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(key); ok {
			t.Errorf("%s: v1 file on disk served as a hit", name)
		}
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s: Get left the v1 file on disk (stat: %v)", name, err)
		}
		if err := s.PutRaw(Addr(key), blob); err == nil {
			t.Errorf("%s: PutRaw stored a v1 blob", name)
		}
		if err := s.Put(key, want); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Get(key)
		if !ok {
			t.Fatalf("%s: miss after the recapture's Put", name)
		}
		recordsIdentical(t, name, got, want)
		if disk, err := os.ReadFile(p); err != nil || !bytes.Equal(disk, v2) {
			t.Fatalf("%s: recaptured record not stored as v2 (err %v)", name, err)
		}
	}
}

// periodicRecordHex holds v2 records that stored one verified period
// instead of the whole run (flag bit 2, head and period lengths, and the
// counters at the period boundary), as an encoder that still wrote them
// produced: the shapes "periodic-headless" and "periodic-with-head",
// and "full" as it was when sampleRecord set a periodic split.
var periodicRecordHex = map[string]string{
	"periodic-headless": "415544545243320a62616061c00358581ca0ac5b6c1798d9d8d800010000ffff" +
		"99613ed4e5b53995",
	"periodic-with-head": "415544545243320a62e10d6660e7e0e4e2e6e1e5636763656166626460e71395" +
		"51d632b41055364c4870906100832bfa1b36146ef8bcfbe077d6b2f64fc737f8" +
		"1d9fcda737c97e8318e3811bfcec0932ac8d1fc4180fdfe0674e90616dfe0016" +
		"95af68fec0f59eff697fc1dc7e3399d845ffb9d9a5f9add9b9e5b9d937e46fa8" +
		"c8e1e3966f3af07043e51b3e6efea6038fc1222be67f634ce0634e90634fe063" +
		"4cb0634ce0e34f90634ee0696868682860646664676466e487d2f2687c7b02f2" +
		"f504e401010000ffff12d3cb1c8b3e08b5",
	"periodic-full": "415544545243320a627538c8d8efa7a5ada3aba76f60a8a5ada1a9a7afa3ab15" +
		"52b782f112e31fc6654c1798ea2e312e636a646a64727065008307fc3b6ce727" +
		"ec3b78e8f8a183e70e1f3b78e8b5fc37d6860737e4641b1e44d8b1363cbe21c7" +
		"dbf020a20e2c560b117b0811fb87acee2bffff23fa076cfb621fd5e9586efcce" +
		"fd4646a74647e68d4d8e8cdec5fd07130a6ed894b1b3b61f4c28be6163c6ceda" +
		"0f12b13bf83fc1428cbf31c1a28cbd39c142ccbe31c1c28cbd1d2266f90d2c26" +
		"0f16eb4756271e69ff86e9800cdb011bbe03324c076a980ec8c81db06103b1ff" +
		"40c4ed60e27c10f1837fd0d4d7a1aa9743537f185d3d9af9ff08996f0757df00" +
		"020b58199919d9199919f9a1b43c1adf9e807c3d85faff330eb4039801010000" +
		"ffff2da1287e368fa67f",
}

// periodicBlobs decodes periodicRecordHex.
func periodicBlobs(t testing.TB) map[string][]byte {
	blobs := map[string][]byte{}
	for name, h := range periodicRecordHex {
		b, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		blobs[name] = b
	}
	return blobs
}

// headerWith returns a v2 blob of the "aperiodic" shape whose payload
// header varint i (0 is the flags word) is ORed with v.
func headerWith(i int, v uint64) []byte {
	p := encodePayload(nil, shapeRecords()["aperiodic"])
	var b []byte
	for k := range headerFields {
		x, n := binary.Uvarint(p)
		p = p[n:]
		if k == i {
			x |= v
		}
		b = binary.AppendUvarint(b, x)
	}
	return v2Frame(deflate(append(b, p...)))
}

// periodicSlots are the payload header varints that described a
// periodic record: head and period lengths, the reference and
// per-period stats blocks, and the reference and per-period retired
// counts (see headerFields).
func periodicSlots() []int {
	slots := []int{1, 2}
	for k := range 2 * statsWords {
		slots = append(slots, 4+statsWords+k)
	}
	return append(slots, 4+3*statsWords+1, 4+3*statsWords+2)
}

// TestPeriodicRecordIsAMiss: a record holding one period instead of
// the whole run cannot be replayed, so it reads as a miss and is
// recaptured. Every such record an older encoder wrote, and any blob
// that sets flag bit 2 or one of the periodic header fields, is a miss
// in Decode, refused by PutRaw, and a miss in Get and GetRaw, which
// unlink it; the recaptured record is then stored and served.
func TestPeriodicRecordIsAMiss(t *testing.T) {
	blobs := periodicBlobs(t)
	blobs["flag-bit-2"] = headerWith(0, periodicFlag)
	for _, i := range periodicSlots() {
		blobs[fmt.Sprintf("header-field-%d", i)] = headerWith(i, 1)
	}
	// The live fields beside them still decode: capture time, the end
	// stats block and the end retired count.
	for _, i := range []int{3, 4, 4 + statsWords - 1, 4 + 3*statsWords} {
		if _, ok := Decode(headerWith(i, 1)); !ok {
			t.Fatalf("live header field %d refused", i)
		}
	}
	want := sampleRecord(64, 5)
	for name, blob := range blobs {
		if _, ok := Decode(blob); ok {
			t.Errorf("%s: Decode accepted a periodic record", name)
		}
		s, err := Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		key := []byte("periodic key")
		if err := s.PutRaw(Addr(key), blob); err == nil {
			t.Errorf("%s: PutRaw stored a periodic record", name)
		}
		p := s.path(key)
		for _, get := range []func() bool{
			func() bool { _, ok := s.Get(key); return ok },
			func() bool { _, ok := s.GetRaw(Addr(key)); return ok },
		} {
			if err := os.WriteFile(p, blob, 0o644); err != nil {
				t.Fatal(err)
			}
			if get() {
				t.Errorf("%s: periodic record on disk served as a hit", name)
			}
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Errorf("%s: the miss left the periodic record on disk (stat: %v)", name, err)
			}
		}
		if err := s.Put(key, want); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Get(key)
		if !ok {
			t.Fatalf("%s: miss after the recapture's Put", name)
		}
		recordsIdentical(t, name, got, want)
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
// the shape a steady stressmark loop's trace takes. The ≥4× acceptance
// bar on real corpus traces lives in the root ratio test; this is the
// unit-level floor.
func TestV2CompressionOnPeriodicTrace(t *testing.T) {
	const n = 4096
	rec := &Record{Energy: make([]float64, n), Issues: make([]uint64, n), Done: true}
	for i := range rec.Energy {
		rec.Energy[i] = 2.5 + 0.25*float64(i%17)
		rec.Issues[i] = uint64(0b1011 << (i % 3))
	}
	v2 := len(Encode(rec))
	flat := 16 * n // the flat 16 B/cycle encoding v2 replaced
	if ratio := float64(flat) / float64(v2); ratio < 4 {
		t.Errorf("v2 compression ratio %.2f× on periodic trace (flat=%dB v2=%dB), want ≥4×",
			ratio, flat, v2)
	}
}

func BenchmarkTraceEncodeV2(b *testing.B) {
	const n = 65536
	rec := &Record{Energy: make([]float64, n), Issues: make([]uint64, n), Done: true}
	for i := range rec.Energy {
		rec.Energy[i] = 2.5 + 0.25*float64(i%23)
		rec.Issues[i] = uint64(i % 5)
	}
	blob := Encode(rec)
	b.SetBytes(int64(16 * n)) // flat 16 B/cycle bytes processed per op
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := Encode(rec)
		if dec, ok := Decode(out); !ok || len(dec.Energy) != n {
			b.Fatal("round trip failed")
		}
	}
	b.ReportMetric(float64(16*n)/float64(len(blob)), "ratio")
}

// BenchmarkTraceDecodeV2 times the warm read path: one stored search
// trace decoded into a fresh record, as a store or tier hit does.
func BenchmarkTraceDecodeV2(b *testing.B) {
	rec := aperiodicRecord()
	blob := Encode(rec)
	b.SetBytes(int64(16 * len(rec.Energy))) // record bytes produced per op
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dec, ok := Decode(blob); !ok || len(dec.Energy) != len(rec.Energy) {
			b.Fatal("decode failed")
		}
	}
}

// TestDecodeAllocs pins the steady-state cost of a decode at the
// record and its two arrays, with the DEFLATE reader and payload
// buffer coming from the pool; a validate-only decode adds nothing.
// compress/flate itself allocates overflow tables for each dynamic
// block whose codes exceed 9 bits — about 50 per call on the walk
// record, none on the small shapes — so that share is measured by
// inflating the same stream alone and not counted.
func TestDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of Puts under the race detector")
	}
	shapes := shapeRecords()
	shapes["aperiodic-walk"] = aperiodicRecord()
	src := bytes.NewReader(nil)
	zr := flate.NewReader(src)
	for name, rec := range shapes {
		blob := Encode(rec)
		inflate := testing.AllocsPerRun(20, func() {
			src.Reset(blob[len(magic2) : len(blob)-8])
			zr.(flate.Resetter).Reset(src, nil)
			io.Copy(io.Discard, zr)
		})
		if n := testing.AllocsPerRun(20, func() { Decode(blob) }) - inflate; n > 4 {
			t.Errorf("%s: Decode makes %.1f allocations per call beyond inflating, want ≤ 4", name, n)
		}
		if n := testing.AllocsPerRun(20, func() { valid(blob) }) - inflate; n > 0 {
			t.Errorf("%s: valid makes %.1f allocations per call beyond inflating, want 0", name, n)
		}
	}
}

// deflateBomb builds a v2 frame — magic, a well-formed DEFLATE stream,
// a valid FNV-1a trailer — whose payload inflates to mib MiB of zeros
// from about mib KiB of blob: a flushed stream over 1 MiB of zeros is
// byte-aligned and non-final, so copies of it concatenate.
func deflateBomb(mib int) []byte {
	var chunk bytes.Buffer
	zw, _ := flate.NewWriter(&chunk, flate.BestCompression)
	zw.Write(make([]byte, 1<<20))
	zw.Flush()
	var z []byte
	for range mib {
		z = append(z, chunk.Bytes()...)
	}
	return v2Frame(append(z, 0x03, 0x00)) // and a final empty block
}

// allocatedBy reports the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDeflateBombIsABoundedMiss: a 1 MiB blob inflating to 1 GiB,
// uploaded or dropped into a store directory, must read as a miss
// without the decoder allocating anywhere near the inflated size — nor
// even maxPayloadBytes, the most any payload may need.
func TestDeflateBombIsABoundedMiss(t *testing.T) {
	small := deflateBomb(2)
	zr := flate.NewReader(bytes.NewReader(small[len(magic2) : len(small)-8]))
	if n, err := io.Copy(io.Discard, zr); err != nil || n != 2<<20 {
		t.Fatalf("bomb construction: inflates to %d bytes (%v), want %d", n, err, 2<<20)
	}

	bomb := deflateBomb(1024)
	var ok bool
	if n := allocatedBy(func() { _, ok = Decode(bomb) }); ok || n >= maxPayloadBytes {
		t.Fatalf("Decode of a %d-byte bomb: ok=%v after allocating %d bytes, want a miss under %d",
			len(bomb), ok, n, maxPayloadBytes)
	}

	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	addr := Addr([]byte("bomb"))
	var perr error
	if n := allocatedBy(func() { perr = s.PutRaw(addr, bomb) }); perr == nil || n >= maxPayloadBytes {
		t.Fatalf("PutRaw of a bomb: err=%v after allocating %d bytes", perr, n)
	}
	p := s.addrPath(addr)
	if err := os.WriteFile(p, bomb, 0o644); err != nil {
		t.Fatal(err)
	}
	if n := allocatedBy(func() { _, ok = s.GetRaw(addr) }); ok || n >= maxPayloadBytes {
		t.Fatalf("GetRaw of a bomb on disk: ok=%v after allocating %d bytes", ok, n)
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatal("bomb left on disk after reading as corrupt")
	}

	// A file longer than any record is refused unread.
	f, err := os.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(MaxBlobBytes + 1); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if n := allocatedBy(func() { _, ok = s.GetRaw(addr) }); ok || n >= 1<<20 {
		t.Fatalf("GetRaw of an oversize file: ok=%v after allocating %d bytes", ok, n)
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatal("oversize file left on disk")
	}
}

// TestBoundsDeriveFromMaxCycles ties the decoder's limits to the
// largest legal trace: maxPayloadBytes is payloadBound(MaxCycles), a
// worst-case record fits payloadBound and the blob margin MaxBlobBytes
// allows, and a record of MaxCycles+1 cycles is refused.
func TestBoundsDeriveFromMaxCycles(t *testing.T) {
	if payloadBound(MaxCycles) != maxPayloadBytes {
		t.Fatalf("payloadBound(MaxCycles) = %d, maxPayloadBytes = %d", payloadBound(MaxCycles), maxPayloadBytes)
	}
	// The worst case: XORs alternate between windows neither of which
	// fits the other, so every value opens a fresh 63-bit one (76 bits
	// in all), and every issue delta has its top bit set (10 varint
	// bytes). payloadBound allows 77 bits, so it is tight to n/8 bytes.
	const n = 1 << 14
	rec := &Record{Energy: make([]float64, n), Issues: make([]uint64, n)}
	x, e, q := uint64(1), uint64(0), uint64(0)
	for i := range rec.Energy {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		window := uint64(1<<63 | 2) // leading zeros 0, trailing 1
		if i%2 == 1 {
			window = 1<<62 | 1 // leading zeros 1, trailing 0
		}
		e ^= x&^(1<<63|1) | window
		q ^= x | 1<<63
		rec.Energy[i], rec.Issues[i] = math.Float64frombits(e), q
	}
	payload := encodePayload(nil, rec)
	if bound := payloadBound(n); uint64(len(payload)) > bound || bound-uint64(len(payload)) > headerFields*binary.MaxVarintLen64+n/8 {
		t.Fatalf("worst-case payload of %d bytes against payloadBound %d", len(payload), bound)
	}
	if blob := Encode(rec); len(blob) > len(magic2)+len(payload)+len(payload)/1024+64+8 {
		t.Fatalf("DEFLATE grew a %d-byte payload to a %d-byte blob, past MaxBlobBytes' margin", len(payload), len(blob))
	}

	var header []byte
	for range headerFields - 2 {
		header = binary.AppendUvarint(header, 0)
	}
	header = binary.AppendUvarint(header, MaxCycles+1)
	header = binary.AppendUvarint(header, MaxCycles+1)
	if _, ok := Decode(v2Frame(deflate(header))); ok {
		t.Fatal("a header of MaxCycles+1 cycles decoded")
	}
	long := &Record{Energy: make([]float64, MaxCycles+1), Issues: make([]uint64, MaxCycles+1)}
	if err := (&Store{}).Put([]byte("k"), long); err == nil {
		t.Fatal("Put accepted a record of MaxCycles+1 cycles")
	}
}

// deflate compresses p as Encode does.
func deflate(p []byte) []byte {
	var z bytes.Buffer
	zw, _ := flate.NewWriter(&z, flate.DefaultCompression)
	zw.Write(p)
	zw.Close()
	return z.Bytes()
}

// v2Frame wraps a DEFLATE stream in the v2 magic and checksum.
func v2Frame(z []byte) []byte {
	blob := append([]byte(magic2), z...)
	return appendU64(blob, fnv1a(blob))
}

// The reference codec: the bit-at-a-time encoder and decoder the
// word-level ones replaced, kept verbatim as the oracle the goldens,
// TestEnergyXORMatchesReference and FuzzEnergyXOR hold them to.

func refAppendEnergyXOR(b []byte, vals []float64) []byte {
	w := refBitWriter{buf: b}
	if len(vals) == 0 {
		return w.buf
	}
	prev := math.Float64bits(vals[0])
	w.writeBits(prev, 64)
	prevLZ, prevTZ := -1, -1
	for _, v := range vals[1:] {
		cur := math.Float64bits(v)
		x := cur ^ prev
		prev = cur
		if x == 0 {
			w.writeBits(0, 1)
			continue
		}
		w.writeBits(1, 1)
		lz := bits.LeadingZeros64(x)
		if lz > 31 {
			lz = 31 // 5-bit header field
		}
		tz := bits.TrailingZeros64(x)
		if prevLZ >= 0 && lz >= prevLZ && tz >= prevTZ {
			w.writeBits(0, 1)
			w.writeBits(x>>uint(prevTZ), uint(64-prevLZ-prevTZ))
			continue
		}
		mlen := 64 - lz - tz
		w.writeBits(1, 1)
		w.writeBits(uint64(lz), 5)
		w.writeBits(uint64(mlen-1), 6)
		w.writeBits(x>>uint(tz), uint(mlen))
		prevLZ, prevTZ = lz, tz
	}
	w.align()
	return w.buf
}

func refDecodeEnergyXOR(p []byte, n int) ([]float64, []byte, bool) {
	vals := make([]float64, n)
	if n == 0 {
		return vals, p, true
	}
	r := refBitReader{buf: p}
	prev, ok := r.readBits(64)
	if !ok {
		return nil, nil, false
	}
	vals[0] = math.Float64frombits(prev)
	prevLZ, prevTZ := -1, -1
	for i := 1; i < n; i++ {
		ctrl, ok := r.readBits(1)
		if !ok {
			return nil, nil, false
		}
		if ctrl == 0 {
			vals[i] = math.Float64frombits(prev)
			continue
		}
		fresh, ok := r.readBits(1)
		if !ok {
			return nil, nil, false
		}
		lz, tz := prevLZ, prevTZ
		if fresh == 1 {
			h1, ok1 := r.readBits(5)
			h2, ok2 := r.readBits(6)
			if !ok1 || !ok2 {
				return nil, nil, false
			}
			lz = int(h1)
			tz = 64 - lz - (int(h2) + 1)
		}
		if lz < 0 || tz < 0 || 64-lz-tz <= 0 {
			return nil, nil, false
		}
		m, ok := r.readBits(uint(64 - lz - tz))
		if !ok {
			return nil, nil, false
		}
		prev ^= m << uint(tz)
		vals[i] = math.Float64frombits(prev)
		prevLZ, prevTZ = lz, tz
	}
	return vals, r.buf[r.pos:], true
}

type refBitWriter struct {
	buf   []byte
	cur   uint8
	nbits uint
}

func (w *refBitWriter) writeBits(v uint64, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		w.cur = w.cur<<1 | uint8((v>>uint(i))&1)
		w.nbits++
		if w.nbits == 8 {
			w.buf = append(w.buf, w.cur)
			w.cur, w.nbits = 0, 0
		}
	}
}

func (w *refBitWriter) align() {
	if w.nbits > 0 {
		w.buf = append(w.buf, w.cur<<(8-w.nbits))
		w.cur, w.nbits = 0, 0
	}
}

type refBitReader struct {
	buf   []byte
	pos   int
	cur   uint8
	nbits uint
}

func (r *refBitReader) readBits(n uint) (uint64, bool) {
	var v uint64
	for i := uint(0); i < n; i++ {
		if r.nbits == 0 {
			if r.pos >= len(r.buf) {
				return 0, false
			}
			r.cur = r.buf[r.pos]
			r.pos++
			r.nbits = 8
		}
		v = v<<1 | uint64(r.cur>>7)
		r.cur <<= 1
		r.nbits--
	}
	return v, true
}
