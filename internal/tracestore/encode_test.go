package tracestore

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/hex"
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
// (NaN payloads, infinities, negative zero, denormals), extreme issue
// words, and loops: a constant (a zero-width table index), a lag
// shorter than its copy runs, and a perturbed loop.
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
		"full":      sampleRecord(257, 42),
		"constant":  loopRecord(300, 1, 1, 0),
		"short-lag": loopRecord(200, 3, 3, 41),
		"loop":      loopRecord(3000, 97, 12, 250),
	}
	shapes["full"].CaptureNS = 9999
	return shapes
}

// loopRecord is the shape v3 is built for: n cycles of a loop body of
// the given period over an alphabet of pairs, every perturb-th cycle
// (none if 0) swapped for a pair outside the loop. Cycles then repeat
// the cycle one period back, in copy runs both shorter and longer than
// the period, between short literal runs.
func loopRecord(n, period, alphabet, perturb int) *Record {
	rec := &Record{Energy: make([]float64, n), Issues: make([]uint64, n), Done: true}
	for i := range rec.Energy {
		a := i % period * 7 % alphabet
		if perturb > 0 && i%perturb == perturb-1 {
			a = alphabet + i%3
		}
		rec.Energy[i] = 1500 + 37.25*float64(a)
		rec.Issues[i] = uint64(a%4+1) * 0x0001_0101
	}
	return rec
}

// searchRecord mimics the records a search stores (22k cycles, a table
// of about 500 pairs, four cycles in five equal to the one 612 back, in
// some 3,500 runs), for the benchmarks.
func searchRecord() *Record {
	const n, period = 22_000, 612
	rec := &Record{Energy: make([]float64, n), Issues: make([]uint64, n), Done: true, EndRetired: 61_234}
	s := uint64(0x9e3779b97f4a7c15)
	for i := range rec.Energy {
		s = s*6364136223846793005 + 1442695040888963407 // 64-bit LCG
		if i >= period && s>>40%5 != 0 {
			rec.Energy[i], rec.Issues[i] = rec.Energy[i-period], rec.Issues[i-period]
			continue
		}
		p := s >> 20 % 500
		rec.Energy[i], rec.Issues[i] = 1500+0.375*float64(p), p*0x0101
	}
	return rec
}

// aperiodicRecord is a trace with no period at all: 23k cycles whose
// per-cycle energy follows a random walk of per-unit issue counts, with
// supply noise off the grid now and then. Its table holds 4,436 pairs
// and most of its cycles are literals, so its blob (98 KiB) is five
// times a search record's.
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

func TestV3RoundTripAllShapes(t *testing.T) {
	shapes := shapeRecords()
	shapes["aperiodic-walk"] = aperiodicRecord()
	shapes["search"] = searchRecord()
	for name, want := range shapes {
		blob := Encode(want)
		if !bytes.HasPrefix(blob, []byte(magic3)) {
			t.Fatalf("%s: Encode did not emit a v3 record", name)
		}
		got, ok := Decode(blob)
		if !ok || !valid(blob) {
			t.Fatalf("%s: v3 blob failed to decode", name)
		}
		recordsIdentical(t, name, got, want)
		// Determinism: same record, same bytes.
		if !bytes.Equal(blob, Encode(want)) {
			t.Errorf("%s: Encode is nondeterministic", name)
		}
	}
}

// encodeGolden pins the v3 format: the length and FNV-1a hash of
// Encode's output for every shape. Stores on disk and the /v1/trace
// wire depend on these bytes never moving.
var encodeGolden = map[string]struct {
	n    int
	hash uint64
}{
	"aperiodic":      {113, 0xcde6256cd95d4c5a},
	"aperiodic-walk": {99922, 0x9f43ce6d5c83e01f},
	"capture-ns":     {52, 0x7a5ff91c60cd8bdd},
	"constant":       {49, 0x643ef80c2553f54b},
	"empty":          {30, 0x0447810039ca22a3},
	"float-zoo":      {198, 0xec2a48669ae65c1f},
	"full":           {4437, 0xc6f2dfeb1930ebc5},
	"loop":           {390, 0x3085531c7a2a2540},
	"search":         {19712, 0x1c080ccc2286ee00},
	"short-lag":      {145, 0x647ee71b42a4bd19},
	"single-cycle":   {47, 0x49b711d996f11e9c},
	"unsupported":    {30, 0x5dca07174a90f89c},
}

func TestEncodeGolden(t *testing.T) {
	shapes := shapeRecords()
	shapes["aperiodic-walk"] = aperiodicRecord()
	shapes["search"] = searchRecord()
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

// TestEncodeChoosesLag checks the lag vote on records whose best lag is
// known: a loop's period, up to MaxLag, and not a multiple of it; and
// no lag where nothing repeats within MaxLag, or where a literal costs
// no bits.
func TestEncodeChoosesLag(t *testing.T) {
	for _, c := range []struct {
		name string
		rec  *Record
		lag  int
	}{
		{"loop", loopRecord(3000, 97, 12, 250), 97},
		{"short-lag", loopRecord(200, 3, 3, 41), 3},
		{"period-4096", loopRecord(3*MaxLag, MaxLag, MaxLag+3, 0), MaxLag},
		{"period-past-MaxLag", loopRecord(3*MaxLag, MaxLag+1, MaxLag+3, 0), 0},
		{"no-repeats", sampleRecord(500, 1), 0},
		{"constant", loopRecord(300, 1, 1, 0), 0}, // one pair: a literal costs no bits
	} {
		var f frame
		if !f.parse(Encode(c.rec)) {
			t.Fatalf("%s: blob does not parse", c.name)
		}
		if f.lag != c.lag {
			t.Errorf("%s: lag %d, want %d", c.name, f.lag, c.lag)
		}
	}
}

// v1Magic heads the flat record format older binaries wrote. No
// writer for it survives; tests fabricate such files as this magic
// plus arbitrary bytes.
const v1Magic = "AUDTRC1\n"

// legacyBlob fabricates a file an older binary could have left: the v1
// magic, body, and a checksum that holds, so nothing but the magic
// tells it from a v3 record.
func legacyBlob(body []byte) []byte {
	blob := append([]byte(v1Magic), body...)
	return appendU64(blob, fnv1a(blob))
}

// v2RecordHex holds the v2 records (magic "AUDTRC2\n", a DEFLATE
// stream over XOR-compressed energies and varint issue deltas, an
// FNV-1a trailer) the previous encoder wrote for shapeRecords' shapes.
var v2RecordHex = map[string]string{
	"aperiodic": "415544545243320a6264c00b5859edbf405889faff3fcc64b0513bc0c6c0c8c0" +
		"d6ded0d0d0a000080000ffffc5ad577e54728ca3",
	"capture-ns": "415544545243320a62606098b2e5c997d3cc0cb8011393fd0728939101100000" +
		"ffffa05c721681c5b30d",
	"empty": "415544545243320a62200400010000ffff07d217ce65e8a432",
	"float-zoo": "415544545243320a62c00f787961ac03ec8cf5ff1dd8f81f3099afcedf7d8021" +
		"8181f7d5ed771f1838ff3f00cb33354015eefffd1f0c96ff83d02ffe1f008bb3" +
		"a0180c080000ffff9d24cf5941daff4e",
	"full": "415544545243320a626460e8f7d3d2d6d1d5d33730644003750c0c8d4c8d4c0e" +
		"ae10ee03fe1db6f313f61d3c74fcd0c173878f1d3cf45afe1b6bc3831b72b20d" +
		"0f22ec581b1edf90e36d7810510716ab85883d8488fd4356f795ffff11fd03b6" +
		"7db18fea742c377ee77e23a353a323f3c6264746efe2fe830905376ccad859db" +
		"0f2614dfb0316367ed0789d81dfc9f6021c6df986051c6de9c602166df986061" +
		"c6de0e11b3fc061693078bf523ab138fb47fc3744086ed800ddf0119a603354c" +
		"0764e40ed8b081d87f20e27630713e88f8c13f68eaeb50d5cba1a93f8cae1ecd" +
		"fc7f84ccb783ab6f008105ac8ccc8cec8ccc8cfc505a1e8d6f4f40be9e42fdff" +
		"1907da01cc80000000ffff65945bfc0c28b9fc",
	"single-cycle": "415544545243320a62c00f1819eb3f4058ff618011100000ffff0d4546eeea8c" +
		"fcc5",
	"unsupported": "415544545243320a6266200000010000ffff0dee86fc8cff5622",
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

// hexBlobs decodes a map of hex blobs.
func hexBlobs(t testing.TB, hexes map[string]string) map[string][]byte {
	blobs := map[string][]byte{}
	for name, h := range hexes {
		b, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		blobs[name] = b
	}
	return blobs
}

// checkIsAMiss holds a blob the store must refuse, such as one of a
// retired format, to the store's contract for one: a miss in Decode
// and valid, refused by PutRaw, a miss in Get and in GetRaw, which
// unlink it, and the recaptured record is then stored and served as
// v3.
func checkIsAMiss(t *testing.T, name string, blob []byte) {
	t.Helper()
	if _, ok := Decode(blob); ok || valid(blob) {
		t.Errorf("%s: Decode or valid accepted it", name)
	}
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("old key")
	if err := s.PutRaw(keyAddr(key), blob); err == nil {
		t.Errorf("%s: PutRaw stored it", name)
	}
	p := s.addrPath(keyAddr(key))
	for _, get := range []func() bool{
		func() bool { _, ok := s.Get(keyAddr(key)); return ok },
		func() bool { _, ok := s.GetRaw(keyAddr(key)); return ok },
	} {
		if err := os.WriteFile(p, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if get() {
			t.Errorf("%s: served as a hit from disk", name)
		}
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s: the miss left the file on disk (stat: %v)", name, err)
		}
	}
	want := sampleRecord(64, 5)
	if _, err := s.Put(keyAddr(key), want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(keyAddr(key))
	if !ok {
		t.Fatalf("%s: miss after the recapture's Put", name)
	}
	recordsIdentical(t, name, got.record(), want)
	if disk, err := os.ReadFile(p); err != nil || !bytes.Equal(disk, Encode(want)) {
		t.Fatalf("%s: recaptured record not stored as v3 (err %v)", name, err)
	}
}

// TestV1RecordIsAMiss: the v1 format is no longer read, so a store an
// older binary left is a cold start.
func TestV1RecordIsAMiss(t *testing.T) {
	v3 := Encode(sampleRecord(64, 5))
	checkIsAMiss(t, "arbitrary", append([]byte(v1Magic), bytes.Repeat([]byte{0xa5}, 300)...))
	checkIsAMiss(t, "v3-body-v1-magic", legacyBlob(v3[len(magic3):len(v3)-8]))
}

// TestV2RecordIsAMiss: nor is v2, so a store the previous binary left
// is a cold start too, whose records are recaptured as v3.
func TestV2RecordIsAMiss(t *testing.T) {
	blobs := hexBlobs(t, v2RecordHex)
	if len(blobs) != 7 {
		t.Fatalf("%d v2 records, want 7", len(blobs))
	}
	for name, blob := range blobs {
		checkIsAMiss(t, name, blob)
	}
}

// TestPeriodicRecordIsAMiss: a record holding one period instead of
// the whole run cannot be replayed; every such record an older encoder
// wrote reads as a miss and is recaptured.
func TestPeriodicRecordIsAMiss(t *testing.T) {
	for name, blob := range hexBlobs(t, periodicRecordHex) {
		checkIsAMiss(t, name, blob)
	}
}

// reframe returns blob with its checksum recomputed, so a change to its
// body reaches the structural checks.
func reframe(blob []byte) []byte {
	if len(blob) < 8 {
		return blob
	}
	body := append([]byte(nil), blob[:len(blob)-8]...)
	return appendU64(body, fnv1a(body))
}

// checkAccepted holds a blob Decode accepts to what replay needs:
// Energy and Issues equally long, and a record that survives
// re-encoding unchanged.
func checkAccepted(t *testing.T, rec *Record) {
	t.Helper()
	if len(rec.Energy) != len(rec.Issues) {
		t.Fatalf("accepted %d energy values with %d issue words", len(rec.Energy), len(rec.Issues))
	}
	again, ok := Decode(Encode(rec))
	if !ok {
		t.Fatal("re-encoded record failed to decode")
	}
	if !recordsEqual(again, rec) || again.CaptureNS != rec.CaptureNS {
		t.Fatal("record changed across Encode/Decode")
	}
}

// TestV3CorruptionIsAMiss hammers a v3 blob: every bit flip and every
// truncation must decode as a miss, never a wrong record or a panic,
// and a Store must unlink the damaged file. Every byte changed behind
// a recomputed checksum must still never panic, and what it decodes to
// must be replayable.
func TestV3CorruptionIsAMiss(t *testing.T) {
	rec := loopRecord(600, 37, 9, 50)
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
	for i := len(magic3); i < len(pristine)-8; i++ {
		for _, x := range []byte{0x01, 0x80, 0xff} {
			blob := append([]byte(nil), pristine...)
			blob[i] ^= x
			blob = reframe(blob)
			got, ok := Decode(blob)
			if ok != valid(blob) {
				t.Fatalf("byte %d ^ %#x: Decode says %v, valid %v", i, x, ok, !ok)
			}
			if ok {
				checkAccepted(t, got)
			}
		}
	}

	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("k")
	if _, err := s.Put(keyAddr(key), rec); err != nil {
		t.Fatal(err)
	}
	p := s.addrPath(keyAddr(key))
	if err := os.WriteFile(p, pristine[:len(pristine)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(keyAddr(key)); ok {
		t.Fatal("truncated v3 record served as a hit")
	}
	if _, err := os.Stat(p); err == nil {
		t.Fatal("truncated v3 record left on disk")
	}
}

// blobV3 assembles a v3 blob, checksum included, from a header and the
// sections after it, with every other header field zero.
func blobV3(flags, n, k, lag uint64, table []uint64, runs []uint64, lits []byte) []byte {
	b := binary.AppendUvarint([]byte(magic3), flags)
	for range 1 + statsWords + 1 {
		b = append(b, 0)
	}
	for _, v := range []uint64{n, k, lag} {
		b = binary.AppendUvarint(b, v)
	}
	for _, v := range table {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	for _, v := range runs {
		b = binary.AppendUvarint(b, v)
	}
	b = append(b, lits...)
	return appendU64(b, fnv1a(b))
}

// TestDecodeRefusesMalformed breaks each structural rule of a small,
// well-formed v3 blob behind a valid checksum: Decode and valid refuse
// every one without panicking.
func TestDecodeRefusesMalformed(t *testing.T) {
	// Three pairs (2-bit literals) and cycles 0 1 | 0 1 0 | 2: two
	// literals, a copy of three at lag 2, and a literal.
	table := []uint64{
		math.Float64bits(1.5), 7,
		math.Float64bits(-0.0), 8,
		math.Float64bits(math.Inf(1)), 9,
	}
	lits := []byte{0b10_01_00}
	good := blobV3(0, 6, 3, 2, table, []uint64{2, 3, 1}, lits)
	rec, ok := Decode(good)
	if !ok {
		t.Fatal("the well-formed blob does not decode")
	}
	want := []uint64{7, 8, 7, 8, 7, 9}
	for i, q := range rec.Issues {
		if q != want[i] || math.Float64bits(rec.Energy[i]) != table[2*(q-7)] {
			t.Fatalf("cycle %d decoded to (%v, %d), want pair %d", i, rec.Energy[i], q, want[i]-7)
		}
	}
	header := good[:len(good)-8-3*pairBytes-4]
	for name, blob := range map[string][]byte{
		"unknown flag":             blobV3(4, 6, 3, 2, table, []uint64{2, 3, 1}, lits),
		"cycles past MaxCycles":    blobV3(0, MaxCycles+1, 3, 2, table, []uint64{2, 3, MaxCycles - 4}, lits),
		"more pairs than cycles":   blobV3(0, 2, 3, 0, table, []uint64{2}, lits[:1]),
		"cycles with no pairs":     blobV3(0, 6, 0, 0, nil, []uint64{6}, nil),
		"pairs with no cycles":     blobV3(0, 0, 1, 0, table[:2], nil, nil),
		"lag past MaxLag":          blobV3(0, 6, 3, MaxLag+1, table, []uint64{2, 3, 1}, lits),
		"table past the blob":      blobV3(0, 6, 3, 2, table[:4], nil, nil),
		"runs short of n":          blobV3(0, 6, 3, 2, table, []uint64{2, 3}, []byte{0b01_00}),
		"runs past n":              blobV3(0, 6, 3, 2, table, []uint64{2, 3, 2}, []byte{0b10_10_01_00}),
		"empty run":                blobV3(0, 6, 3, 2, table, []uint64{2, 0, 4}, []byte{0b0, 0b0}),
		"copy before cycle 0":      blobV3(0, 6, 3, 3, table, []uint64{2, 3, 1}, lits),
		"copy with no lag":         blobV3(0, 6, 3, 0, table, []uint64{2, 3, 1}, lits),
		"lag with no copy":         blobV3(0, 2, 2, 1, table[:4], []uint64{2}, []byte{0b10}),
		"literal past the table":   blobV3(0, 6, 3, 2, table, []uint64{2, 3, 1}, []byte{0b11_01_00}),
		"literals short":           blobV3(0, 6, 3, 2, table, []uint64{2, 3, 1}, nil),
		"literals long":            blobV3(0, 6, 3, 2, table, []uint64{2, 3, 1}, []byte{0b10_01_00, 0}),
		"nonzero padding":          blobV3(0, 6, 3, 2, table, []uint64{2, 3, 1}, []byte{0b1_10_01_00}),
		"truncated header":         appendU64(append([]byte(nil), header[:12]...), fnv1a(header[:12])),
		"no checksum":              good[:len(good)-8],
		"mismatched record":        Encode(mismatchedRecords()["issues-missing"]),
		"mismatched, empty energy": Encode(&Record{Issues: []uint64{1, 2}}),
	} {
		if _, ok := Decode(blob); ok {
			t.Errorf("%s: Decode accepted it", name)
		}
		if valid(blob) {
			t.Errorf("%s: valid accepted it", name)
		}
	}
}

// TestLiteralOrderRule: an accepted blob's literals index its table in
// order of first appearance, the order Encode writes. Literals that
// skip an index, or that leave a table entry unreferenced, make a blob
// every reader refuses, though each literal indexes the table and the
// blob is otherwise the well-formed one of TestDecodeRefusesMalformed.
func TestLiteralOrderRule(t *testing.T) {
	table := []uint64{
		math.Float64bits(1.5), 7,
		math.Float64bits(-0.0), 8,
		math.Float64bits(math.Inf(1)), 9,
	}
	// Three 2-bit literals around a copy of three cycles at lag 2.
	lits := func(a, b, c byte) []byte { return []byte{c<<4 | b<<2 | a} }
	if _, ok := Decode(blobV3(0, 6, 3, 2, table, []uint64{2, 3, 1}, lits(0, 1, 2))); !ok {
		t.Fatal("the blob in first-appearance order does not decode")
	}
	for name, blob := range map[string][]byte{
		"skips an index":        blobV3(0, 6, 3, 2, table, []uint64{2, 3, 1}, lits(0, 2, 1)),
		"starts past 0":         blobV3(0, 6, 3, 2, table, []uint64{2, 3, 1}, lits(1, 0, 2)),
		"unreferenced entry":    blobV3(0, 6, 3, 2, table, []uint64{2, 3, 1}, lits(0, 1, 0)),
		"unreferenced, no copy": blobV3(0, 3, 3, 0, table, []uint64{3}, lits(0, 1, 1)),
	} {
		checkIsAMiss(t, name, blob)
	}
	// Every record Encode writes obeys the rule.
	shapes := shapeRecords()
	shapes["aperiodic-walk"] = aperiodicRecord()
	shapes["search"] = searchRecord()
	for name, rec := range shapes {
		if !valid(Encode(rec)) {
			t.Errorf("%s: Encode wrote a blob out of first-appearance order", name)
		}
	}
}

// maxSpan is the longest span the window tests decode, the testbed's
// chunk.
const maxSpan = 4096

// spanPicker returns a sequence of window spans drawn from seed: 4,096
// spans, spans of any length from 1 to 4,096, short ones, ones shorter
// than the lag, and empty ones.
func spanPicker(seed uint64, lag int) func() int {
	return func() int {
		seed = seed*6364136223846793005 + 1442695040888963407 // 64-bit LCG
		r := int(seed >> 33)
		switch r % 6 {
		case 0:
			return maxSpan
		case 1:
			return 1 + r>>3%maxSpan
		case 2:
			return 1 + r>>3%16
		case 3:
			return 1 + r>>3%max(lag-1, 1)
		case 4:
			return 0
		default:
			return 1 + r>>3%512
		}
	}
}

// streamAll decodes e through one window of e.Lag()+maxSpan cycles,
// in the spans next picks, and returns the cycles the spans returned,
// end to end. It fails t if a span returns other than as many cycles
// as it asked for, or as are left, if Next writes past the window, or
// if a drained Stream returns a cycle.
func streamAll(t testing.TB, e *Encoded, next func() int) ([]float64, []uint64) {
	t.Helper()
	const spare = 3
	lag := e.Lag()
	win := lag + maxSpan
	energy, issues := make([]float64, win+spare), make([]uint64, win+spare)
	for i := range energy {
		energy[i] = math.Float64frombits(0x7ff4_dead_0000_0000 | uint64(i))
		issues[i] = ^uint64(i)
	}
	var outE []float64
	var outQ []uint64
	s := e.Stream()
	for left := e.Cycles(); left > 0; {
		span := next()
		es, qs := s.Next(energy[:win], issues[:win], span)
		if len(es) != min(span, left) || len(qs) != len(es) {
			t.Fatalf("a span of %d with %d cycles left returned %d and %d", span, left, len(es), len(qs))
		}
		outE, outQ = append(outE, es...), append(outQ, qs...)
		left -= len(es)
	}
	if es, qs := s.Next(energy[:win], issues[:win], maxSpan); len(es) != 0 || len(qs) != 0 {
		t.Fatalf("a drained Stream returned %d cycles", len(es))
	}
	for i := win; i < len(energy); i++ {
		if math.Float64bits(energy[i]) != 0x7ff4_dead_0000_0000|uint64(i) || issues[i] != ^uint64(i) {
			t.Fatalf("Next wrote cycle %d of a %d-cycle window", i, win)
		}
	}
	return outE, outQ
}

// checkStream holds e's windowed decode in next's spans to rec bit for
// bit.
func checkStream(t testing.TB, e *Encoded, rec *Record, next func() int) {
	t.Helper()
	energy, issues := streamAll(t, e, next)
	if len(energy) != len(rec.Energy) {
		t.Fatalf("streamed %d cycles, want %d", len(energy), len(rec.Energy))
	}
	for i := range energy {
		if math.Float64bits(energy[i]) != math.Float64bits(rec.Energy[i]) || issues[i] != rec.Issues[i] {
			t.Fatalf("cycle %d of %d (lag %d): streamed (%x, %x), want (%x, %x)", i, len(energy), e.Lag(),
				math.Float64bits(energy[i]), issues[i], math.Float64bits(rec.Energy[i]), rec.Issues[i])
		}
	}
}

// TestStreamMatchesDecode decodes every shape and the search-shaped
// record through a window in span sequences: whole 4,096-cycle spans
// with a partial last one, spans of one cycle, spans one shorter than
// the lag, and random sequences of every length from 0 to 4,096. Each
// equals Decode bit for bit.
func TestStreamMatchesDecode(t *testing.T) {
	shapes := shapeRecords()
	shapes["aperiodic-walk"] = aperiodicRecord()
	shapes["search"] = searchRecord()
	shapes["period-4096"] = loopRecord(3*MaxLag+123, MaxLag, MaxLag+3, 0)
	for name, rec := range shapes {
		blob := Encode(rec)
		want, ok := Decode(blob)
		e, eok := parseEncoded(blob)
		if !ok || !eok {
			t.Fatalf("%s: does not decode", name)
		}
		lag := e.Lag()
		fixed := func(n int) func() int { return func() int { return n } }
		for _, span := range []int{maxSpan, 1, max(lag-1, 1), min(lag+1, maxSpan), 97} {
			checkStream(t, e, want, fixed(span))
		}
		for seed := range uint64(16) {
			checkStream(t, e, want, spanPicker(seed, lag))
		}
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
	if _, err := s.Put(keyAddr(key), rec); err != nil {
		t.Fatal(err)
	}
	addr := keyAddr(key)
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
	got, ok := s2.Get(keyAddr(key))
	if !ok {
		t.Fatal("miss after PutRaw")
	}
	recordsIdentical(t, "raw", got.record(), rec)

	// Hostile inputs: bad addresses, for every entry point, and
	// undecodable blobs are rejected before touching the filesystem.
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
		if enc, err := s2.Put(bad, rec); err == nil || enc != nil {
			t.Errorf("Put accepted address %q", bad)
		}
		if _, ok := s2.Get(bad); ok {
			t.Errorf("Get served address %q", bad)
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
		if enc, err := s2.Put(keyAddr([]byte(name)), rec); err == nil || enc != nil {
			t.Errorf("Put accepted mismatched record %s", name)
		}
		if _, ok := s2.GetRaw(keyAddr([]byte(name))); ok {
			t.Errorf("Put wrote mismatched record %s", name)
		}
	}
	if err := s2.PutRaw(addr, nil); err == nil {
		t.Error("PutRaw accepted an empty blob")
	}
}

// TestV3CompressionOnPeriodicTrace checks the codec pulls its weight on
// the workload it was built for: a long repetitive per-cycle stream,
// the shape a steady stressmark loop's trace takes. The ≥4× acceptance
// bar on real corpus traces lives in the root ratio test; this is the
// unit-level floor.
func TestV3CompressionOnPeriodicTrace(t *testing.T) {
	const n = 4096
	rec := &Record{Energy: make([]float64, n), Issues: make([]uint64, n), Done: true}
	for i := range rec.Energy {
		rec.Energy[i] = 2.5 + 0.25*float64(i%17)
		rec.Issues[i] = uint64(0b1011 << (i % 3))
	}
	v3 := len(Encode(rec))
	flat := 16 * n // the flat 16 B/cycle encoding v1 stored
	if ratio := float64(flat) / float64(v3); ratio < 4 {
		t.Errorf("v3 compression ratio %.2f× on periodic trace (flat=%dB v3=%dB), want ≥4×",
			ratio, flat, v3)
	}
}

func BenchmarkTraceEncodeV3(b *testing.B) {
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

// BenchmarkTraceDecodeV3 times Decode: one stored search trace decoded
// into a fresh record, as a tier hit does.
func BenchmarkTraceDecodeV3(b *testing.B) {
	rec := searchRecord()
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

// BenchmarkTraceStream times what a replay of a stored search trace
// pays for its cycles: the whole record streamed through one window in
// the replay's 4,096-cycle spans. The view was checked once, when the
// store read it.
func BenchmarkTraceStream(b *testing.B) {
	rec := searchRecord()
	enc, ok := parseEncoded(Encode(rec))
	if !ok {
		b.Fatal("search record does not decode")
	}
	win := enc.Lag() + maxSpan
	energy, issues := make([]float64, win), make([]uint64, win)
	b.SetBytes(int64(16 * len(rec.Energy))) // record bytes produced per op
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := enc.Stream()
		for es, _ := s.Next(energy, issues, maxSpan); len(es) > 0; es, _ = s.Next(energy, issues, maxSpan) {
		}
	}
}

// BenchmarkStoreGet times a store hit on the search-shaped record: the
// file read and every check Decode makes, which yield the view a
// replay streams.
func BenchmarkStoreGet(b *testing.B) {
	s, err := Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	addr := keyAddr([]byte("search"))
	enc, err := s.Put(addr, searchRecord())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(enc.Size())) // record bytes read per op
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(addr); !ok {
			b.Fatal("miss")
		}
	}
}

// TestDecodeAllocs pins the steady-state cost of a decode at the
// record and its two arrays, and of a validation and a span a Stream
// decodes into its caller's window at nothing: all read the table and
// literals in place.
func TestDecodeAllocs(t *testing.T) {
	shapes := shapeRecords()
	shapes["aperiodic-walk"] = aperiodicRecord()
	shapes["search"] = searchRecord()
	for name, rec := range shapes {
		blob := Encode(rec)
		if n := testing.AllocsPerRun(20, func() { Decode(blob) }); n > 3 {
			t.Errorf("%s: Decode makes %.1f allocations per call, want ≤ 3", name, n)
		}
		if n := testing.AllocsPerRun(20, func() { valid(blob) }); n > 0 {
			t.Errorf("%s: valid makes %.1f allocations per call, want 0", name, n)
		}
		enc, ok := parseEncoded(blob)
		if !ok {
			t.Fatalf("%s: no view of its own blob", name)
		}
		win := enc.Lag() + maxSpan
		energy, issues := make([]float64, win), make([]uint64, win)
		st := enc.Stream()
		if n := testing.AllocsPerRun(20, func() {
			s := st
			s.Next(energy, issues, maxSpan)
			s.Next(energy, issues, maxSpan)
		}); n > 0 {
			t.Errorf("%s: a Stream's span makes %.1f allocations, want 0", name, n)
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
	blob := []byte("AUDTRC2\n")
	for range mib {
		blob = append(blob, chunk.Bytes()...)
	}
	blob = append(blob, 0x03, 0x00) // and a final empty block
	return appendU64(blob, fnv1a(blob))
}

// allocatedBy reports the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDeflateBombIsABoundedMiss: a v2 blob of 1 MiB inflating to 1
// GiB, uploaded or dropped into a store directory by an older binary,
// reads as a miss without being inflated; a v3 header that declares
// MaxCycles cycles its runs do not cover is refused before the arrays
// are allocated; and a file longer than any record is refused unread.
func TestDeflateBombIsABoundedMiss(t *testing.T) {
	small := deflateBomb(2)
	zr := flate.NewReader(bytes.NewReader(small[8 : len(small)-8]))
	if n, err := io.Copy(io.Discard, zr); err != nil || n != 2<<20 {
		t.Fatalf("bomb construction: inflates to %d bytes (%v), want %d", n, err, 2<<20)
	}
	bomb := deflateBomb(1024)
	short := blobV3(0, MaxCycles, 1, 1, []uint64{0, 0}, []uint64{1, MaxCycles - 2}, nil)
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	addr := keyAddr([]byte("bomb"))
	p := s.addrPath(addr)
	for name, blob := range map[string][]byte{"deflate bomb": bomb, "short runs": short} {
		var ok bool
		if n := allocatedBy(func() { _, ok = Decode(blob) }); ok || n >= 1<<20 {
			t.Fatalf("%s: Decode of %d bytes: ok=%v after allocating %d bytes", name, len(blob), ok, n)
		}
		var perr error
		if n := allocatedBy(func() { perr = s.PutRaw(addr, blob) }); perr == nil || n >= 1<<20 {
			t.Fatalf("%s: PutRaw: err=%v after allocating %d bytes", name, perr, n)
		}
		if err := os.WriteFile(p, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		// GetRaw reads the file whole, and no more.
		if n := allocatedBy(func() { _, ok = s.GetRaw(addr) }); ok || n >= uint64(len(blob))+1<<20 {
			t.Fatalf("%s: GetRaw on disk: ok=%v after allocating %d bytes", name, ok, n)
		}
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("%s: left on disk after reading as corrupt", name)
		}
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
	var ok bool
	if n := allocatedBy(func() { _, ok = s.GetRaw(addr) }); ok || n >= 1<<20 {
		t.Fatalf("GetRaw of an oversize file: ok=%v after allocating %d bytes", ok, n)
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatal("oversize file left on disk")
	}
}

// blobBound is the longest blob Encode emits for a record of n cycles:
// one with n distinct pairs (see MaxBlobBytes).
func blobBound(n int) int {
	return len(magic3) + headerFields*binary.MaxVarintLen64 + pairBytes*n +
		binary.MaxVarintLen64 + (int(indexBits(uint64(n)))*n+7)/8 + 8
}

// TestBoundsDeriveFromMaxCycles ties the decoder's limits to the
// largest legal trace: MaxBlobBytes is blobBound(MaxCycles), a
// worst-case record of n distinct pairs fits blobBound(n), and a
// header of MaxCycles+1 cycles is refused, as is a Put of that many.
func TestBoundsDeriveFromMaxCycles(t *testing.T) {
	if blobBound(MaxCycles) != MaxBlobBytes {
		t.Fatalf("blobBound(MaxCycles) = %d, MaxBlobBytes = %d", blobBound(MaxCycles), MaxBlobBytes)
	}
	if indexBits(MaxCycles) != maxIndexBits || bits.Len(MaxCycles-1) != maxIndexBits {
		t.Fatalf("maxIndexBits %d, but a table of MaxCycles pairs needs %d-bit literals", maxIndexBits, indexBits(MaxCycles))
	}
	// The worst case: every cycle a new pair. The bound is tight to the
	// header's and the run length's unused varint bytes.
	const n = 1 << 14
	rec := &Record{Energy: make([]float64, n), Issues: make([]uint64, n)}
	for i := range rec.Energy {
		rec.Energy[i], rec.Issues[i] = float64(i), math.MaxUint64-uint64(i)
	}
	if blob := Encode(rec); len(blob) > blobBound(n) || blobBound(n)-len(blob) > (headerFields+1)*binary.MaxVarintLen64 {
		t.Fatalf("worst-case blob of %d bytes against blobBound %d", len(blob), blobBound(n))
	}
	// Repeats only shorten it.
	for i := 0; i < n; i += 3 {
		rec.Energy[i], rec.Issues[i] = 0, math.MaxUint64
	}
	if blob := Encode(rec); len(blob) > blobBound(n) {
		t.Fatalf("blob of %d bytes past blobBound %d", len(blob), blobBound(n))
	}

	if _, ok := Decode(blobV3(0, MaxCycles+1, 1, 0, []uint64{0, 0}, []uint64{MaxCycles + 1}, nil)); ok {
		t.Fatal("a header of MaxCycles+1 cycles decoded")
	}
	long := &Record{Energy: make([]float64, MaxCycles+1), Issues: make([]uint64, MaxCycles+1)}
	if _, err := (&Store{}).Put(keyAddr([]byte("k")), long); err == nil {
		t.Fatal("Put accepted a record of MaxCycles+1 cycles")
	}
}
