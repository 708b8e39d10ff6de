package tracestore

// This file is the v2 record codec (magic "AUDTRC2\n"), the store's
// canonical encoding since the distributed trace tier: the same bytes
// live on disk and travel over /v1/trace, so compressing them shrinks
// both the store's footprint and the coordinator↔worker wire traffic.
//
// Layout: magic, then a DEFLATE stream over a compact payload, then a
// trailing FNV-1a checksum over everything before it. The payload
// packs the per-cycle Energy float64 stream with Gorilla-style XOR
// compression (periodic stressmark traces repeat values cycle to
// cycle, so most XORs are zero or narrow) and the packed Issues words
// as varint XOR deltas; headers and counters are varints. The outer
// flate layer then squeezes the cross-cycle structure the per-value
// stages cannot see (a loop body's XOR pattern recurring every
// period).
//
// v2 is the only format read. A blob under any other magic — the flat
// v1 records older binaries wrote, or a future version — is a miss, as
// is a corrupt or truncated blob (it fails the checksum or a
// structural check): the store is a cache, so a stale record costs one
// recapture.
//
// The codec runs at memory speed: bits move a 64-bit word at a time,
// and the DEFLATE state (about 1 MB per writer) and the payload
// buffers come from pools instead of being rebuilt per record. Neither
// changes a byte of the format.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
	"math"
	"math/bits"
	"sync"
)

// magic2 identifies the v2 compressed record format.
const magic2 = "AUDTRC2\n"

// MaxCycles is the longest trace a record may hold; Decode refuses a
// longer one and Put will not write it. It is the testbed's replay
// limit (16 bytes per cycle keeps the largest trace at 64 MiB), and
// the bounds below, which stop an outside blob from ballooning memory,
// derive from it.
const MaxCycles = 4 << 20

// headerFields is the number of varints in a v2 payload header:
// flags, head and period lengths, capture time, three stats blocks,
// three retired counters, and the two array lengths.
const headerFields = 4 + 3*statsWords + 3 + 2

// maxPayloadBytes is payloadBound(MaxCycles), 78.5 MiB: the most
// inflated payload any decoder will buffer.
const maxPayloadBytes = headerFields*binary.MaxVarintLen64 + (64+77*(MaxCycles-1)+7)/8 + binary.MaxVarintLen64*MaxCycles

// MaxBlobBytes bounds an encoded record of at most MaxCycles cycles: a
// v2 frame around a payload DEFLATE could not shrink (its stored
// blocks add 5 bytes per 64 KiB; the margin here is generous) is the
// worst case. Nothing longer can be a record, so readers of store files
// and trace-tier bodies stop there.
const MaxBlobBytes = 8 /* magic */ + maxPayloadBytes + maxPayloadBytes/1024 + 64 + 8 /* checksum */

// payloadBound is the longest v2 payload a record of n cycles can
// have: the header, 64 bits for the first energy value and at most 77
// for each later one (control and window bits, the 5+6-bit window
// header, up to 64 meaningful bits), and one varint of at most 10
// bytes per issue word.
func payloadBound(n uint64) uint64 {
	b := uint64(headerFields*binary.MaxVarintLen64) + binary.MaxVarintLen64*n
	if n > 0 {
		b += (64 + 77*(n-1) + 7) / 8
	}
	return b
}

// poolMaxBytes caps what a pooled buffer may hold on to. Search traces
// are a few hundred KB at most; a rare long trace allocates its own
// buffers and leaves them to the collector rather than pinning them.
const poolMaxBytes = 4 << 20

// encoder is one pooled set of Encode state.
type encoder struct {
	zw      *flate.Writer
	payload []byte
	out     bytes.Buffer
}

var encoders = sync.Pool{New: func() any {
	zw, _ := flate.NewWriter(nil, flate.DefaultCompression) // the level is valid
	return &encoder{zw: zw}
}}

// Encode serialises rec in the canonical (v2) format. The returned
// blob is what Put writes to disk and what the distributed trace tier
// ships over the wire.
func Encode(rec *Record) []byte {
	e := encoders.Get().(*encoder)
	e.payload = encodePayload(e.payload[:0], rec)
	e.out.Reset()
	e.out.WriteString(magic2)
	// Reset makes the pooled writer equivalent to a fresh NewWriter at
	// the same level, so the bytes are those a new writer would emit.
	e.zw.Reset(&e.out)
	e.zw.Write(e.payload) // writes to a bytes.Buffer cannot fail
	e.zw.Close()
	blob := make([]byte, e.out.Len(), e.out.Len()+8)
	copy(blob, e.out.Bytes())
	if cap(e.payload) > poolMaxBytes {
		e.payload = nil
	}
	if e.out.Cap() > poolMaxBytes {
		e.out = bytes.Buffer{}
	}
	encoders.Put(e)
	return appendU64(blob, fnv1a(blob))
}

// Decode is Encode's inverse. ok is false on any magic, structural or
// checksum mismatch.
func Decode(blob []byte) (*Record, bool) {
	d := decoders.Get().(*decoder)
	defer d.release()
	rec := &Record{}
	if !d.decode(blob, rec, false) {
		return nil, false
	}
	return rec, true
}

// valid reports whether blob decodes, for callers that keep the bytes
// and not the record (PutRaw, GetRaw): it decodes into pooled scratch
// arrays instead of a fresh record.
func valid(blob []byte) bool {
	d := decoders.Get().(*decoder)
	defer d.release()
	var rec Record
	return d.decode(blob, &rec, true)
}

// decoder is one pooled set of v2 decode state: the DEFLATE reader and
// its source, the inflated payload, and the arrays a validate-only
// decode fills.
type decoder struct {
	src     bytes.Reader
	zr      io.ReadCloser // implements flate.Resetter
	payload []byte
	energy  []float64
	issues  []uint64
}

var decoders = sync.Pool{New: func() any {
	d := &decoder{}
	d.zr = flate.NewReader(&d.src)
	return d
}}

// release returns d to the pool without the caller's blob and without
// any buffer above poolMaxBytes.
func (d *decoder) release() {
	d.src.Reset(nil)
	if cap(d.payload) > poolMaxBytes {
		d.payload = nil
	}
	if cap(d.energy) > poolMaxBytes/8 {
		d.energy, d.issues = nil, nil
	}
	decoders.Put(d)
}

// decode parses a v2 blob into rec. With scratch set, Energy and
// Issues alias d's reusable arrays and are only good until release.
func (d *decoder) decode(blob []byte, rec *Record, scratch bool) bool {
	if len(blob) < len(magic2)+8 || string(blob[:len(magic2)]) != magic2 {
		return false
	}
	body, sum := blob[:len(blob)-8], binary.LittleEndian.Uint64(blob[len(blob)-8:])
	if fnv1a(body) != sum {
		return false
	}
	payload, ok := d.inflate(body[len(magic2):])
	if !ok {
		return false
	}
	return d.decodePayload(payload, rec, scratch)
}

// inflate decompresses a DEFLATE stream into d.payload. Once the
// payload header is in, reading stops as soon as the payload outgrows
// payloadBound of its declared cycle count, so a DEFLATE bomb costs a
// short read, not its inflated size; the buffer, doubling as it fills,
// never grows past that bound (or maxPayloadBytes before the header)
// by more than a byte.
func (d *decoder) inflate(z []byte) ([]byte, bool) {
	d.src.Reset(z)
	if d.zr.(flate.Resetter).Reset(&d.src, nil) != nil {
		return nil, false
	}
	buf, limit, sized := d.payload[:0], uint64(maxPayloadBytes), false
	for {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(max(2*cap(buf), 4096), int(limit)+1))
			copy(grown, buf)
			buf, d.payload = grown, grown
		}
		k, err := d.zr.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+k]
		if !sized {
			n, state := headerCycles(buf)
			if state < 0 || n > MaxCycles {
				return nil, false
			}
			if state > 0 {
				limit, sized = payloadBound(n), true
			}
		}
		if uint64(len(buf)) > limit {
			return nil, false
		}
		if err == io.EOF {
			return buf, true
		}
		if err != nil {
			return nil, false
		}
	}
}

// headerCycles reads the declared cycle count from the start of a
// payload. state is 1 once the header is complete, 0 while p may
// still be a prefix of one, and -1 if no header starts this way.
func headerCycles(p []byte) (n uint64, state int) {
	for i := 0; i < headerFields-1; i++ {
		v, k := binary.Uvarint(p)
		switch {
		case k < 0:
			return 0, -1
		case k == 0:
			return 0, 0
		}
		n, p = v, p[k:]
	}
	return n, 1
}

// encodePayload appends the uncompressed v2 payload to b.
func encodePayload(b []byte, rec *Record) []byte {
	var flags uint64
	if rec.Done {
		flags |= 1 << 0
	}
	if rec.Unsupported {
		flags |= 1 << 1
	}
	if rec.Periodic {
		flags |= 1 << 2
	}
	b = binary.AppendUvarint(b, flags)
	b = binary.AppendUvarint(b, uint64(rec.HeadLen))
	b = binary.AppendUvarint(b, uint64(rec.PeriodLen))
	b = binary.AppendUvarint(b, rec.CaptureNS)
	for _, blk := range [][statsWords]uint64{rec.EndStats, rec.RefStats, rec.PerStats} {
		for _, v := range blk {
			b = binary.AppendUvarint(b, v)
		}
	}
	b = binary.AppendUvarint(b, rec.EndRetired)
	b = binary.AppendUvarint(b, rec.RefRetired)
	b = binary.AppendUvarint(b, rec.PerRetired)
	b = binary.AppendUvarint(b, uint64(len(rec.Energy)))
	b = binary.AppendUvarint(b, uint64(len(rec.Issues)))
	b = appendEnergyXOR(b, rec.Energy)
	prev := uint64(0)
	for _, q := range rec.Issues {
		b = binary.AppendUvarint(b, q^prev)
		prev = q
	}
	return b
}

func (d *decoder) decodePayload(p []byte, rec *Record, scratch bool) bool {
	ok := true
	next := func() uint64 {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			ok = false
			return 0
		}
		p = p[n:]
		return v
	}
	flags := next()
	rec.Done = flags&(1<<0) != 0
	rec.Unsupported = flags&(1<<1) != 0
	rec.Periodic = flags&(1<<2) != 0
	rec.HeadLen = int(next())
	rec.PeriodLen = int(next())
	rec.CaptureNS = next()
	for _, blk := range []*[statsWords]uint64{&rec.EndStats, &rec.RefStats, &rec.PerStats} {
		for i := range blk {
			blk[i] = next()
		}
	}
	rec.EndRetired = next()
	rec.RefRetired = next()
	rec.PerRetired = next()
	n, nIssues := next(), next()
	// Replay indexes both arrays by cycle, so their lengths must agree;
	// and every cycle costs at least one byte of issue varints, which
	// bounds what a short blob can make the decoder allocate.
	if !ok || nIssues != n || n > uint64(len(p)) || n > MaxCycles {
		return false
	}
	if scratch {
		if uint64(cap(d.energy)) < n {
			d.energy, d.issues = make([]float64, n), make([]uint64, n)
		}
		rec.Energy, rec.Issues = d.energy[:n], d.issues[:n]
	} else {
		rec.Energy, rec.Issues = make([]float64, n), make([]uint64, n)
	}
	if p, ok = decodeEnergyXOR(p, rec.Energy); !ok {
		return false
	}
	if p, ok = decodeIssues(p, rec.Issues); !ok {
		return false
	}
	if len(p) != 0 {
		return false // short or trailing garbage
	}
	if rec.Periodic && (rec.HeadLen < 0 || rec.PeriodLen <= 0 ||
		rec.HeadLen+rec.PeriodLen != len(rec.Energy)) {
		return false // inconsistent periodic decomposition
	}
	return true
}

// decodeIssues is the inverse of the issue-word loop in
// encodePayload: it fills issues from their varint XOR deltas and
// returns the rest of p. With 8 bytes readable, a varint of up to 8
// bytes decodes without branching on its length: the first byte with
// its top bit clear ends it, and the 7-bit groups below it are
// squeezed together in three steps. binary.Uvarint takes the rest.
func decodeIssues(p []byte, issues []uint64) ([]byte, bool) {
	prev := uint64(0)
	for i := range issues {
		if len(p) >= 8 {
			w := binary.LittleEndian.Uint64(p)
			if stops := ^w & 0x8080808080808080; stops != 0 {
				w &= (stops ^ (stops - 1)) & 0x7f7f7f7f7f7f7f7f // up to the first stop
				w = w&0x007f007f007f007f | w&0x7f007f007f007f00>>1
				w = w&0x00003fff00003fff | w&0x3fff00003fff0000>>2
				w = w&0x000000000fffffff | w&0x0fffffff00000000>>4
				prev ^= w
				issues[i] = prev
				p = p[(bits.TrailingZeros64(stops)+1)/8:]
				continue
			}
		}
		v, k := binary.Uvarint(p)
		if k <= 0 {
			return nil, false
		}
		prev ^= v
		issues[i] = prev
		p = p[k:]
	}
	return p, true
}

// appendEnergyXOR writes the float64 stream Gorilla-style: the first
// value raw, every later one as the XOR against its predecessor —
// a '0' bit when identical, otherwise a '1' plus either the previous
// meaningful-bit window ('0') or a fresh (leading-zeros, length)
// header ('1'). Bit-exact for every float64 including NaN payloads.
func appendEnergyXOR(b []byte, vals []float64) []byte {
	w := bitWriter{buf: b}
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
		lz := bits.LeadingZeros64(x)
		if lz > 31 {
			lz = 31 // 5-bit header field
		}
		tz := bits.TrailingZeros64(x)
		if prevLZ >= 0 && lz >= prevLZ && tz >= prevTZ {
			// The XOR fits the previous window: reuse it ('1', '0').
			w.writeBits(0b10, 2)
			w.writeBits(x>>uint(prevTZ), uint(64-prevLZ-prevTZ))
			continue
		}
		mlen := 64 - lz - tz
		w.writeBits(0b11<<11|uint64(lz)<<6|uint64(mlen-1), 2+5+6)
		w.writeBits(x>>uint(tz), uint(mlen))
		prevLZ, prevTZ = lz, tz
	}
	w.align()
	return w.buf
}

// decodeEnergyXOR is appendEnergyXOR's inverse: it fills vals and
// returns the remaining byte-aligned tail of p.
//
// Fields are read as 64-bit big-endian words at any bit offset, and a
// value spans at most 77 bits, so while 11 bytes lie ahead no read can
// leave p. The last few values are decoded from a zero-padded copy of
// p's tail; if that run ends past the tail's last bit, some value read
// padding, and the stream was truncated.
func decodeEnergyXOR(p []byte, vals []float64) ([]byte, bool) {
	if len(vals) == 0 {
		return p, true
	}
	if len(p) < 8 {
		return nil, false
	}
	st := xorState{prev: binary.BigEndian.Uint64(p)}
	vals[0] = math.Float64frombits(st.prev)
	i, at, ok := st.run(p, vals, 1, 64)
	if ok && i < len(vals) {
		var pad [24]byte
		base := at / 8
		n := copy(pad[:], p[base:])
		i, at, ok = st.run(pad[:], vals, i, at%8)
		ok = ok && i == len(vals) && at <= 8*uint(n)
		at += 8 * base
	}
	if !ok {
		return nil, false
	}
	return p[(at+7)/8:], true
}

// xorState carries the decoder from one value to the next: the last
// value's bits and the current window (width 0 until the first).
type xorState struct {
	prev      uint64
	tz, width uint
}

// run decodes vals[i:] from buf, starting at bit at, until fewer than
// 11 bytes of buf lie ahead; ok is false if a value is malformed.
func (st *xorState) run(buf []byte, vals []float64, i int, at uint) (int, uint, bool) {
	prev, tz, width := st.prev, st.tz, st.width
	for ; i < len(vals) && at/8+11 <= uint(len(buf)); i++ {
		if w := peek64(buf, at); w>>62 == 0b11 { // '11': a fresh window
			lz := uint(w >> 57 & 31)
			width = uint(w>>51&63) + 1
			if lz+width > 64 {
				return i, at, false
			}
			tz = 64 - lz - width
			prev ^= peek64(buf, at+2+5+6) >> (64 - width) << tz
			at += 2 + 5 + 6 + width
		} else {
			// '0' repeats the value, '10' reuses the window. Half the
			// values take each, unpredictably, so both are computed and
			// the control bit picks without a branch.
			c := w >> 63
			if width == 0 && c == 1 {
				return i, at, false // no window yet
			}
			prev ^= peek64(buf, at+2) >> (64 - width) << tz & -c
			at += 1 + (1+width)&-uint(c)
		}
		vals[i] = math.Float64frombits(prev)
	}
	st.prev, st.tz, st.width = prev, tz, width
	return i, at, true
}

// peek64 returns the 64 bits of b that start at bit `at`, MSB-first;
// b must hold 9 bytes from byte at/8.
func peek64(b []byte, at uint) uint64 {
	q, s := b[at/8:at/8+9], at%8
	return binary.BigEndian.Uint64(q)<<s | uint64(q[8])>>(8-s)
}

// bitWriter packs MSB-first bits onto a byte slice a word at a time:
// acc holds the n < 64 pending bits in its low end (bits above them
// are stale and shifted out before use), flushed as 8 big-endian bytes
// whenever a write fills the word.
type bitWriter struct {
	buf []byte
	acc uint64
	n   uint
}

// writeBits appends the low k bits of v, 1 ≤ k ≤ 64; v must be zero
// above them.
func (w *bitWriter) writeBits(v uint64, k uint) {
	if w.n+k < 64 {
		w.acc = w.acc<<k | v
		w.n += k
		return
	}
	rest := w.n + k - 64 // bits of v left over once the word is full
	w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc<<(64-w.n)|v>>rest)
	w.acc, w.n = v, rest
}

// align flushes the pending bits, zero-padded to a whole byte.
func (w *bitWriter) align() {
	n := len(w.buf) + int(w.n+7)/8
	w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc<<(64-w.n))[:n]
	w.acc, w.n = 0, 0
}
