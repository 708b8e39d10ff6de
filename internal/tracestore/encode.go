package tracestore

// This file is the v2 record codec (magic "AUDTRC2\n"), the store's
// canonical encoding since the distributed trace tier: the same bytes
// live on disk and travel over /v1/trace, so compressing them shrinks
// both the store's footprint and the coordinator↔worker wire traffic.
//
// Layout: magic, then a DEFLATE stream over a compact payload, then the
// same trailing FNV-1a checksum discipline as v1 (over everything
// before it). The payload packs the per-cycle Energy float64 stream
// with Gorilla-style XOR compression (periodic stressmark traces
// repeat values cycle to cycle, so most XORs are zero or narrow) and
// the packed Issues words as varint XOR deltas; headers and counters
// are varints. The outer flate layer then squeezes the cross-cycle
// structure the per-value stages cannot see (a loop body's XOR pattern
// recurring every period).
//
// v1 records still decode — Decode dispatches on the magic — so a
// store directory written by an older binary keeps serving hits; only
// fresh Puts are written as v2. Corrupt or truncated blobs of either
// version fail the checksum or a structural check and read as misses.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
	"math"
	"math/bits"
)

// magic2 identifies the v2 compressed record format.
const magic2 = "AUDTRC2\n"

// maxPayloadBytes bounds the inflated payload a decoder will buffer —
// comfortably above the largest legal trace (16 B/cycle × 4 Mi cycles)
// while stopping a corrupt length field from ballooning memory.
const maxPayloadBytes = 1 << 30

// Encode serialises rec in the canonical (v2) format. The returned
// blob is what Put writes to disk and what the distributed trace tier
// ships over the wire.
func Encode(rec *Record) []byte {
	payload := encodePayload(rec)
	var buf bytes.Buffer
	buf.Grow(len(magic2) + len(payload)/2 + 16)
	buf.WriteString(magic2)
	zw, _ := flate.NewWriter(&buf, flate.DefaultCompression)
	zw.Write(payload)
	zw.Close()
	return appendU64(buf.Bytes(), fnv1a(buf.Bytes()))
}

// Decode is the version-dispatching inverse of the store's encoders:
// it reads v2 (Encode) and v1 blobs alike. ok is false on any
// structural or checksum mismatch, for any version.
func Decode(blob []byte) (*Record, bool) {
	if len(blob) >= len(magic2) && string(blob[:len(magic2)]) == magic2 {
		return decodeV2(blob)
	}
	return decodeV1(blob)
}

// EncodedSizeV1 reports how many bytes rec would occupy in the v1
// flat fixed-width encoding — the baseline the v2 compression ratio is
// measured against (v1 spends 16 bytes per cycle plus a 264-byte
// frame).
func EncodedSizeV1(rec *Record) int {
	return len(magic) + 8*(3+fixedCounters) + 8 + 16*len(rec.Energy) + 8
}

func decodeV2(blob []byte) (*Record, bool) {
	if len(blob) < len(magic2)+8 {
		return nil, false
	}
	body, sum := blob[:len(blob)-8], binary.LittleEndian.Uint64(blob[len(blob)-8:])
	if fnv1a(body) != sum {
		return nil, false
	}
	zr := flate.NewReader(bytes.NewReader(body[len(magic2):]))
	payload, err := io.ReadAll(io.LimitReader(zr, maxPayloadBytes+1))
	zr.Close()
	if err != nil || len(payload) > maxPayloadBytes {
		return nil, false
	}
	return decodePayload(payload)
}

// encodePayload builds the uncompressed v2 payload.
func encodePayload(rec *Record) []byte {
	b := make([]byte, 0, 64+len(rec.Energy)*3)
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

func decodePayload(p []byte) (*Record, bool) {
	rec := &Record{}
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
	if !ok || nIssues != n || n > uint64(len(p)) || n > maxPayloadBytes/8 {
		return nil, false
	}
	var energy []float64
	if energy, p, ok = decodeEnergyXOR(p, int(n)); !ok {
		return nil, false
	}
	rec.Energy = energy
	rec.Issues = make([]uint64, n)
	prev := uint64(0)
	for i := range rec.Issues {
		x := next()
		rec.Issues[i] = x ^ prev
		prev = rec.Issues[i]
	}
	if !ok || len(p) != 0 {
		return nil, false // short or trailing garbage
	}
	if rec.Periodic && (rec.HeadLen < 0 || rec.PeriodLen <= 0 ||
		rec.HeadLen+rec.PeriodLen != len(rec.Energy)) {
		return nil, false // inconsistent periodic decomposition
	}
	return rec, true
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
		w.writeBits(1, 1)
		lz := bits.LeadingZeros64(x)
		if lz > 31 {
			lz = 31 // 5-bit header field
		}
		tz := bits.TrailingZeros64(x)
		if prevLZ >= 0 && lz >= prevLZ && tz >= prevTZ {
			// The XOR fits the previous window: reuse it.
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

// decodeEnergyXOR is appendEnergyXOR's inverse; it returns the decoded
// values and the remaining byte-aligned tail of p.
func decodeEnergyXOR(p []byte, n int) ([]float64, []byte, bool) {
	vals := make([]float64, n)
	if n == 0 {
		return vals, p, true
	}
	r := bitReader{buf: p}
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
	return vals, r.alignedTail(), true
}

// bitWriter packs MSB-first bits onto a byte slice.
type bitWriter struct {
	buf   []byte
	cur   uint8
	nbits uint
}

func (w *bitWriter) writeBits(v uint64, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		w.cur = w.cur<<1 | uint8((v>>uint(i))&1)
		w.nbits++
		if w.nbits == 8 {
			w.buf = append(w.buf, w.cur)
			w.cur, w.nbits = 0, 0
		}
	}
}

// align flushes the partial byte, zero-padded.
func (w *bitWriter) align() {
	if w.nbits > 0 {
		w.buf = append(w.buf, w.cur<<(8-w.nbits))
		w.cur, w.nbits = 0, 0
	}
}

// bitReader consumes MSB-first bits from a byte slice.
type bitReader struct {
	buf   []byte
	pos   int
	cur   uint8
	nbits uint
}

func (r *bitReader) readBits(n uint) (uint64, bool) {
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

// alignedTail discards the rest of the current byte and returns the
// remaining whole bytes.
func (r *bitReader) alignedTail() []byte {
	return r.buf[r.pos:]
}
