package tracestore

// This file is the v3 record codec (magic "AUDTRC3\n"), the store's
// canonical encoding: the same bytes live on disk and travel over
// /v1/trace.
//
// A search trace holds few distinct (energy, issue word) pairs, since
// a loop body issues the same few bundles over and over, and most of
// its cycles repeat the cycle one loop period back. v3 stores exactly
// that, with no general-purpose compressor behind it:
//
//	magic     "AUDTRC3\n"
//	header    uvarints: flags (bit 0 Done, bit 1 Unsupported),
//	          CaptureNS, EndStats[0..7], EndRetired, the cycle count n,
//	          the table size K and the lag P
//	table     the K distinct (energy bits, issue word) pairs in order
//	          of first appearance, 16 little-endian bytes each
//	runs      uvarints: run lengths, literal and copy alternating and
//	          literal first, none empty, summing to exactly n; a copy
//	          run repeats the cycle P back, x[i] = x[i−P]
//	literals  each literal cycle's table index in ⌈log2 K⌉ bits, packed
//	          LSB first and zero-padded to a byte
//	checksum  FNV-1a 64 of everything before it, little-endian
//
// P is one lag per record, 1 to MaxLag, or 0 when the record has no
// copy run. Encode picks it by a vote: every 8-cycle window of table
// indices votes for the distance back to its last occurrence, and of
// the 8 most-voted lags the one that repeats the most cycles exactly
// wins, the lowest on a tie. One lag fits a stressmark: its loop body
// recurs at one period.
//
// Decode checks every bound that sizes its arrays against the header
// and the blob length, and that the literals index the table in order
// of first appearance, the order Encode writes them in, before it
// allocates them. It reads the table and the literals straight out of
// the blob, so a decode allocates the record and its two arrays and a
// validation nothing. An Encoded view keeps a validated blob as it is,
// and a Stream decodes it a span at a time into a window its caller
// owns. v3 is the only format read: a blob under
// any other magic (the flat v1 records and the DEFLATE-compressed v2
// records older binaries wrote, or a future version) is a miss, as is a
// corrupt or truncated blob, which fails the checksum or a structural
// check. The store is a cache, so a stale record costs one recapture.

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"sync"
)

const (
	magic3       = "AUDTRC3\n"
	headerFields = 2 + statsWords + 4 // uvarints in a header
	pairBytes    = 16                 // a table entry: energy bits, issue word
	maxIndexBits = 22                 // ⌈log2 MaxCycles⌉, the widest literal
	// window is the length of the index windows that vote for a lag,
	// and topLags how many of the most-voted lags are counted exactly.
	window, topLags = 8, 8
	// poolMaxBytes caps the index stream a pooled encoder may
	// hold; a rare long trace's buffers are left to the collector.
	poolMaxBytes = 4 << 20
)

// MaxLag is the furthest back a copy run reaches, and so the most
// cycles a Stream's window holds ahead of the span it decodes.
const MaxLag = 4096

// MaxCycles is the longest trace a record may hold; Decode refuses a
// longer one and Put will not write it. It is the testbed's replay
// limit (16 bytes per cycle keeps the largest trace at 64 MiB), and
// MaxBlobBytes derives from it.
const MaxCycles = 4 << 20

// MaxBlobBytes is the longest blob Encode emits for a record of at most
// MaxCycles cycles, about 75 MiB: one with K = n, where every cycle
// costs a table entry and a full-width literal in one literal run (a
// copy run would trade a table entry for a few bytes of run lengths).
// Nothing longer can be a record, so readers of store files and
// trace-tier bodies stop there.
const MaxBlobBytes = 8 /* magic */ + headerFields*binary.MaxVarintLen64 + pairBytes*MaxCycles +
	binary.MaxVarintLen64 + (maxIndexBits*MaxCycles+7)/8 + 8 /* checksum */

// encoder is one pooled set of Encode buffers.
type encoder struct {
	slots  []int32  // open-addressed pair hash: table index + 1, 0 empty
	pe, pq []uint64 // the distinct pairs, in first-appearance order
	idx    []int32  // each cycle's table index
	wins   []winSlot
	votes  [MaxLag + 1]int32
	runs   []int // run lengths, literal first
	cand   []int // lags with votes
}

// winSlot is one entry of the window hash: a window's hash and 1 + the
// cycle it starts at (0 when empty).
type winSlot struct {
	h  uint64
	at int32
}

var encoders = sync.Pool{New: func() any { return new(encoder) }}

// Encode serialises rec in the canonical (v3) format. The returned
// blob is what Put writes to disk and what the distributed trace tier
// ships over the wire. A record whose Energy and Issues lengths differ
// has no pair stream: it encodes as its longer length with an empty
// table, which Decode refuses.
func Encode(rec *Record) []byte {
	n := len(rec.Energy)
	if len(rec.Issues) != n {
		b := appendHeader([]byte(magic3), rec, uint64(max(n, len(rec.Issues))), 0, 0)
		return appendU64(b, fnv1a(b))
	}
	e := encoders.Get().(*encoder)
	e.symbolize(rec.Energy, rec.Issues)
	k := len(e.pe)
	w := indexBits(uint64(k))
	lag, lits := e.buildRuns(e.chooseLag(), w)

	var hdr [headerFields * binary.MaxVarintLen64]byte
	h := appendHeader(hdr[:0], rec, uint64(n), uint64(k), uint64(lag))
	size := len(magic3) + len(h) + pairBytes*k + (lits*int(w)+7)/8 + 8
	for _, r := range e.runs {
		size += (bits.Len64(uint64(r)|1) + 6) / 7 // its uvarint length
	}
	b := append(append(make([]byte, 0, size), magic3...), h...)
	for j := range e.pe {
		b = binary.LittleEndian.AppendUint64(b, e.pe[j])
		b = binary.LittleEndian.AppendUint64(b, e.pq[j])
	}
	for _, r := range e.runs {
		b = binary.AppendUvarint(b, uint64(r))
	}
	var acc uint64
	var nb uint
	i := 0
	for r, length := range e.runs {
		if r%2 == 0 {
			for _, x := range e.idx[i : i+length] {
				acc |= uint64(x) << nb
				for nb += w; nb >= 8; nb -= 8 {
					b = append(b, byte(acc))
					acc >>= 8
				}
			}
		}
		i += length
	}
	if nb > 0 {
		b = append(b, byte(acc))
	}
	if cap(e.idx) <= poolMaxBytes/4 {
		encoders.Put(e)
	}
	return appendU64(b, fnv1a(b))
}

// appendHeader appends the v3 header of rec with n cycles, k pairs and
// lag p.
func appendHeader(b []byte, rec *Record, n, k, p uint64) []byte {
	var flags uint64
	if rec.Done {
		flags |= 1
	}
	if rec.Unsupported {
		flags |= 2
	}
	b = binary.AppendUvarint(binary.AppendUvarint(b, flags), rec.CaptureNS)
	for _, v := range rec.EndStats {
		b = binary.AppendUvarint(b, v)
	}
	for _, v := range [...]uint64{rec.EndRetired, n, k, p} {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// indexBits is ⌈log2 k⌉, the width of a literal indexing k pairs.
func indexBits(k uint64) uint {
	return uint(bits.Len64(max(k, 1) - 1))
}

// symbolize fills e.pe and e.pq with the distinct (energy bits, issue
// word) pairs in first-appearance order and e.idx with each cycle's
// index among them.
func (e *encoder) symbolize(energy []float64, issues []uint64) {
	e.pe, e.pq = e.pe[:0], e.pq[:0]
	e.idx = resize(e.idx, len(energy))
	e.reslot(1024)
	for i, v := range energy {
		eb, q := math.Float64bits(v), issues[i]
		s := e.find(eb, q)
		if e.slots[s] == 0 {
			e.pe, e.pq = append(e.pe, eb), append(e.pq, q)
			e.slots[s] = int32(len(e.pe))
		}
		e.idx[i] = e.slots[s] - 1
		if 2*len(e.pe) > len(e.slots) {
			e.reslot(2 * len(e.slots))
		}
	}
}

// reslot empties the pair hash to size slots, a power of two, and
// reinserts the pairs found so far.
func (e *encoder) reslot(size int) {
	e.slots = resize(e.slots, size)
	clear(e.slots)
	for j := range e.pe {
		e.slots[e.find(e.pe[j], e.pq[j])] = int32(j + 1)
	}
}

// find returns the slot holding pair (eb, q), or the empty slot where
// it belongs. Energies often differ in a few high mantissa bits only,
// so the pair is mixed through the splitmix64 finalizer.
func (e *encoder) find(eb, q uint64) int {
	h := eb ^ q*0x9e3779b97f4a7c15
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	mask := len(e.slots) - 1
	for s := int(h^h>>31) & mask; ; s = (s + 1) & mask {
		if j := e.slots[s]; j == 0 || e.pe[j-1] == eb && e.pq[j-1] == q {
			return s
		}
	}
}

// chooseLag returns the lag that repeats the most cycles among the
// topLags lags the window vote favours, the lowest on a tie, or 0 if
// no window recurs within MaxLag cycles.
func (e *encoder) chooseLag() int {
	idx := e.idx
	if len(idx) <= window {
		return 0
	}
	const mul = 0x100000001b3 // the rolling hash's base; top weighs the outgoing index
	const top = mul * mul * mul * mul * mul * mul * mul & (1<<64 - 1)
	clear(e.votes[:])
	wbits := min(max(bits.Len(uint(len(idx))), 4), 13)
	e.wins = resize(e.wins, 1<<wbits)
	clear(e.wins)
	var h uint64
	for _, x := range idx[:window] {
		h = h*mul + uint64(x)
	}
	for i := 0; ; i++ {
		// h hashes idx[i : i+window].
		ws := &e.wins[(h*0x9e3779b97f4a7c15)>>(64-wbits)]
		if d := i + 1 - int(ws.at); ws.at != 0 && ws.h == h && d <= MaxLag {
			e.votes[d]++
		}
		ws.h, ws.at = h, int32(i+1)
		if i+window == len(idx) {
			break
		}
		h = (h-uint64(idx[i])*top)*mul + uint64(idx[i+window])
	}

	// The most-voted lags, the lower first on a tie.
	cand := e.cand[:0]
	for d := 1; d <= MaxLag; d++ {
		if e.votes[d] > 0 {
			cand = append(cand, d)
		}
	}
	slices.SortFunc(cand, func(a, b int) int {
		return cmp.Or(cmp.Compare(e.votes[b], e.votes[a]), a-b)
	})
	e.cand = cand
	best, bestHits := 0, 0
	for _, d := range cand[:min(len(cand), topLags)] {
		hits := 0
		for i, x := range idx[d:] {
			if x == idx[i] {
				hits++
			}
		}
		if hits > bestHits || hits == bestHits && d < best {
			best, bestHits = d, hits
		}
	}
	return best
}

// buildRuns splits the index stream into e.runs for lag and returns
// the lag the blob records (0 if no copy run pays) and the number of
// literal cycles. A stretch of cycles repeating the cycle lag back
// becomes a copy run once its literals would outweigh the two run
// lengths that cut it out, about 16 bits.
func (e *encoder) buildRuns(lag int, w uint) (int, int) {
	idx := e.idx
	e.runs = e.runs[:0]
	if lag > 0 && w > 0 {
		minCopy := int(16+w-1) / int(w)
		lit := 0 // start of the pending literal run
		for i := lag; i < len(idx); {
			if idx[i] != idx[i-lag] {
				i++
				continue
			}
			j := i + 1
			for j < len(idx) && idx[j] == idx[j-lag] {
				j++
			}
			if j-i >= minCopy {
				e.runs = append(e.runs, i-lit, j-i)
				lit = j
			}
			i = j
		}
		if lit < len(idx) && len(e.runs) > 0 {
			e.runs = append(e.runs, len(idx)-lit)
		}
	}
	if len(e.runs) == 0 {
		if len(idx) > 0 {
			e.runs = append(e.runs, len(idx))
		}
		return 0, len(idx)
	}
	lits := 0
	for r := 0; r < len(e.runs); r += 2 {
		lits += e.runs[r]
	}
	return lag, lits
}

// resize returns s with length n, reallocated only if it is too short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Decode is Encode's inverse. ok is false on any magic, structural or
// checksum mismatch, and on literals out of first-appearance order.
// It runs the record's decoder once, over arrays of its own.
func Decode(blob []byte) (*Record, bool) {
	var f frame
	if !f.check(blob) {
		return nil, false
	}
	rec := f.rec
	rec.Energy, rec.Issues = make([]float64, f.n), make([]uint64, f.n)
	s := f.stream()
	s.fill(rec.Energy, rec.Issues, 0, int(f.n))
	return &rec, true
}

// valid reports whether blob decodes, for callers that keep the bytes
// and not the record (PutRaw, GetRaw): it runs Decode's checks without
// building the arrays.
func valid(blob []byte) bool {
	var f frame
	return f.check(blob)
}

// Encoded is a record at rest in its encoded form: a blob that passed
// every check Decode makes, so decoding it cannot fail. Store.Get
// returns one and Store.Put returns the one it wrote. A search trace's
// blob is about 0.9 bytes a cycle against the 16 of its arrays, so a
// caller that keeps traces in memory keeps these bytes and streams
// their cycles (Stream) when it needs them. An Encoded is immutable and
// safe for concurrent use.
type Encoded struct {
	f         frame
	size      int
	maxEnergy float64
}

// parseEncoded returns the view of blob, or false wherever Decode
// would refuse it. The view reads blob in place.
func parseEncoded(blob []byte) (*Encoded, bool) {
	e := &Encoded{size: len(blob)}
	if !e.f.check(blob) {
		return nil, false
	}
	e.maxEnergy = e.f.tableMax()
	return e, true
}

// Header returns the record's header fields, with Energy and Issues nil.
func (e *Encoded) Header() Record { return e.f.rec }

// Cycles is the record's cycle count, the length of its Energy and
// Issues.
func (e *Encoded) Cycles() int { return int(e.f.n) }

// Size is the blob's length in bytes.
func (e *Encoded) Size() int { return e.size }

// Lag is the record's copy distance, at most MaxLag (0 when it has no
// copy run): how many cycles a Stream's window holds ahead of a span.
func (e *Encoded) Lag() int { return e.f.lag }

// MaxEnergy is the largest per-cycle energy of the record, or 0 when
// none is positive; a NaN never counts. It is read from the pair
// table: the literals index every entry, and every other cycle copies
// an earlier one, so it equals a scan over the decoded Energy.
func (e *Encoded) MaxEnergy() float64 { return e.maxEnergy }

// Stream returns a decoder positioned at the record's first cycle.
func (e *Encoded) Stream() Stream { return e.f.stream() }

// A Stream decodes a record's cycles in order, a span at a time, into
// a window its caller owns, so a reader holds the record's lag plus
// one span of decoded cycles rather than the whole record. It is a
// value, and a copy carries on from the same cycle independently.
type Stream struct {
	table      []byte // the pair table
	runs, lits []byte // the run lengths and literal bits not yet read
	lag        int
	w          uint   // literal width
	rest       int    // cycles not yet decoded
	prev       int    // the last span's length
	left       int    // cycles left in the current run
	lit        bool   // the current run is a literal run
	acc        uint64 // nacc unread literal bits
	nacc       uint
}

// Next decodes the next span cycles, or as many as are left, into a
// window: energy and issues, each at least lag + span long, lag being
// the record's (Encoded.Lag), and passed unchanged to every call of
// one Stream. It first slides the last lag cycles the window holds to
// its front, where the span's copy runs read them, then writes the
// span after them and returns it, energy[lag:lag+m] and
// issues[lag:lag+m]; once every cycle is decoded, the slices are
// empty.
func (s *Stream) Next(energy []float64, issues []uint64, span int) ([]float64, []uint64) {
	// Capped at their lengths, a window too short for the span panics
	// rather than spill into the arrays' capacity.
	energy, issues = energy[:len(energy):len(energy)], issues[:len(issues):len(issues)]
	lag, m := s.lag, max(min(span, s.rest), 0)
	if p := s.prev; p > 0 && lag > 0 {
		copy(energy[:lag], energy[p:p+lag])
		copy(issues[:lag], issues[p:p+lag])
	}
	s.fill(energy, issues, lag, m)
	s.prev, s.rest = m, s.rest-m
	return energy[lag : lag+m : lag+m], issues[lag : lag+m : lag+m]
}

// fill is the decoder: it writes the next n cycles to energy[at:at+n]
// and issues[at:at+n], where a copy run reads the cycle lag places
// back, so the lag cycles before them must sit just below at. The
// cursor lives in locals for the span and is stored back once; a run
// the span cuts short carries on in the next (left).
func (s *Stream) fill(energy []float64, issues []uint64, at, n int) {
	runs, lits, acc, nacc := s.runs, s.lits, s.acc, s.nacc
	left, lit, lag, w := s.left, s.lit, s.lag, s.w
	stop := at + n
	energy, issues = energy[:stop], issues[:stop]
	for i := at; i < stop; {
		end := i + left
		if left == 0 {
			v, k := binary.Uvarint(runs)
			runs = runs[k:]
			end, lit = i+int(v), !lit
		}
		left = 0
		if end > stop {
			left, end = end-stop, stop
		}
		switch {
		case lit:
			for ; i < end; i++ {
				// lits runs on through the checksum, so while a literal
				// bit is unread, 8 bytes are.
				if nacc < w {
					acc |= binary.LittleEndian.Uint64(lits) << nacc
					k := (63 - nacc) / 8 // whole bytes that fit above nacc
					lits, nacc = lits[k:], nacc+8*k
				}
				x := acc & (1<<w - 1)
				acc, nacc = acc>>w, nacc-w
				pair := s.table[pairBytes*x : pairBytes*x+pairBytes]
				energy[i] = math.Float64frombits(binary.LittleEndian.Uint64(pair))
				issues[i] = binary.LittleEndian.Uint64(pair[8:])
			}
		case end-i < 8:
			// Most runs are short: a loop beats two memmove calls, and
			// copying forward repeats the cycles a lag shorter than the
			// run has just written. The shortest index in place, the
			// rest loop over slices cut once.
			for ; i < end; i++ {
				energy[i], issues[i] = energy[i-lag], issues[i-lag]
			}
		case end-i < 64:
			de, se := energy[i:end], energy[i-lag:end-lag]
			dq, sq := issues[i:end], issues[i-lag:end-lag]
			for j := range de {
				de[j], dq[j] = se[j], sq[j]
			}
			i = end
		default:
			for i < end {
				c := copy(energy[i:end], energy[i-lag:i])
				copy(issues[i:i+c], issues[i-lag:i])
				i += c
			}
		}
	}
	s.runs, s.lits, s.acc, s.nacc = runs, lits, acc, nacc
	s.left, s.lit = left, lit
}

// frame is a parsed v3 blob: the header and the sections it bounds,
// still in the blob.
type frame struct {
	rec   Record // the header's fields; Energy and Issues unset
	n, k  uint64
	lag   int
	w     uint   // literal width
	nlits uint64 // literal cycles
	table []byte // k pairs
	runs  []byte // the run-length uvarints
	lits  []byte // the packed literals and the 8 checksum bytes after them
}

// check runs every check Decode makes: parse, then ordered.
func (f *frame) check(blob []byte) bool {
	return f.parse(blob) && f.ordered()
}

// stream returns the decoder of f's cycles from the first.
func (f *frame) stream() Stream {
	return Stream{table: f.table, runs: f.runs, lits: f.lits, lag: f.lag, w: f.w, rest: int(f.n)}
}

// parse checks blob's magic, checksum, header and run lengths, and
// that the literal section is exactly as long as the runs need, with
// zero padding.
func (f *frame) parse(blob []byte) bool {
	if len(blob) < len(magic3)+8 || string(blob[:len(magic3)]) != magic3 {
		return false
	}
	body := blob[:len(blob)-8]
	if fnv1a(body) != binary.LittleEndian.Uint64(blob[len(body):]) {
		return false
	}
	p := body[len(magic3):]
	ok := true
	next := func() uint64 {
		v, k := binary.Uvarint(p)
		if k <= 0 {
			ok = false
			return 0
		}
		p = p[k:]
		return v
	}
	flags := next()
	f.rec.Done, f.rec.Unsupported = flags&1 != 0, flags&2 != 0
	f.rec.CaptureNS = next()
	for i := range f.rec.EndStats {
		f.rec.EndStats[i] = next()
	}
	f.rec.EndRetired = next()
	f.n, f.k = next(), next()
	lag := next()
	// Every cycle needs a pair, and no table holds more pairs than
	// cycles or more bytes than the blob.
	if !ok || flags > 3 || f.n > MaxCycles || f.k > f.n || (f.k == 0) != (f.n == 0) ||
		lag > MaxLag || f.k > uint64(len(p))/pairBytes {
		return false
	}
	f.lag, f.w = int(lag), indexBits(f.k)
	f.table, p = p[:pairBytes*f.k], p[pairBytes*f.k:]

	var at, lits uint64
	copies := false
	start := p
	for run := 0; at < f.n; run++ {
		v := next()
		if !ok || v == 0 || v > f.n-at {
			return false
		}
		if run%2 == 0 {
			lits += v
		} else if lag == 0 || at < lag { // a copy must not reach before cycle 0
			return false
		} else {
			copies = true
		}
		at += v
	}
	f.runs = start[:len(start)-len(p)]
	f.lits, f.nlits = blob[len(blob)-8-len(p):], lits
	nbits := lits * uint64(f.w)
	if copies != (lag != 0) || uint64(len(p)) != (nbits+7)/8 {
		return false
	}
	return nbits%8 == 0 || p[len(p)-1]>>(nbits%8) == 0
}

// ordered reports whether the literals index the table in order of
// first appearance, the order Encode writes: each index is at most
// the number of distinct indices before it, and all k appear. It costs
// a compare a literal and reads no table; an index it passes is in the
// table, and every table entry is some cycle's pair.
func (f *frame) ordered() bool {
	lits, w, mask := f.lits, f.w, uint64(1)<<f.w-1
	var acc, seen uint64
	var nacc uint
	for range f.nlits {
		if nacc < w { // as in fill
			acc |= binary.LittleEndian.Uint64(lits) << nacc
			k := (63 - nacc) / 8
			lits, nacc = lits[k:], nacc+8*k
		}
		x := acc & mask
		acc, nacc = acc>>w, nacc-w
		if x > seen {
			return false
		}
		if x == seen {
			seen++
		}
	}
	return seen == f.k
}

// tableMax is the largest energy in the pair table, from 0; a NaN
// never counts.
func (f *frame) tableMax() float64 {
	m := 0.0
	for t := f.table; len(t) > 0; t = t[pairBytes:] {
		if e := math.Float64frombits(binary.LittleEndian.Uint64(t)); e > m {
			m = e
		}
	}
	return m
}
