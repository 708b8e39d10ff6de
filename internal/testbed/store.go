package testbed

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/tracestore"
)

// This file bridges the compiled platform's in-memory trace cache to
// the persistent store (internal/tracestore). The store sits strictly
// below the FIFO: a lookup consults memory first, then disk, and only
// then runs phase 1; fresh captures are written through. Records are
// named by the trace's address (traceAddr), which starts from a capture
// digest, so two platforms (or two binaries with different chip/power
// calibrations) sharing one store directory can never serve each
// other's traces. Whatever the store holds rests in memory as the
// store's bytes: a store hit keeps the bytes it read, and a capture or
// tier hit written through keeps the bytes the store wrote.

// captureDigest fingerprints everything trace content depends on
// beyond the rest of its address: the chip configuration and the power
// model (both flat scalar structs, so %#v is canonical). The PDN and
// failure model are deliberately absent — phase 1 runs the chip alone,
// so platforms differing only on the network side still share stored
// traces. Changes to the trace semantics themselves are covered by the
// store's format version, which must be bumped whenever capture output
// changes meaning without changing these structs.
func captureDigest(p Platform) []byte {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%#v\x00%#v", p.Chip, p.Power)))
	return sum[:]
}

// PlatformDigest fingerprints the complete measurement platform — chip
// configuration, power model, PDN and failure model, all flat scalar
// structs with canonical %#v forms — as a hex string. Anything that can
// move a Measurement is covered, so equal digests mean "the same
// physical test system": the stressmark corpus stamps every entry with
// the digest it was baselined on, and a replay whose digest differs
// reports platform skew instead of unexplained drift.
//
// The digest is a stable, reviewed artifact: adding or renaming a field
// in any of the four config structs changes it, and the golden-value
// test in digest_test.go makes that an explicit event (update the
// goldens, re-baseline corpora) rather than a silent one.
func PlatformDigest(p Platform) string {
	s := fmt.Sprintf("%#v\x00%#v\x00%#v\x00%#v", p.Chip, p.Power, p.PDN, p.Failure)
	if p.ROMTolV != 0 {
		// An enabled ROM tolerance can move measured voltages (within
		// its bound), so it is platform identity and corpus replays
		// against a different tolerance must classify as platform skew.
		// The suffix appears only when non-zero, keeping every
		// exact-platform digest — and every corpus baselined on one —
		// stable across this addition.
		s += fmt.Sprintf("\x00rom:%g", p.ROMTolV)
	}
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// SetTraceStore attaches a persistent trace store beneath the
// in-memory cache, which names each record by its trace's address in
// hex. Call before the platform is shared across goroutines (alongside
// SetTraceCacheLimit); a nil store detaches.
func (cp *CompiledPlatform) SetTraceStore(s *tracestore.Store) { cp.store = s }

// TraceStore returns the attached persistent store, or nil.
func (cp *CompiledPlatform) TraceStore() *tracestore.Store { return cp.store }

// TraceTier is a shared trace cache below the local persistent store —
// in the distributed fabric, the coordinator's store served over
// /v1/trace. Implementations must be safe for concurrent use.
//
// key is the trace's 32-byte address, the one the store names its
// record by. Fetch may block (bounded by the implementation) while
// another worker holding the same key captures: ok=false always means
// "you capture" — the tier may have registered a single-flight claim on
// the caller's behalf, which the follow-up Publish releases. wire is
// the payload bytes moved for the call (zero on a claim grant or an
// unreachable tier), feeding TraceStats.WireBytes. Publish must not
// keep rec's arrays once it returns: they go back to the platform's
// pool.
type TraceTier interface {
	Fetch(key []byte) (rec *tracestore.Record, wire int, ok bool)
	Publish(key []byte, rec *tracestore.Record) (wire int)
}

// SetTraceTier attaches a shared trace tier, consulted after the local
// store and written through alongside it. Call before the platform is
// shared across goroutines; a nil tier detaches.
func (cp *CompiledPlatform) SetTraceTier(t TraceTier) { cp.tier = t }

// storeLoad consults the persistent store for a trace missing from
// memory. Any store-side failure is a miss; nil means "keep resolving".
func (cp *CompiledPlatform) storeLoad(a traceAddr) *chipTrace {
	enc, ok := cp.store.Get(a.String())
	if !ok {
		cp.traces.count(func(s *TraceStats) { s.StoreMisses++ })
		return nil
	}
	tr := traceFromEncoded(enc)
	cp.traces.count(func(s *TraceStats) { s.StoreHits++; s.CaptureNSSaved += tr.captureNS })
	return tr
}

// tierLoad consults the shared trace tier. A hit is written through to
// the local store so the next cold start of this worker skips the wire,
// and then rests as the bytes the store wrote.
func (cp *CompiledPlatform) tierLoad(a traceAddr) *chipTrace {
	rec, wire, ok := cp.tier.Fetch(a[:])
	if !ok {
		cp.traces.count(func(s *TraceStats) { s.TierMisses++; s.WireBytes += uint64(wire) })
		return nil
	}
	cp.traces.count(func(s *TraceStats) { s.TierHits++; s.CaptureNSSaved += rec.CaptureNS; s.WireBytes += uint64(wire) })
	if cp.store != nil {
		if enc, err := cp.store.Put(a.String(), rec); err == nil {
			return traceFromEncoded(enc)
		}
	}
	return traceFromRecord(rec)
}

// storeSave writes a fresh capture through to the persistent store and
// to the shared tier, best-effort: a full disk or unreachable
// coordinator costs nothing but the warm start. The tier Publish also
// releases any single-flight claim the preceding Fetch registered. Once
// the store holds the capture, tr rests as the bytes it wrote and its
// arrays go back to the pool, so it must not be shared yet.
func (cp *CompiledPlatform) storeSave(a traceAddr, tr *chipTrace) {
	if cp.store == nil && cp.tier == nil {
		return
	}
	rec := recordFromTrace(tr)
	var enc *tracestore.Encoded
	if cp.store != nil {
		enc, _ = cp.store.Put(a.String(), rec)
	}
	if cp.tier != nil {
		wire := cp.tier.Publish(a[:], rec)
		cp.traces.count(func(s *TraceStats) { s.WireBytes += uint64(wire) })
	}
	if enc != nil {
		cp.putTraceBuf(&traceBuf{tr.energy, tr.issues})
		tr.energy, tr.issues, tr.enc = nil, nil, enc
	}
}

// resolveTrace is the full miss path for a trace absent from memory:
// local store, then shared tier, then phase-1 capture with
// write-through to both. The result is identical whichever level
// serves it — the levels only change who pays the capture.
func (cp *CompiledPlatform) resolveTrace(a traceAddr, rc RunConfig) (*chipTrace, error) {
	if cp.store != nil {
		if tr := cp.storeLoad(a); tr != nil {
			return tr, nil
		}
	}
	if cp.tier != nil {
		if tr := cp.tierLoad(a); tr != nil {
			return tr, nil
		}
	}
	tr, err := cp.buildTrace(rc)
	if err != nil {
		return nil, err
	}
	cp.storeSave(a, tr)
	return tr, nil
}

func statsToWords(s cpu.Stats) [8]uint64 {
	return [8]uint64{s.Branches, s.Mispredicts, s.L1Hits, s.L1Misses,
		s.L2Hits, s.L2Misses, s.L3Hits, s.L3Misses}
}

func statsFromWords(w [8]uint64) cpu.Stats {
	return cpu.Stats{Branches: w[0], Mispredicts: w[1], L1Hits: w[2], L1Misses: w[3],
		L2Hits: w[4], L2Misses: w[5], L3Hits: w[6], L3Misses: w[7]}
}

// recordFromTrace flattens a chipTrace for storage. The trace is
// immutable, so the record may alias its slices.
func recordFromTrace(tr *chipTrace) *tracestore.Record {
	return &tracestore.Record{
		CaptureNS:   tr.captureNS,
		Energy:      tr.energy,
		Issues:      tr.issues,
		Done:        tr.done,
		Unsupported: tr.unsupported,
		EndStats:    statsToWords(tr.endStats),
		EndRetired:  tr.endRetired,
	}
}

// traceFromEncoded rebuilds a replayable chipTrace that rests as the
// store's bytes.
func traceFromEncoded(enc *tracestore.Encoded) *chipTrace {
	h := enc.Header()
	return &chipTrace{
		enc:         enc,
		done:        h.Done,
		unsupported: h.Unsupported,
		endStats:    statsFromWords(h.EndStats),
		endRetired:  h.EndRetired,
		maxEnergy:   enc.MaxEnergy(),
		captureNS:   h.CaptureNS,
	}
}

// traceFromRecord rebuilds a replayable chipTrace that keeps rec's
// arrays.
func traceFromRecord(rec *tracestore.Record) *chipTrace {
	tr := &chipTrace{
		energy:      rec.Energy,
		issues:      rec.Issues,
		done:        rec.Done,
		unsupported: rec.Unsupported,
		endStats:    statsFromWords(rec.EndStats),
		endRetired:  rec.EndRetired,
		captureNS:   rec.CaptureNS,
	}
	tr.noteMaxEnergy()
	return tr
}
