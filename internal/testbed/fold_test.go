package testbed

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/scope"
)

// scanReference is the per-cycle fold replayFold.scan replaced, kept as
// its oracle: every statistic read and written through the Measurement
// each cycle, the warmup test per cycle, and the failure check walking
// every unit of the packed issue word.
func (f *replayFold) scanReference(base uint64, es []float64, qs []uint64, vs []float64) {
	m := f.m
	for i := range es {
		cyc := base + uint64(i)
		m.EnergyPJ += es[i]
		q := qs[i]
		for u := 0; u < int(isa.NumUnits); u++ {
			m.UnitTotals[u] += (q >> (8 * uint(u))) & 0xff
		}
		if cyc < f.warm {
			continue
		}
		v := vs[i]
		if d := f.vNom - v; d > m.MaxDroopV {
			m.MaxDroopV = d
		}
		if o := v - f.vNom; o > m.MaxOvershootV {
			m.MaxOvershootV = o
		}
		if v < m.MinV {
			m.MinV = v
		}
		f.sumV += v
		f.nV++
		if f.sc != nil {
			f.sc.Sample(v)
		}
		if f.trig != nil {
			f.trig.Sample(v)
		}
		if f.hist != nil {
			f.hist.Add(v)
		}
		if !m.Failed && checkPackedReference(f.p.Failure, v, q) {
			m.Failed = true
			m.FailCycle = cyc
		}
	}
}

// checkPackedReference is FailureModel.Check against a packed issue
// word: the per-unit walk the fold's ceiling and mask replaced.
func checkPackedReference(f FailureModel, vDie float64, packed uint64) bool {
	for u := isa.Unit(1); u < isa.NumUnits; u++ {
		if packed>>(8*uint(u))&0xff != 0 && f.CriticalV[u] > 0 && vDie < f.CriticalV[u] {
			return true
		}
	}
	return false
}

// testFold builds a fold the way newLane does, optionally with a
// decimating peak-detect scope, a droop trigger and a histogram.
func testFold(t *testing.T, p Platform, warm uint64, consumers bool) *replayFold {
	t.Helper()
	f := &replayFold{p: p, m: &Measurement{MinV: p.PDN.VNom}, vNom: p.PDN.VNom, warm: warm}
	if consumers {
		sc, err := scope.New(p.Chip.ClockHz, p.Chip.ClockHz/7, true)
		if err != nil {
			t.Fatal(err)
		}
		f.sc = sc
		f.trig = scope.NewTrigger(p.PDN.VNom-0.05, 0.002)
		if f.hist, err = scope.NewHistogram(1.0, 1.4, 64); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// foldState is everything a fold accumulates, for a bitwise comparison.
type foldState struct {
	M          Measurement
	SumV       float64
	NV         uint64
	Wave       []float64
	Events     []scope.DroopEvent
	HistCounts []uint64
	HistUnder  uint64
	HistOver   uint64
	HistTotal  uint64
}

func (f *replayFold) state() foldState {
	s := foldState{M: *f.m, SumV: f.sumV, NV: f.nV}
	if f.sc != nil {
		s.Wave = f.sc.Waveform()
		s.Events = f.trig.Events()
		s.HistCounts, s.HistUnder, s.HistOver, s.HistTotal = f.hist.Counts, f.hist.Under, f.hist.Over, f.hist.Total()
	}
	return s
}

// diffBits returns the first difference between a and b, comparing
// floats by their bits (so NaN equals the same NaN and −0 differs from
// +0), or "" when they are identical.
func diffBits(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: %v (%#x) != %v (%#x)", path, a.Float(), math.Float64bits(a.Float()), b.Float(), math.Float64bits(b.Float()))
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := diffBits(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: length %d != %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := diffBits(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
	default:
		if !reflect.DeepEqual(a.Interface(), b.Interface()) {
			return fmt.Sprintf("%s: %v != %v", path, a.Interface(), b.Interface())
		}
	}
	return ""
}

// foldStream is a synthetic replay stream: per-cycle energy, packed
// issue words and die voltages.
type foldStream struct {
	es []float64
	qs []uint64
	vs []float64
}

// randomStream draws n cycles that stress every branch of the fold:
// voltages around nominal and NaN or ±Inf, and with probability
// failRate a voltage across the critical band or exactly at a unit's
// critical voltage; issue words with idle, partly and fully saturated
// units, and runs of all-255 words longer than three SWAR flushes.
func randomStream(rng *rand.Rand, p Platform, n int, failRate float64) foldStream {
	s := foldStream{es: make([]float64, n), qs: make([]uint64, n), vs: make([]float64, n)}
	crit := p.Failure.CriticalV
	ceil := p.Failure.ceilingV()
	saturated := 0
	for i := range s.vs {
		s.es[i] = 100 * rng.Float64()
		if saturated == 0 && rng.Intn(800) == 0 {
			saturated = 3*unitFlush + rng.Intn(600)
		}
		if saturated > 0 {
			saturated--
			s.qs[i] = math.MaxUint64
		} else {
			for u := 0; u < int(isa.NumUnits); u++ {
				switch r := rng.Intn(10); {
				case r < 6:
				case r < 9:
					s.qs[i] |= uint64(1+rng.Intn(3)) << (8 * u)
				default:
					s.qs[i] |= uint64(rng.Intn(256)) << (8 * u)
				}
			}
		}
		switch r := rng.Float64(); {
		case r < failRate/2:
			s.vs[i] = ceil - 0.1 + 0.12*rng.Float64()
		case r < failRate:
			s.vs[i] = crit[1+rng.Intn(int(isa.NumUnits)-1)]
		case r < failRate+0.02:
			s.vs[i] = math.NaN()
		case r < failRate+0.04:
			s.vs[i] = math.Inf(1 - 2*rng.Intn(2))
		default:
			s.vs[i] = p.PDN.VNom + 0.04*rng.NormFloat64()
		}
	}
	return s
}

// runFolds feeds str to both folds in spans of the given lengths and
// compares their full state after every span and after finish.
func runFolds(t *testing.T, what string, got, want *replayFold, str foldStream, spans []int) {
	t.Helper()
	base := 0
	for k, n := range spans {
		e, q, v := str.es[base:base+n], str.qs[base:base+n], str.vs[base:base+n]
		got.scan(uint64(base), e, q, v)
		want.scanReference(uint64(base), e, q, v)
		if d := diffBits("fold", reflect.ValueOf(got.state()), reflect.ValueOf(want.state())); d != "" {
			t.Fatalf("%s: after span %d (cycles %d..%d, warm %d): %s", what, k, base, base+n, got.warm, d)
		}
		base += n
	}
	tr := &chipTrace{endRetired: 7}
	got.finish(tr, uint64(base), got.p.Chip.CycleSeconds())
	want.finish(tr, uint64(base), want.p.Chip.CycleSeconds())
	if d := diffBits("fold", reflect.ValueOf(got.state()), reflect.ValueOf(want.state())); d != "" {
		t.Fatalf("%s: after finish: %s", what, d)
	}
}

// TestReplayFoldMatchesReference pins replayFold.scan to the per-cycle
// fold it replaced, bit for bit, over randomized streams cut into spans
// of 0, 1, 256–258, 4096 and random lengths, with the warmup boundary
// inside spans, on their edges, before the first and past the last,
// with and without scope, trigger and histogram, on both failure
// models.
func TestReplayFoldMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	edges := []int{0, 1, 256, 257, 258, 4096}
	for _, p := range []Platform{Bulldozer(), Phenom()} {
		var failedLate, passed int
		for trial := 0; trial < 60; trial++ {
			var spans []int
			total := 0
			for k := 2 + rng.Intn(6); k > 0; k-- {
				n := edges[rng.Intn(len(edges))]
				if rng.Intn(3) == 0 {
					n = rng.Intn(1200)
				}
				spans = append(spans, n)
				total += n
			}
			// Warmup: none, past the end, on a span edge, or inside a span.
			var warm int
			switch r := rng.Intn(4); {
			case r == 0:
				warm = []int{0, total, total + 5}[rng.Intn(3)]
			case r == 1:
				for _, n := range spans[:rng.Intn(len(spans))] {
					warm += n
				}
			default:
				warm = rng.Intn(total + 1)
			}
			str := randomStream(rng, p, total, []float64{0, 0.0005, 0.3}[trial%3])
			consumers := trial%2 == 0
			what := fmt.Sprintf("%s trial %d spans %v", p.PDN.Name, trial, spans)
			got := testFold(t, p, uint64(warm), consumers)
			runFolds(t, what, got, testFold(t, p, uint64(warm), consumers), str, spans)
			switch {
			case !got.m.Failed:
				passed++
			case got.m.FailCycle > uint64(warm):
				failedLate++
			}
		}
		// The draw must reach both verdicts, and failures past the
		// first post-warmup cycle.
		if failedLate < 5 || passed < 5 {
			t.Errorf("%s: %d trials failed after their first post-warmup cycle and %d passed; want at least 5 each",
				p.PDN.Name, failedLate, passed)
		}
	}
}

// TestReplayFoldFailureEdges checks the failure verdicts the reference
// comparison relies on: a voltage exactly at a unit's critical voltage
// does not fail it and the next float below does, a NaN or an idle
// unit never fails, and a failure before warmup does not count while
// the first one after it does.
func TestReplayFoldFailureEdges(t *testing.T) {
	for _, p := range []Platform{Bulldozer(), Phenom()} {
		for u := isa.Unit(1); u < isa.NumUnits; u++ {
			c := p.Failure.CriticalV[u]
			q := uint64(0xff) << (8 * uint(u))
			str := foldStream{
				es: make([]float64, 4),
				qs: []uint64{q, math.MaxUint64, 0, q},
				vs: []float64{c, math.NaN(), 0.5, math.Nextafter(c, 0)},
			}
			for _, warm := range []uint64{0, 4} {
				got, want := testFold(t, p, warm, true), testFold(t, p, warm, true)
				runFolds(t, fmt.Sprintf("%s unit %d warm %d", p.PDN.Name, u, warm), got, want, str, []int{2, 0, 2})
				if fail := warm == 0; got.m.Failed != fail || (fail && got.m.FailCycle != 3) {
					t.Errorf("%s unit %d warm %d: Failed=%v FailCycle=%d, want %v at cycle 3",
						p.PDN.Name, u, warm, got.m.Failed, got.m.FailCycle, fail)
				}
			}
		}
		// Before warmup every cycle fails; after it, only cycle 700.
		n := 1000
		str := foldStream{es: make([]float64, n), qs: make([]uint64, n), vs: make([]float64, n)}
		for i := range str.vs {
			str.qs[i] = math.MaxUint64
			str.vs[i] = p.PDN.VNom
			if i < 300 || i == 700 {
				str.vs[i] = 0.5
			}
		}
		got, want := testFold(t, p, 300, false), testFold(t, p, 300, false)
		runFolds(t, p.PDN.Name+" warmup", got, want, str, []int{257, 257, 486})
		if !got.m.Failed || got.m.FailCycle != 700 {
			t.Errorf("%s: Failed=%v FailCycle=%d, want the first post-warmup failure at 700", p.PDN.Name, got.m.Failed, got.m.FailCycle)
		}
	}
}
