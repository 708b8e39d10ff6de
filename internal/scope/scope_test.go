package scope

import (
	"math"
	"testing"
	"testing/quick"
)

func TestScopeDecimationAndPeakDetect(t *testing.T) {
	s, err := New(1e9, 1e8, true) // decimate by 10, peak detect
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		v := 1.25
		if i == 37 {
			v = 1.10 // a one-step droop between sample points
		}
		s.Sample(v)
	}
	w := s.Waveform()
	if len(w) != 10 {
		t.Fatalf("waveform length %d, want 10", len(w))
	}
	found := false
	for _, v := range w {
		if v == 1.10 {
			found = true
		}
	}
	if !found {
		t.Error("peak detect lost the droop")
	}
	min, max := s.Extrema()
	if min != 1.10 || max != 1.25 {
		t.Errorf("extrema = (%v, %v)", min, max)
	}
	if s.Count() != 100 {
		t.Errorf("count = %d", s.Count())
	}
}

func TestScopePointSamplingCanMissDroop(t *testing.T) {
	// Without peak detect, a droop between sample points is lost — the
	// reason the paper's methodology (and ours) needs high-rate capture
	// for first droops.
	s, err := New(1e9, 1e8, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		v := 1.25
		if i == 37 {
			v = 1.10
		}
		s.Sample(v)
	}
	for _, v := range s.Waveform() {
		if v == 1.10 {
			t.Fatal("point sampling unexpectedly captured the droop at a non-sample point")
		}
	}
	// But the full-rate extrema still see it.
	if min, _ := s.Extrema(); min != 1.10 {
		t.Errorf("extrema min = %v", min)
	}
}

func TestScopeRejectsBadRates(t *testing.T) {
	if _, err := New(0, 1e6, true); err == nil {
		t.Error("zero sim rate accepted")
	}
	if _, err := New(1e9, 0, true); err == nil {
		t.Error("zero sample rate accepted")
	}
}

func TestHistogramBinning(t *testing.T) {
	h, err := NewHistogram(1.0, 1.5, 5) // 0.1 V bins
	if err != nil {
		t.Fatal(err)
	}
	h.Add(1.05) // bin 0
	h.Add(1.15) // bin 1
	h.Add(1.15)
	h.Add(1.49) // bin 4
	h.Add(0.9)  // under
	h.Add(1.6)  // over
	if h.Counts[0] != 1 || h.Counts[1] != 2 || h.Counts[4] != 1 {
		t.Errorf("counts = %v", h.Counts)
	}
	if h.Under != 1 || h.Over != 1 {
		t.Errorf("under/over = %d/%d", h.Under, h.Over)
	}
	if h.Total() != 6 {
		t.Errorf("total = %d", h.Total())
	}
	if c := h.BinCenter(0); math.Abs(c-1.05) > 1e-12 {
		t.Errorf("bin center = %v", c)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h, _ := NewHistogram(0, 1, 100)
	for i := 0; i < 1000; i++ {
		h.Add(float64(i%100) / 100)
	}
	q := h.Quantile(0.5)
	if q < 0.4 || q > 0.6 {
		t.Errorf("median = %v", q)
	}
	if h.Quantile(-1) != h.Quantile(0) {
		t.Error("quantile clamp low failed")
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(1, 1, 10); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Error("zero bins accepted")
	}
}

// TestHistogramNonFinite feeds the samples at the edges of Add's range
// tests: NaN counts as under range, ±Inf fall outside, Lo lands in the
// first bin and the largest float below Hi in the last. None panics,
// every sample is counted once, and the NaNs leave Quantile unchanged.
func TestHistogramNonFinite(t *testing.T) {
	const lo, hi, bins = 1.0, 1.5, 5
	h, _ := NewHistogram(lo, hi, bins)
	ref, _ := NewHistogram(lo, hi, bins)
	below := math.Nextafter(hi, math.Inf(-1))
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), lo, below, 1.2, math.NaN()} {
		h.Add(v)
		if !math.IsNaN(v) {
			ref.Add(v)
		}
	}
	var sum uint64
	for _, c := range h.Counts {
		sum += c
	}
	if h.Total() != 7 || sum+h.Under+h.Over != h.Total() {
		t.Fatalf("total %d, counts %v + under %d + over %d", h.Total(), h.Counts, h.Under, h.Over)
	}
	if h.Under != 3 || h.Over != 1 || h.Counts[0] != 1 || h.Counts[bins-1] != 1 {
		t.Errorf("under %d over %d counts %v: want NaNs and -Inf under, +Inf over, Lo in bin 0, %v in bin %d",
			h.Under, h.Over, h.Counts, below, bins-1)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if got, want := h.Quantile(q), ref.Quantile(q); got != want {
			t.Errorf("Quantile(%v) = %v with NaNs, %v without", q, got, want)
		}
	}
}

func TestQuickHistogramConservation(t *testing.T) {
	f := func(vals []float64) bool {
		h, _ := NewHistogram(-1, 1, 16)
		for _, v := range vals {
			if math.IsNaN(v) {
				continue
			}
			h.Add(v)
		}
		var sum uint64
		for _, c := range h.Counts {
			sum += c
		}
		return sum+h.Under+h.Over == h.Total()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTriggerEvents(t *testing.T) {
	tr := NewTrigger(1.15, 0.01)
	wave := []float64{1.25, 1.25, 1.12, 1.10, 1.13, 1.17, 1.25, 1.14, 1.18, 1.25}
	for _, v := range wave {
		tr.Sample(v)
	}
	ev := tr.Events()
	if len(ev) != 2 {
		t.Fatalf("events = %d, want 2: %+v", len(ev), ev)
	}
	if ev[0].MinV != 1.10 {
		t.Errorf("event 0 min = %v", ev[0].MinV)
	}
	if ev[0].StartStep != 2 {
		t.Errorf("event 0 start = %d", ev[0].StartStep)
	}
	if ev[1].MinV != 1.14 {
		t.Errorf("event 1 min = %v", ev[1].MinV)
	}
}

func TestTriggerHysteresisHoldsEventOpen(t *testing.T) {
	tr := NewTrigger(1.15, 0.05)
	// Rises above threshold but not above threshold+hysteresis: still
	// the same event.
	for _, v := range []float64{1.10, 1.17, 1.08, 1.30} {
		tr.Sample(v)
	}
	if n := tr.EventCount(); n != 1 {
		t.Errorf("events = %d, want 1", n)
	}
	if tr.Events()[0].MinV != 1.08 {
		t.Errorf("min = %v", tr.Events()[0].MinV)
	}
}

func TestTriggerBoundsMemory(t *testing.T) {
	tr := NewTrigger(1.15, 0.01)
	tr.MaxEvents = 4
	for i := 0; i < 20; i++ {
		tr.Sample(1.0)
		tr.Sample(1.3)
	}
	if n := tr.EventCount(); n != 4 {
		t.Errorf("events = %d, want capped at 4", n)
	}
}
