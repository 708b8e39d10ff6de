// Package scope is the virtual oscilloscope: the stand-in for the
// Tektronix TDS5104B + differential probe of the paper's experimental
// set-up (Fig. 8). It samples the die voltage produced by the PDN
// model, optionally in peak-detect mode (so droops between coarse
// samples are not lost, mirroring how a real scope's min/max capture is
// used for di/dt work), triggers on droop events, and accumulates the
// Vdd histograms of Fig. 10.
package scope

import (
	"fmt"
	"math"

	"repro/internal/trace"
)

// Scope captures a voltage waveform at a configurable sample rate from
// a simulation stepping at simHz.
type Scope struct {
	decim      int  // simulation steps per scope sample
	peakDetect bool // keep the min of each window instead of the first point

	countdown int
	windowMin float64
	samples   []float64

	// Running whole-run extrema (full simulation rate, not decimated).
	min, max float64
	n        uint64
}

// New builds a scope. simHz is the simulation step rate (CPU clock);
// sampleHz the scope's capture rate, capped at simHz. peakDetect keeps
// the window minimum rather than a point sample.
func New(simHz, sampleHz float64, peakDetect bool) (*Scope, error) {
	if simHz <= 0 || sampleHz <= 0 {
		return nil, fmt.Errorf("scope: rates must be positive")
	}
	decim := int(simHz / sampleHz)
	if decim < 1 {
		decim = 1
	}
	return &Scope{
		decim:      decim,
		peakDetect: peakDetect,
		windowMin:  math.Inf(1),
		min:        math.Inf(1),
		max:        math.Inf(-1),
	}, nil
}

// NewInto is New with a caller-provided sample buffer: the scope
// appends into buf[:0], so hot evaluation paths can recycle waveform
// storage across runs instead of growing a fresh slice every time. The
// captured samples are unaffected by where they are stored.
func NewInto(simHz, sampleHz float64, peakDetect bool, buf []float64) (*Scope, error) {
	s, err := New(simHz, sampleHz, peakDetect)
	if err != nil {
		return nil, err
	}
	s.samples = buf[:0]
	return s, nil
}

// Sample feeds one simulation-step voltage.
func (s *Scope) Sample(v float64) {
	s.n++
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	if s.peakDetect {
		if v < s.windowMin {
			s.windowMin = v
		}
	} else if s.countdown == 0 {
		s.windowMin = v
	}
	s.countdown++
	if s.countdown >= s.decim {
		s.samples = append(s.samples, s.windowMin)
		s.windowMin = math.Inf(1)
		s.countdown = 0
	}
}

// Waveform returns the captured (decimated) samples.
func (s *Scope) Waveform() []float64 { return s.samples }

// Extrema returns the true min and max seen at full simulation rate.
func (s *Scope) Extrema() (min, max float64) {
	if s.n == 0 {
		return 0, 0
	}
	return s.min, s.max
}

// Count returns the number of simulation steps observed.
func (s *Scope) Count() uint64 { return s.n }

// Stats summarises the decimated waveform.
func (s *Scope) Stats() trace.Stats { return trace.Summarize(s.samples) }

// Histogram accumulates a voltage distribution with fixed-width bins —
// the measurement behind Fig. 10.
type Histogram struct {
	Lo, Hi float64
	Counts []uint64
	Under  uint64
	Over   uint64
	total  uint64
}

// NewHistogram builds a histogram over [lo, hi) with the given bin count.
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if !(hi > lo) || bins < 1 {
		return nil, fmt.Errorf("scope: bad histogram range [%g,%g)/%d", lo, hi, bins)
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]uint64, bins)}, nil
}

// Add records one sample. A NaN counts as under range, so every sample
// lands in exactly one of Under, Over and Counts.
func (h *Histogram) Add(v float64) {
	h.total++
	switch {
	case v < h.Lo || math.IsNaN(v):
		h.Under++
	case v >= h.Hi:
		h.Over++
	default:
		i := int((v - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
		if i >= len(h.Counts) {
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// Total returns the number of samples recorded.
func (h *Histogram) Total() uint64 { return h.total }

// BinCenter returns the voltage at the middle of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// Quantile returns the approximate voltage below which fraction q of
// the in-range samples fall.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	inRange := h.total - h.Under - h.Over
	if inRange == 0 {
		return h.Lo
	}
	target := uint64(q * float64(inRange))
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			return h.BinCenter(i)
		}
	}
	return h.Hi
}

// DroopEvent is one triggered excursion below a threshold.
type DroopEvent struct {
	// StartStep and EndStep are simulation-step indices.
	StartStep, EndStep uint64
	// MinV is the deepest voltage during the event.
	MinV float64
}

// Trigger detects droop events: an event opens when the input falls
// below Threshold and closes when it rises above Threshold+Hysteresis.
type Trigger struct {
	Threshold  float64
	Hysteresis float64

	step    uint64
	inEvent bool
	cur     DroopEvent
	events  []DroopEvent
	// MaxEvents bounds memory; older events are dropped from the front.
	MaxEvents int
}

// NewTrigger builds a droop trigger.
func NewTrigger(threshold, hysteresis float64) *Trigger {
	return &Trigger{Threshold: threshold, Hysteresis: hysteresis, MaxEvents: 1 << 16}
}

// Sample feeds one simulation-step voltage.
func (t *Trigger) Sample(v float64) {
	if !t.inEvent {
		if v < t.Threshold {
			t.inEvent = true
			t.cur = DroopEvent{StartStep: t.step, MinV: v}
		}
	} else {
		if v < t.cur.MinV {
			t.cur.MinV = v
		}
		if v > t.Threshold+t.Hysteresis {
			t.cur.EndStep = t.step
			t.push(t.cur)
			t.inEvent = false
		}
	}
	t.step++
}

func (t *Trigger) push(e DroopEvent) {
	if len(t.events) >= t.MaxEvents {
		copy(t.events, t.events[1:])
		t.events = t.events[:len(t.events)-1]
	}
	t.events = append(t.events, e)
}

// Events returns the completed droop events so far.
func (t *Trigger) Events() []DroopEvent { return t.events }

// EventCount returns how many droop events completed.
func (t *Trigger) EventCount() int { return len(t.events) }
