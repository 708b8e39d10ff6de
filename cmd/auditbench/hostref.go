package main

import (
	"math"
	"time"
)

// The benchmark's host is shared. Its per-core speed drifts by up to 2×
// over minutes, and every timing of the search drifts with it, CPU time
// included. So while each sample runs, the harness times a fixed
// reference kernel every refEvery on the other core, and a run divides
// its timings by the kernel's slowdown over the same minutes. A change
// to the program still moves them in full; the neighbours move them far
// less. Over ten runs per workload, dividing cut the run-to-run spread
// of evals_per_s from 11–26% to 5–16%, and of cpu_s from 11–22% to
// 3–16%.

// refNominalS is the median hostRef over ten runs per workload on the
// baseline host, so that timings in the result line read about as
// measured on a host in that state.
const refNominalS = 0.027

// refEvery is how often meterHost times the kernel.
const refEvery = 200 * time.Millisecond

// hostRef times a fixed kernel that calls nothing outside this file:
// float arithmetic over buf (4 MiB), read in order and written in a
// scattered one. It measures the host, not the program.
func hostRef(buf []float64) float64 {
	n := len(buf)
	for i := range buf {
		buf[i] = float64(i % 97)
	}
	t0 := time.Now()
	acc := 0.0
	for pass := 0; pass < 10; pass++ {
		for i := 0; i < n; i++ {
			j := (i * 40503) & (n - 1)
			buf[j] = buf[j]*0.999 + math.Sqrt(buf[i]+1)
			acc += buf[j]
		}
	}
	d := time.Since(t0).Seconds()
	if acc == 0 { // keeps the loop from being optimised away
		return math.NaN()
	}
	return d
}

// meterHost times hostRef now and every refEvery after, until the
// returned stop is called; stop waits for the last reading and returns
// the median.
func meterHost() (stop func() float64) {
	buf := make([]float64, 1<<19)
	var refs []float64
	done, finished := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(refEvery)
		defer tick.Stop()
		for {
			refs = append(refs, hostRef(buf))
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		<-finished
		_, med, _ := quartiles(refs)
		return med
	}
}
