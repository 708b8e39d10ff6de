package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/asm"
	"repro/internal/ga"
	"repro/internal/isa"
	"repro/internal/testbed"
)

// HeteroGenome is one candidate per hardware thread. The paper
// generates homogeneous stressmarks ("we instructed AUDIT to generate a
// homogeneous stressmark with four identical threads"); heterogeneous
// generation is the natural extension it implies for machines with
// shared resources — sibling threads can specialise (one floating-point
// heavy, one integer heavy) and sidestep the shared-FPU contention that
// makes homogeneous marks lose at 8T (§5.A.2).
type HeteroGenome struct {
	PerThread []Genome
}

// Clone deep-copies the genome.
func (h HeteroGenome) Clone() HeteroGenome {
	out := HeteroGenome{PerThread: make([]Genome, len(h.PerThread))}
	for i, g := range h.PerThread {
		out.PerThread[i] = g.Clone()
	}
	return out
}

// Fingerprint is the memoization key: per-thread fingerprints joined
// with length prefixes, so thread boundaries stay unambiguous.
func (h HeteroGenome) Fingerprint() string {
	b := make([]byte, 0, 64*len(h.PerThread))
	var tmp [8]byte
	for _, g := range h.PerThread {
		fp := g.Fingerprint()
		binary.LittleEndian.PutUint64(tmp[:], uint64(len(fp)))
		b = append(b, tmp[:]...)
		b = append(b, fp...)
	}
	return string(b)
}

// HeteroStressmark is the result of heterogeneous generation.
type HeteroStressmark struct {
	Name     string
	Programs []*asm.Program // one per thread, placement order
	Threads  int
	DroopV   float64
	Genome   HeteroGenome
	Search   *ga.Result[HeteroGenome]
	// TraceStats snapshots the compiled platform's trace-cache and
	// batch-pipeline counters at the end of the search.
	TraceStats testbed.TraceStats
}

// GenerateHetero runs the AUDIT flow with an independent genome per
// thread. Options are interpreted as in Generate; LoopCycles must be
// set (run a ResonanceSweep first, as Generate would).
func GenerateHetero(ctx context.Context, opt Options) (*HeteroStressmark, error) {
	su, resume, err := prepare[HeteroGenome](opt, true)
	if err != nil {
		return nil, err
	}
	opt, cg, k, s, lp := su.opt, su.cg, su.k, su.s, su.lp
	build := func(h HeteroGenome) ([]*asm.Program, error) {
		progs := make([]*asm.Program, len(h.PerThread))
		for i, g := range h.PerThread {
			p, err := cg.Build(fmt.Sprintf("%s-t%d", opt.Name, i), g)
			if err != nil {
				return nil, err
			}
			progs[i] = p
		}
		return progs, nil
	}
	ops := ga.Ops[HeteroGenome]{
		Random: func(rng *rand.Rand) HeteroGenome {
			h := HeteroGenome{PerThread: make([]Genome, opt.Threads)}
			for i := range h.PerThread {
				h.PerThread[i] = cg.NewGenome(rng, k, s, lp, opt.NopBias)
			}
			return h
		},
		Crossover: func(rng *rand.Rand, a, b HeteroGenome) HeteroGenome {
			child := a.Clone()
			for i := range child.PerThread {
				if i < len(b.PerThread) {
					child.PerThread[i] = cg.Crossover(rng, child.PerThread[i], b.PerThread[i])
				}
			}
			return child
		},
		Mutate: func(rng *rand.Rand, h HeteroGenome) HeteroGenome {
			out := h.Clone()
			i := rng.Intn(len(out.PerThread))
			out.PerThread[i] = cg.Mutate(rng, out.PerThread[i])
			return out
		},
		Fingerprint: HeteroGenome.Fingerprint,
	}

	// Seeds. When sibling threads share a front end, decode alternates
	// between them, so each thread sees half the decode bandwidth and a
	// full-length loop would run at twice the period — off resonance.
	// The seeds therefore use half-length loops when threads share
	// modules: the alternation re-doubles them back onto the resonance.
	var seeds []HeteroGenome
	if !opt.NoSeed {
		sSeed, lpSeed := s, lp
		if opt.Platform.Chip.SharedFrontEnd && opt.Threads > opt.Platform.Chip.Modules {
			sSeed = s / 2
			if sSeed < 1 {
				sSeed = 1
			}
			lpSeed = su.loop/2 - sSeed*k - 1
			if lpSeed < 0 {
				lpSeed = 0
			}
		}
		homo := HeteroGenome{PerThread: make([]Genome, opt.Threads)}
		comp := HeteroGenome{PerThread: make([]Genome, opt.Threads)}
		fpSeed := cg.seedGenome(k, sSeed, lpSeed)
		intSeed := intSeedGenome(cg, k, sSeed, lpSeed)
		for i := 0; i < opt.Threads; i++ {
			homo.PerThread[i] = fpSeed.Clone()
			if i < opt.Threads/2 {
				// SpreadPlacement fills core 0 of every module first,
				// then the sibling cores: the first half of the specs
				// never shares an FPU with the second half.
				comp.PerThread[i] = fpSeed.Clone()
			} else {
				comp.PerThread[i] = intSeed.Clone()
			}
		}
		seeds = append(seeds, comp, homo)
	}

	res, err := evolve(ctx, su, ops, seeds, build, resume)
	if err != nil {
		return nil, err
	}
	progs, err := build(res.Best)
	if err != nil {
		return nil, err
	}
	return &HeteroStressmark{
		Name:       opt.Name,
		Programs:   progs,
		Threads:    opt.Threads,
		DroopV:     res.BestFitness,
		Genome:     res.Best,
		Search:     res,
		TraceStats: su.cp.TraceStats(),
	}, nil
}

// intSeedGenome is the integer counterpart of seedGenome: one ALU op
// plus one multiply per cycle — the ALU and the multiplier are separate
// pipes, so the pattern sustains two integer ops per cycle without
// stretching the loop.
func intSeedGenome(cg *CodeGen, subBlockCycles, s, lpCycles int) Genome {
	idxOf := func(class isa.Class) int16 {
		best, bestE := int16(-1), 0.0
		for i, op := range cg.Opcodes {
			if op.Class == class && op.EnergyPJ > bestE {
				best, bestE = int16(i), op.EnergyPJ
			}
		}
		return best
	}
	alu := idxOf(isa.ClassIntALU)
	mul := idxOf(isa.ClassIntMul)
	g := Genome{Slots: make([]Slot, subBlockCycles*cg.Width), S: s, LPCycles: lpCycles}
	for row := 0; row < subBlockCycles; row++ {
		for w := 0; w < cg.Width; w++ {
			i := row*cg.Width + w
			switch {
			case w == 0 && alu >= 0:
				g.Slots[i] = Slot{Op: alu, A: uint8(row), B: uint8(w)}
			case w == 1 && mul >= 0:
				g.Slots[i] = Slot{Op: mul, A: uint8(4 + row%4), B: uint8(w)}
			default:
				g.Slots[i] = Slot{Op: -1}
			}
		}
	}
	return g
}
