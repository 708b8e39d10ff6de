// Package pdn models the power-delivery network of Fig. 2: a
// three-stage lumped RLC ladder (motherboard, package, die) between an
// ideal regulator and the on-die current sink. Its series L / shunt C
// pairs produce the first-, second- and third-droop resonances of
// Fig. 3; the first droop (package inductance against on-die decap,
// 50–200 MHz) is the one AUDIT targets.
package pdn

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"

	"repro/internal/circuit"
)

// Config holds the lumped element values of the network plus regulator
// behaviour. All values SI (ohms, henries, farads, volts).
type Config struct {
	Name string
	// VNom is the regulator set-point.
	VNom float64
	// RVRM is the regulator output resistance.
	RVRM float64
	// LoadLineOhms is the VRM load-line slope (V/A). The paper disables
	// the load line for droop measurements to isolate di/dt effects; we
	// model it as extra series resistance when enabled.
	LoadLineOhms float64
	LoadLineOn   bool

	// Motherboard stage (third droop: LMB against CMB).
	LMB, RMB, CMB, ESRMB float64
	// Package stage (second droop: LPkg1 against CPkg).
	LPkg1, RPkg1, CPkg, ESRPkg float64
	// Die stage (first droop: LPkg2+LDie against CDie).
	LDie, RDie, CDie, ESRDie float64
}

// Validate checks that all element values are physical.
func (c Config) Validate() error {
	pos := func(v float64, what string) error {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("pdn: %s: %s must be positive, got %g", c.Name, what, v)
		}
		return nil
	}
	checks := []struct {
		v    float64
		what string
	}{
		{c.VNom, "VNom"}, {c.RVRM, "RVRM"},
		{c.LMB, "LMB"}, {c.RMB, "RMB"}, {c.CMB, "CMB"}, {c.ESRMB, "ESRMB"},
		{c.LPkg1, "LPkg1"}, {c.RPkg1, "RPkg1"}, {c.CPkg, "CPkg"}, {c.ESRPkg, "ESRPkg"},
		{c.LDie, "LDie"}, {c.RDie, "RDie"}, {c.CDie, "CDie"}, {c.ESRDie, "ESRDie"},
	}
	for _, ch := range checks {
		if err := pos(ch.v, ch.what); err != nil {
			return err
		}
	}
	if c.LoadLineOn && c.LoadLineOhms <= 0 {
		return fmt.Errorf("pdn: %s: load line enabled but slope %g", c.Name, c.LoadLineOhms)
	}
	return nil
}

// FirstDroopNominal returns the analytic first-droop resonance
// frequency 1/(2π√(L·C)) of the die stage.
func (c Config) FirstDroopNominal() float64 {
	return 1 / (2 * math.Pi * math.Sqrt(c.LDie*c.CDie))
}

// SecondDroopNominal returns the package-stage resonance frequency.
func (c Config) SecondDroopNominal() float64 {
	return 1 / (2 * math.Pi * math.Sqrt(c.LPkg1*c.CPkg))
}

// ThirdDroopNominal returns the board-stage resonance frequency.
func (c Config) ThirdDroopNominal() float64 {
	return 1 / (2 * math.Pi * math.Sqrt(c.LMB*c.CMB))
}

// build constructs the circuit netlist and returns it with the die node.
func (c Config) build() (*circuit.Circuit, circuit.Node) {
	ckt := circuit.New()
	nVRM := ckt.NewNode()
	nBoard := ckt.NewNode()
	nPkg := ckt.NewNode()
	nDie := ckt.NewNode()

	ckt.V("vrm", nVRM, circuit.Ground, c.VNom)
	rSeries := c.RVRM
	if c.LoadLineOn {
		rSeries += c.LoadLineOhms
	}
	// VRM output resistance and board trace resistance in series with
	// the board inductance; the bypass resistor damps the inductive
	// path alone.
	nA := ckt.NewNode()
	nA2 := ckt.NewNode()
	ckt.R("rvrm", nVRM, nA, rSeries)
	ckt.R("rmb", nA, nA2, c.RMB)
	ckt.L("lmb", nA2, nBoard, c.LMB)
	ckt.R("rmbbyp", nA2, nBoard, boardBypassR(c))
	// Bulk decap with ESR.
	nB := ckt.NewNode()
	ckt.R("esrmb", nBoard, nB, c.ESRMB)
	ckt.C("cmb", nB, circuit.Ground, c.CMB)

	// Package stage.
	nC := ckt.NewNode()
	ckt.R("rpkg1", nBoard, nC, c.RPkg1)
	ckt.L("lpkg1", nC, nPkg, c.LPkg1)
	nD := ckt.NewNode()
	ckt.R("esrpkg", nPkg, nD, c.ESRPkg)
	ckt.C("cpkg", nD, circuit.Ground, c.CPkg)

	// Die stage.
	nE := ckt.NewNode()
	ckt.R("rdie", nPkg, nE, c.RDie)
	ckt.L("ldie", nE, nDie, c.LDie)
	nF := ckt.NewNode()
	ckt.R("esrdie", nDie, nF, c.ESRDie)
	ckt.C("cdie", nF, circuit.Ground, c.CDie)

	// The processor's load current.
	ckt.I("sink", nDie, circuit.Ground, 0)
	return ckt, nDie
}

// boardBypassR is a high-value damping resistor across the board
// inductor; real boards have resistive planes in parallel with the
// inductive path, and without it the third-droop Q is unrealistically
// high.
func boardBypassR(c Config) float64 {
	return 200 * math.Sqrt(c.LMB/c.CMB)
}

// Compiled is a platform-lifetime compiled form of one (Config, dt)
// pair: the netlist is built and the MNA system factored exactly once,
// after which fresh per-run simulation states are a few slice copies.
// It also pools released states so hot evaluation loops (the GA's
// fitness path) reuse their RHS and companion buffers instead of
// reallocating them every run. A Compiled is safe for concurrent use.
type Compiled struct {
	cfg     Config
	dt      float64
	ccp     *circuit.Compiled
	die     circuit.Node
	sinkRef int
	vrmRef  int
	pool    sync.Pool // *PDN, state dirty until Reset

	// Reduced-order replay model, compiled lazily on first use (see
	// rom.go); romErr records a permanent compile failure so callers
	// fall back to the exact kernel without retrying.
	romOnce sync.Once
	rom     *circuit.ROM
	romErr  error
}

// Compile validates and compiles a network for time step dt seconds
// (one CPU clock cycle, typically).
func Compile(cfg Config, dt float64) (*Compiled, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ckt, die := cfg.build()
	ccp, err := circuit.Compile(ckt, dt)
	if err != nil {
		return nil, fmt.Errorf("pdn: %s: %w", cfg.Name, err)
	}
	// Resolve source references once; every state shares the indices.
	probe := ccp.NewState()
	sinkRef, err := probe.SourceRef("sink")
	if err != nil {
		return nil, err
	}
	vrmRef, err := probe.SourceRef("vrm")
	if err != nil {
		return nil, err
	}
	return &Compiled{cfg: cfg, dt: dt, ccp: ccp, die: die, sinkRef: sinkRef, vrmRef: vrmRef}, nil
}

// Config returns the compiled network's configuration.
func (cp *Compiled) Config() Config { return cp.cfg }

// Dt returns the compiled simulation step in seconds.
func (cp *Compiled) Dt() float64 { return cp.dt }

// New returns a fresh simulation state at the network's DC operating
// point, without touching the pool.
func (cp *Compiled) New() *PDN {
	return &PDN{cfg: cp.cfg, cp: cp, tr: cp.ccp.NewState(), die: cp.die, sinkRef: cp.sinkRef, vrmRef: cp.vrmRef, dt: cp.dt}
}

// Get returns a reset simulation state, reusing a pooled one when
// available. Pair with Put to recycle scratch buffers across runs.
func (cp *Compiled) Get() *PDN {
	if p, ok := cp.pool.Get().(*PDN); ok && p != nil {
		p.Reset()
		return p
	}
	return cp.New()
}

// Put returns a state obtained from Get (or New) to the pool. The
// caller must not use it afterwards.
func (cp *Compiled) Put(p *PDN) {
	if p != nil && p.cp == cp {
		cp.pool.Put(p)
	}
}

// PDN is a live transient simulation of a configured network.
type PDN struct {
	cfg     Config
	cp      *Compiled // nil for states built by New(cfg, dt) directly
	tr      *circuit.Transient
	die     circuit.Node
	sinkRef int
	vrmRef  int
	dt      float64
}

// New compiles a transient PDN simulation with time step dt seconds
// (one CPU clock cycle, typically). Callers that run one network
// repeatedly should Compile once and draw states from the compiled
// handle instead; this convenience path compiles on every call.
func New(cfg Config, dt float64) (*PDN, error) {
	cp, err := Compile(cfg, dt)
	if err != nil {
		return nil, err
	}
	return cp.New(), nil
}

// Config returns the network's configuration.
func (p *PDN) Config() Config { return p.cfg }

// Dt returns the simulation step in seconds.
func (p *PDN) Dt() float64 { return p.dt }

// Compiled returns the compiled handle backing this state.
func (p *PDN) Compiled() *Compiled { return p.cp }

// Reset restores the state to the DC operating point (nominal supply,
// zero sink current) without allocating. A reset state is bit-identical
// to a fresh one.
func (p *PDN) Reset() { p.tr.Reset() }

// Clone returns an independent copy of the live state. Cloning a
// regulator-settled state is how the testbed caches the expensive
// supply settle across repeated voltage-at-failure runs.
func (p *PDN) Clone() *PDN {
	out := *p
	out.tr = p.tr.Clone()
	return &out
}

// CopyStateFrom overwrites this state with src's; both must come from
// the same Compiled handle.
func (p *PDN) CopyStateFrom(src *PDN) { p.tr.CopyStateFrom(src.tr) }

// Step advances one time step with the given die current draw in amps.
func (p *PDN) Step(currentAmps float64) {
	p.tr.SetSourceRef(p.sinkRef, currentAmps)
	p.tr.Step()
}

// VDie returns the most recent on-die supply voltage.
func (p *PDN) VDie() float64 { return p.tr.V(p.die) }

// StepTrace advances len(src) steps in one batched kernel call: step i
// draws sink current src[i]*mul/div + add amps and records the die
// voltage into dst[i]. Bit-identical to the equivalent Step/VDie loop
// (see circuit.Transient.StepTrace); the (mul, div, add) form lets the
// testbed replay a per-cycle energy trace through its exact
// amps-conversion arithmetic without a per-cycle closure.
func (p *PDN) StepTrace(dst, src []float64, mul, div, add float64) {
	p.tr.StepTrace(p.die, p.sinkRef, dst, src, mul, div, add)
}

// StateDim and StateVec expose the network's dynamic state as a flat
// vector (see circuit.Transient.StateVec). The network is linear, so
// one drive period is an affine map over this vector — the replay
// engine samples that map once and then advances period boundaries
// with dense mat-vecs instead of per-cycle MNA solves.
func (p *PDN) StateDim() int          { return p.tr.StateDim() }
func (p *PDN) StateVec(dst []float64) { p.tr.StateVec(dst) }

// SetSupply changes the regulator set-point (used by the
// voltage-at-failure procedure, which lowers Vdd in 12.5 mV steps).
func (p *PDN) SetSupply(volts float64) { p.tr.SetSourceRef(p.vrmRef, volts) }

// SimulateTrace runs a full current trace through a fresh PDN instance
// and returns the die-voltage waveform. Both slices share index i ↔
// time i·dt.
func SimulateTrace(cfg Config, dt float64, current []float64) ([]float64, error) {
	p, err := New(cfg, dt)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(current))
	p.StepTrace(out, current, 1, 1, 0)
	return out, nil
}

// Impedance computes |Z(f)| at the die across the given frequencies.
func Impedance(cfg Config, freqs []float64) ([]float64, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ckt, die := cfg.build()
	z, err := circuit.ACImpedance(ckt, die, freqs)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(z))
	for i := range z {
		out[i] = cmplx.Abs(z[i])
	}
	return out, nil
}

// LogSpace returns n log-spaced frequencies in [lo, hi].
func LogSpace(lo, hi float64, n int) []float64 {
	if n < 2 {
		return []float64{lo}
	}
	out := make([]float64, n)
	ratio := math.Pow(hi/lo, 1/float64(n-1))
	f := lo
	for i := 0; i < n; i++ {
		out[i] = f
		f *= ratio
	}
	return out
}

// ResonancePeak describes one impedance maximum found by FindResonances.
type ResonancePeak struct {
	FreqHz float64
	ZOhms  float64
	// Order is 1 for the highest-frequency (first-droop) peak, counting
	// down in frequency: 2 = package, 3 = board.
	Order int
}

// FindResonances sweeps the impedance between lo and hi Hz and returns
// local maxima, highest frequency first (first droop = Order 1).
func FindResonances(cfg Config, lo, hi float64, points int) ([]ResonancePeak, error) {
	freqs := LogSpace(lo, hi, points)
	z, err := Impedance(cfg, freqs)
	if err != nil {
		return nil, err
	}
	var peaks []ResonancePeak
	for i := 1; i+1 < len(z); i++ {
		if z[i] > z[i-1] && z[i] >= z[i+1] {
			peaks = append(peaks, ResonancePeak{FreqHz: freqs[i], ZOhms: z[i]})
		}
	}
	// Highest frequency first.
	for i, j := 0, len(peaks)-1; i < j; i, j = i+1, j-1 {
		peaks[i], peaks[j] = peaks[j], peaks[i]
	}
	for i := range peaks {
		peaks[i].Order = i + 1
	}
	return peaks, nil
}
