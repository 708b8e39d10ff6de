package main

// workload is one named way of running the search: what sits beneath
// it and why that set-up earns its place in the benchmark.
type workload struct {
	Name string
	// Warm runs against the trace store an untimed cold search of the
	// same seed filled; otherwise every sample starts with an empty one.
	Warm bool
	// ROM admits every replay to the reduced-order PDN kernel.
	ROM bool
	// Dist evaluates generations on a loopback worker pool.
	Dist bool
	Why  string
}

var workloads = []workload{
	{Name: "search-cold", Why: "empty trace store: capture dominates and every trace is encoded and written through, the store's write side"},
	{Name: "search-warm", Warm: true, Why: "store filled by a cold run of the same seed: zero captures, time goes to store decode, exact multi-lane PDN replay and GA"},
	{Name: "search-rom", Warm: true, ROM: true, Why: "as warm but every replay runs on the ROM kernel: an exact-kernel change must not move it; ROM and GA costs show"},
	{Name: "search-dist", Dist: true, Why: "coordinator and two loopback workers with the trace tier on an empty store: RPC, JSON wire, leases and the tier"},
}

// needsRef reports whether w's samples are checked against cold
// reference searches, which the harness makes before timing anything.
// Warm workloads also read the store those searches fill.
func (w workload) needsRef() bool { return w.Warm || w.Dist }

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
