package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/testbed"
	"repro/internal/tracestore"
)

// metricDef is one reported metric. Moves and On name, for a layer
// metric, the end-to-end metric it should move and the workload on
// which to look for it.
type metricDef struct {
	Name, Unit, Better string
	Moves, On          string
}

// endToEnd are the metrics a user of the search sees, measured on the
// timed samples.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "evals_per_s", Unit: "1/s", Better: "higher"},
	{Name: "gen_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "cpu_s", Unit: "s", Better: "lower"},
	{Name: "alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
}

// perLayer are the traced sample's layer metrics, named after the
// package that does the work. Every one is measured on every workload;
// a count that a workload never exercises reads 0 there.
var perLayer = []metricDef{
	{"core.sweep_s", "s", "lower", "setup_s", "search-cold"},
	{"core.compile_ms", "ms", "lower", "setup_s", "search-warm"},
	{"ga.self_s", "s", "lower", "evals_per_s", "search-rom"},
	{"ga.evaluations", "count", "lower", "evals_per_s", "search-rom"},
	{"ga.memo_hit_frac", "fraction", "higher", "evals_per_s", "search-rom"},
	{"ga.retries", "count", "lower", "evals_per_s", "search-dist"},
	{"ga.degraded", "count", "lower", "evals_per_s", "search-dist"},
	{"testbed.batch_s", "s", "lower", "gen_p50_ms", "search-warm"},
	{"testbed.captures", "count", "lower", "evals_per_s", "search-cold"},
	{"testbed.trace_hit_frac", "fraction", "higher", "evals_per_s", "search-cold"},
	{"testbed.memo_hits", "count", "higher", "evals_per_s", "search-warm"},
	{"testbed.lane_occupancy", "lanes", "higher", "evals_per_s", "search-warm"},
	{"testbed.periodic_replays", "count", "higher", "gen_p50_ms", "search-warm"},
	{"testbed.pdn_early_exits", "count", "higher", "gen_p50_ms", "search-warm"},
	{"cpu.capture_ms_per_trace", "ms", "lower", "evals_per_s", "search-cold"},
	{"pdn.replay_cpu_s", "s", "lower", "evals_per_s", "search-warm"},
	{"pdn.replay_ms_per_trace", "ms", "lower", "evals_per_s", "search-warm"},
	{"pdn.exact_replays", "count", "lower", "evals_per_s", "search-warm"},
	{"pdn.rom_replays", "count", "higher", "evals_per_s", "search-rom"},
	{"tracestore.hits", "count", "higher", "evals_per_s", "search-warm"},
	{"tracestore.records", "count", "lower", "setup_s", "search-warm"},
	{"tracestore.bytes_on_disk", "bytes", "lower", "alloc_mb", "search-cold"},
	{"tracestore.decode_ms_per_record", "ms", "lower", "evals_per_s", "search-warm"},
	{"tracestore.encode_ms_per_record", "ms", "lower", "evals_per_s", "search-cold"},
	{"tracestore.put_ms_per_record", "ms", "lower", "evals_per_s", "search-cold"},
	{"dist.units_remote", "count", "higher", "evals_per_s", "search-dist"},
	{"dist.units_local", "count", "lower", "evals_per_s", "search-dist"},
	{"dist.lease_expiries", "count", "lower", "gen_p50_ms", "search-dist"},
	{"dist.requeues", "count", "lower", "gen_p50_ms", "search-dist"},
	{"dist.rpc_count", "count", "lower", "cpu_s", "search-dist"},
	{"dist.wire_bytes", "bytes", "lower", "alloc_mb", "search-dist"},
	{"dist.tier_hits", "count", "higher", "evals_per_s", "search-dist"},
	{"dist.tier_claims", "count", "lower", "evals_per_s", "search-dist"},
	{"dist.tier_waits", "count", "lower", "gen_p50_ms", "search-dist"},
	{"dist.worker_idle_frac", "fraction", "lower", "evals_per_s", "search-dist"},
}

// ledger is a traced sample's account of where the search's time went.
type ledger struct {
	// Layers holds every perLayer metric.
	Layers map[string]float64 `json:"layers"`
	// Detail holds timings that exist on some workloads only (capture
	// CPU, dist pool and RPC latencies); they are printed, not gated.
	Detail map[string]float64 `json:"detail"`
	// SelfS is self time by layer over the coordinator's span tree;
	// its values sum to RootS.
	SelfS    map[string]float64 `json:"self_s"`
	RootS    float64            `json:"root_s"`
	SumSelfS float64            `json:"sum_self_s"`
	// WorkerS is, for dist, the workers' busy and control-RPC time inside
	// the coordinator's batch windows, and BatchS those windows' length.
	WorkerS float64 `json:"worker_s"`
	BatchS  float64 `json:"batch_s"`
}

// layerOf names the layer a span's self time belongs to. The root's
// self time is everything Generate does between the runner calls once
// set-up is carved out: the GA loop and code generation.
func layerOf(name string) string {
	if name == "core.Generate" {
		return "ga"
	}
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// controlRPC reports whether a span is one of a worker's own
// sequential RPCs (heartbeats run beside a unit, trace calls inside it).
func controlRPC(name string) bool {
	switch name {
	case "dist.rpc.register", "dist.rpc.lease", "dist.rpc.result":
		return true
	}
	return false
}

// traceLedger turns a traced sample's spans and counters into its
// ledger. plat is the searched platform (for the compile timing),
// store the sample's trace store and scratch an empty directory the
// store round-trip may write into.
func traceLedger(tr *tracer, s *sample, plat testbed.Platform, pool *distPool, store, scratch string) (*ledger, error) {
	spans := tr.closed()
	self := selfTimes(spans)
	lg := &ledger{Layers: map[string]float64{}, Detail: map[string]float64{}, SelfS: map[string]float64{}}
	for _, d := range perLayer {
		lg.Layers[d.Name] = 0
	}
	tree := subtree(spans, 0)
	var batches []span
	for _, sp := range tree {
		lg.SelfS[layerOf(sp.Name)] += self[sp.ID]
		lg.SumSelfS += self[sp.ID]
		switch sp.Name {
		case "core.Generate":
			lg.RootS = sp.dur()
			lg.Layers["ga.self_s"] = self[sp.ID]
		case "core.sweep":
			lg.Layers["core.sweep_s"] = sp.dur()
		case "dist.pool_start":
			lg.Detail["dist.pool_start_s"] = sp.dur()
		case "testbed.batch", "dist.batch":
			batches = append(batches, sp)
			lg.Layers["testbed.batch_s"] += sp.dur()
		}
	}

	var compiles []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := plat.Compile(); err != nil {
			return nil, err
		}
		compiles = append(compiles, ms(time.Since(t0)))
	}
	_, lg.Layers["core.compile_ms"], _ = quartiles(compiles)

	st := s.Stats
	lg.Layers["ga.evaluations"] = float64(s.Evaluations)
	lg.Layers["ga.memo_hit_frac"] = ratio(s.CacheHits, s.Candidates)
	lg.Layers["ga.retries"] = float64(s.Retries)
	lg.Layers["ga.degraded"] = float64(s.Degraded)
	lg.Layers["testbed.captures"] = float64(st.Captures)
	lg.Layers["testbed.trace_hit_frac"] = ratio(st.Hits, st.Hits+st.Misses)
	lg.Layers["testbed.memo_hits"] = float64(st.MemoHits)
	lg.Layers["testbed.lane_occupancy"] = ratio(st.LaneRuns, st.LaneBatches)
	lg.Layers["testbed.periodic_replays"] = float64(st.PeriodicReplays)
	lg.Layers["testbed.pdn_early_exits"] = float64(st.PDNEarlyExits)
	// A warm search captures nothing; its per-trace capture cost is the
	// one recorded in the store records that spared it the capture.
	if st.Captures > 0 {
		lg.Layers["cpu.capture_ms_per_trace"] = ratio(st.CaptureNS, st.Captures) / 1e6
	} else {
		lg.Layers["cpu.capture_ms_per_trace"] = ratio(st.CaptureNSSaved, st.StoreHits+st.TierHits) / 1e6
	}
	lg.Detail["cpu.capture_cpu_s"] = float64(st.CaptureNS) / 1e9
	lg.Layers["pdn.replay_cpu_s"] = float64(st.ReplayNS) / 1e9
	lg.Layers["pdn.replay_ms_per_trace"] = ratio(st.ReplayNS, st.ROMReplays+st.ExactReplays) / 1e6
	lg.Layers["pdn.exact_replays"] = float64(st.ExactReplays)
	lg.Layers["pdn.rom_replays"] = float64(st.ROMReplays)
	lg.Layers["tracestore.hits"] = float64(st.StoreHits + st.TierHits)
	if err := storeRoundTrip(lg, store, scratch); err != nil {
		return nil, err
	}
	if pool != nil {
		distLedger(lg, spans, batches, pool, tr.wire.Load())
	}
	return lg, nil
}

func ratio[T int | uint64](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// storeRecordSample bounds the records the store round-trip times:
// enough for a stable median, few enough that the fsync per put stays
// a small part of the traced run.
const storeRecordSample = 32

// storeRoundTrip walks the store after the search (records, bytes) and
// times each layer of the record path on a fixed subset of records:
// Decode and Encode on their own, and PutRaw into a scratch store.
func storeRoundTrip(lg *ledger, dir, scratch string) error {
	src, err := tracestore.Open(dir, 0)
	if err != nil {
		return err
	}
	dst, err := tracestore.Open(scratch, 0)
	if err != nil {
		return err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var addrs []string
	for _, e := range ents {
		if addr, ok := strings.CutSuffix(e.Name(), ".trace"); ok && tracestore.ValidAddr(addr) {
			addrs = append(addrs, addr)
		}
	}
	sort.Strings(addrs)
	lg.Layers["tracestore.records"] = float64(len(addrs))
	lg.Layers["tracestore.bytes_on_disk"] = float64(src.SizeBytes())
	var dec, enc, put []float64
	for i, addr := range addrs {
		if i == storeRecordSample {
			break
		}
		blob, ok := src.GetRaw(addr)
		if !ok {
			return fmt.Errorf("store record %s unreadable", addr)
		}
		t0 := time.Now()
		rec, ok := tracestore.Decode(blob)
		t1 := time.Now()
		if !ok {
			return fmt.Errorf("store record %s does not decode", addr)
		}
		out := tracestore.Encode(rec)
		t2 := time.Now()
		if err := dst.PutRaw(addr, out); err != nil {
			return err
		}
		t3 := time.Now()
		dec = append(dec, ms(t1.Sub(t0)))
		enc = append(enc, ms(t2.Sub(t1)))
		put = append(put, ms(t3.Sub(t2)))
	}
	_, lg.Layers["tracestore.decode_ms_per_record"], _ = quartiles(dec)
	_, lg.Layers["tracestore.encode_ms_per_record"], _ = quartiles(enc)
	_, lg.Layers["tracestore.put_ms_per_record"], _ = quartiles(put)
	return nil
}

// distLedger fills the dist layer from the coordinator's and workers'
// counters and the worker-side spans.
func distLedger(lg *ledger, spans, batches []span, pool *distPool, wire int64) {
	cs := pool.co.Stats()
	ts := pool.co.TraceTierStats()
	lg.Layers["dist.units_remote"] = float64(cs.UnitsRemote)
	lg.Layers["dist.units_local"] = float64(cs.UnitsLocal)
	lg.Layers["dist.lease_expiries"] = float64(cs.LeaseExpiries)
	lg.Layers["dist.requeues"] = float64(cs.Requeues)
	lg.Layers["dist.wire_bytes"] = float64(wire)
	lg.Layers["dist.tier_hits"] = float64(ts.Hits)
	lg.Layers["dist.tier_claims"] = float64(ts.Claims)
	lg.Layers["dist.tier_waits"] = float64(ts.Waits)

	var busy, rpcs []span
	byEndpoint := map[string][]float64{}
	var all, fetch []float64
	for _, sp := range spans {
		switch {
		case sp.Name == "dist.worker_busy":
			busy = append(busy, sp)
			lg.Detail["dist.worker_busy_s"] += sp.dur()
		case strings.HasPrefix(sp.Name, "dist.rpc."):
			all = append(all, sp.dur()*1e3)
			ep := strings.TrimPrefix(sp.Name, "dist.rpc.")
			byEndpoint[ep] = append(byEndpoint[ep], sp.dur()*1e3)
			if controlRPC(sp.Name) {
				rpcs = append(rpcs, sp)
			}
		case sp.Name == "dist.tier_fetch":
			fetch = append(fetch, sp.dur()*1e3)
		}
	}
	lg.Layers["dist.rpc_count"] = float64(len(all))
	lg.Detail["dist.rpc_p50_ms"] = percentile(all, 50)
	if p := tailPercentile(len(all)); p > 0 {
		lg.Detail[fmt.Sprintf("dist.rpc_p%d_ms", p)] = percentile(all, float64(p))
	}
	for _, ep := range []string{"lease", "result", "trace_get", "trace_put"} {
		if xs := byEndpoint[ep]; len(xs) > 0 {
			lg.Detail["dist.rpc."+ep+"_p50_ms"] = percentile(xs, 50)
		}
	}
	if len(fetch) > 0 {
		lg.Detail["dist.tier_fetch_p50_ms"] = percentile(fetch, 50)
	}

	// Each worker runs lease → unit → result in sequence, so inside the
	// batch windows its busy and control-RPC spans cannot add up to more
	// than the windows: the pool total is bounded by distWorkers × BatchS.
	var busyIn float64
	for _, b := range batches {
		lg.BatchS += b.dur()
		for _, sp := range busy {
			busyIn += clip(sp, b)
		}
		for _, sp := range rpcs {
			lg.WorkerS += clip(sp, b)
		}
	}
	lg.WorkerS += busyIn
	if lg.BatchS > 0 {
		lg.Layers["dist.worker_idle_frac"] = 1 - busyIn/(distWorkers*lg.BatchS)
	}
}

// clip is the length of sp's interval inside w's.
func clip(sp, w span) float64 {
	return max(0, min(sp.End, w.End)-max(sp.Start, w.Start))
}
