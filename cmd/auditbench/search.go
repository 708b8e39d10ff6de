package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/ga"
	"repro/internal/testbed"
	"repro/internal/tracestore"
)

// romTolV is the search-rom tolerance: loose enough that every replay
// of this search is admitted to the reduced-order kernel.
const romTolV = 1e-5

// distWorkers is the search-dist pool size. Like GA.Parallel it is
// fixed here, never read from the machine, so every machine runs the
// same load; all of it shares the sample's sampleProcs cores.
const distWorkers = 2

// poolStartTimeout bounds worker registration; on loopback it takes
// milliseconds.
const poolStartTimeout = 10 * time.Second

// searchSize is the part of the search a test may shrink.
type searchSize struct {
	Pop, Gens     int
	MeasureCycles uint64
}

// benchSize is the search every workload runs. StagnantLimit 0 below
// fixes the work: every sample scores Pop + Gens×(Pop−Elites)
// candidates in Gens+1 generation batches.
var benchSize = searchSize{Pop: 24, Gens: 4, MeasureCycles: 20000}

// searchOptions is the one search all four workloads run; they differ
// only in what sits beneath it (store state, replay kernel, transport).
func searchOptions(seed int64, size searchSize) core.Options {
	return core.Options{
		Platform:      testbed.Bulldozer(),
		Threads:       4,
		LoopCycles:    0, // run the resonance sweep
		MeasureCycles: size.MeasureCycles,
		WarmupCycles:  3000,
		GA: ga.Config{
			PopSize: size.Pop, Elites: 2, TournamentK: 3, MutationProb: 0.6,
			MaxGenerations: size.Gens, StagnantLimit: 0, Parallel: 2,
		},
		Seed: seed,
	}
}

// sample is what one search reports back to the harness. Times are
// wall-clock seconds as measured; CPUS and PeakRSSMB are filled in by
// the parent from the child process's rusage.
type sample struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Hash        string             `json:"hash"`
	SetupS      float64            `json:"setup_s"`
	SearchS     float64            `json:"search_s"`
	Candidates  int                `json:"candidates"`
	GenMS       []float64          `json:"gen_ms"`
	AllocMB     float64            `json:"alloc_mb"`
	Evaluations int                `json:"evaluations"`
	CacheHits   int                `json:"cache_hits"`
	Retries     int                `json:"retries"`
	Degraded    int                `json:"degraded"`
	Stats       testbed.TraceStats `json:"stats"`
	CPUS        float64            `json:"cpu_s"`
	PeakRSSMB   float64            `json:"peak_rss_mb"`
	// RefS is the median hostRef while the sample ran, filled in by the
	// harness.
	RefS float64 `json:"ref_s"`
	// Ledger is a traced sample's per-layer account; Spans names the
	// file its spans were written to.
	Ledger *ledger `json:"ledger,omitempty"`
	Spans  string  `json:"spans,omitempty"`
}

// timedRunner is the only seam a timed sample adds to the search: it
// stamps each generation batch as it enters the runner and the last
// one as it returns, which is all setup_s and the generation latencies
// need. With a tracer attached it also records one span per batch.
type timedRunner struct {
	inner testbed.ContextBatchRunner
	tr    *tracer
	root  int
	name  string

	starts []time.Time
	end    time.Time
}

func (r *timedRunner) Run(rc testbed.RunConfig) (*testbed.Measurement, error) {
	id := r.tr.begin("testbed.run", r.root)
	defer r.tr.end(id)
	return r.inner.Run(rc)
}

func (r *timedRunner) MeasureBatch(rcs []testbed.RunConfig, lanes, workers int) ([]*testbed.Measurement, []error) {
	return r.MeasureBatchContext(context.Background(), rcs, lanes, workers)
}

// MeasureBatchContext is called once per generation, never
// concurrently: the GA sends the next generation only after the last
// one is scored.
func (r *timedRunner) MeasureBatchContext(ctx context.Context, rcs []testbed.RunConfig, lanes, workers int) ([]*testbed.Measurement, []error) {
	r.starts = append(r.starts, time.Now())
	id := r.tr.begin(r.name, r.root)
	ms, errs := r.inner.MeasureBatchContext(ctx, rcs, lanes, workers)
	r.tr.end(id)
	r.end = time.Now()
	return ms, errs
}

// genLatencies is the per-generation wall time: the gap between
// consecutive batch starts, and for the last batch its own duration.
func (r *timedRunner) genLatencies() []float64 {
	var out []float64
	for i, s := range r.starts {
		next := r.end
		if i+1 < len(r.starts) {
			next = r.starts[i+1]
		}
		out = append(out, ms(next.Sub(s)))
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runSample runs one search and checks nothing: the harness compares
// hashes across samples and workloads.
func runSample(ctx context.Context, req sampleReq) (*sample, error) {
	w, ok := workloadByName(req.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", req.Workload)
	}
	opt := searchOptions(req.Seed, req.Size)
	opt.TraceStorePath = req.Store
	if w.ROM {
		opt.ROMTolV = romTolV
	}
	var tr *tracer
	if req.Traced {
		tr = newTracer()
	}
	root := tr.begin("core.Generate", -1)
	sweep := tr.begin("core.sweep", root)
	batchName := "testbed.batch"
	if w.Dist {
		batchName = "dist.batch"
	}
	timed := &timedRunner{tr: tr, root: root, name: batchName}
	var pool *distPool
	var poolErr error
	opt.WrapRunner = func(r testbed.Runner) testbed.Runner {
		tr.end(sweep)
		local, ok := r.(dist.LocalRunner)
		if !ok {
			poolErr = fmt.Errorf("runner %T cannot batch", r)
			return nil
		}
		timed.inner = local
		if w.Dist {
			id := tr.begin("dist.pool_start", root)
			pool, poolErr = startPool(opt.Platform, local, req.Store, tr)
			tr.end(id)
			if poolErr != nil {
				return nil
			}
			timed.inner = pool.co
		}
		return timed
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	sm, err := core.Generate(ctx, opt)
	stop := time.Now()
	tr.end(root)
	runtime.ReadMemStats(&m1)
	if pool != nil {
		pool.close()
	}
	if poolErr != nil {
		return nil, fmt.Errorf("%s: start worker pool: %w", w.Name, poolErr)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	if len(timed.starts) == 0 {
		return nil, fmt.Errorf("%s: search never reached the batch runner", w.Name)
	}
	res := sm.Search
	s := &sample{
		Workload:    w.Name,
		Seed:        req.Seed,
		Hash:        resultHash(res),
		SetupS:      timed.starts[0].Sub(start).Seconds(),
		SearchS:     stop.Sub(timed.starts[0]).Seconds(),
		Candidates:  res.Evaluations + res.CacheHits,
		GenMS:       timed.genLatencies(),
		AllocMB:     float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		Evaluations: res.Evaluations,
		CacheHits:   res.CacheHits,
		Retries:     res.Retries,
		Degraded:    res.Degraded,
		Stats:       sm.TraceStats,
	}
	if pool != nil {
		for _, cp := range pool.workers {
			s.Stats = addStats(s.Stats, cp.TraceStats())
		}
	}
	if tr != nil {
		if err := traceSample(tr, s, opt.Platform, pool, req); err != nil {
			return nil, fmt.Errorf("%s: traced sample: %w", w.Name, err)
		}
	}
	return s, nil
}

// traceSample writes a traced sample's spans to req.Out and attaches
// its ledger.
func traceSample(tr *tracer, s *sample, plat testbed.Platform, pool *distPool, req sampleReq) error {
	scratch, err := os.MkdirTemp(req.Out, "store-roundtrip-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	if s.Ledger, err = traceLedger(tr, s, plat, pool, req.Store, scratch); err != nil {
		return err
	}
	blob, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{s.Workload, s.Seed, tr.closed()})
	if err != nil {
		return err
	}
	s.Spans = filepath.Join(req.Out, fmt.Sprintf("%s-seed%d.spans.json", s.Workload, s.Seed))
	return os.WriteFile(s.Spans, blob, 0o644)
}

// resultHash is FNV-1a over everything the search decided: the winner,
// the float bits of every score it kept, and its work counters.
func resultHash(r *ga.Result[core.Genome]) string {
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	h.Write([]byte(r.Best.Fingerprint()))
	put(math.Float64bits(r.BestFitness))
	for _, f := range r.Fitnesses {
		put(math.Float64bits(f))
	}
	for _, f := range r.History {
		put(math.Float64bits(f))
	}
	put(uint64(r.Evaluations))
	put(uint64(r.CacheHits))
	put(uint64(r.Generations))
	return fmt.Sprintf("%016x", h.Sum64())
}

// addStats sums two TraceStats field by field. Every field is a count
// or a nanosecond total, so the sum is the pool-wide figure.
func addStats(a, b testbed.TraceStats) testbed.TraceStats {
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		f := va.Field(i)
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(f.Uint() + vb.Field(i).Uint())
		case reflect.Int:
			f.SetInt(f.Int() + vb.Field(i).Int())
		}
	}
	return a
}

// distPool is search-dist's fabric: a coordinator serving the trace
// tier on a loopback server and in-process workers, each with its own
// compiled platform and tier client, all sharing one HTTP client.
type distPool struct {
	co        *dist.Coordinator
	srv       *httptest.Server
	transport *http.Transport
	workers   []*testbed.CompiledPlatform
	cancel    context.CancelFunc
	wg        sync.WaitGroup
}

// startPool brings the pool up and returns once every worker has
// registered, so pool start is part of the sample's set-up time.
func startPool(plat testbed.Platform, local dist.LocalRunner, storeDir string, tr *tracer) (*distPool, error) {
	st, err := tracestore.Open(storeDir, 0)
	if err != nil {
		return nil, err
	}
	digest := testbed.PlatformDigest(plat)
	co, err := dist.NewCoordinator(dist.Config{Local: local, Platform: digest, TraceStore: st})
	if err != nil {
		return nil, err
	}
	p := &distPool{co: co, srv: httptest.NewServer(co.Handler())}
	p.transport = http.DefaultTransport.(*http.Transport).Clone()
	client := &http.Client{Transport: tr.transport(p.transport)}
	ctx, cancel := context.WithCancel(context.Background())
	p.cancel = cancel
	for i := 0; i < distWorkers; i++ {
		id := fmt.Sprintf("w%d", i)
		cp, err := plat.Compile()
		if err != nil {
			p.close()
			return nil, err
		}
		tier, err := dist.NewTraceTierClient(dist.TraceTierConfig{BaseURL: p.srv.URL, WorkerID: id, HTTPClient: client})
		if err != nil {
			p.close()
			return nil, err
		}
		wroot := tr.begin("dist.worker", -1)
		cp.SetTraceTier(tr.tier(tier, wroot))
		w, err := dist.NewWorker(dist.WorkerConfig{
			ID: id, BaseURL: p.srv.URL, Runner: tr.busy(cp, wroot),
			Platform: digest, HTTPClient: client,
		})
		if err != nil {
			p.close()
			return nil, err
		}
		p.workers = append(p.workers, cp)
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			defer tr.end(wroot)
			w.Run(ctx)
		}()
	}
	for deadline := time.Now().Add(poolStartTimeout); co.LiveWorkers() < distWorkers; {
		if time.Now().After(deadline) {
			n := co.LiveWorkers()
			p.close()
			return nil, fmt.Errorf("%d of %d workers registered within %v", n, distWorkers, poolStartTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	return p, nil
}

// close stops the workers, waits for them to exit, then stops the
// server.
func (p *distPool) close() {
	p.cancel()
	p.wg.Wait()
	p.transport.CloseIdleConnections()
	p.srv.Close()
}
