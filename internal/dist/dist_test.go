package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/scope"
	"repro/internal/testbed"
	"repro/internal/workloads"
)

// compiled builds a fresh compiled Bulldozer platform.
func compiled(t testing.TB) *testbed.CompiledPlatform {
	t.Helper()
	cp, err := testbed.Bulldozer().Compile()
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// distSlate builds n distinct distributable run configurations around
// real stressmark programs.
func distSlate(t testing.TB, n int) []testbed.RunConfig {
	t.Helper()
	p := testbed.Bulldozer()
	rcs := make([]testbed.RunConfig, n)
	for i := range rcs {
		threads, err := testbed.SpreadPlacement(p.Chip, workloads.SMRes(24+2*i), 4)
		if err != nil {
			t.Fatal(err)
		}
		rcs[i] = testbed.RunConfig{
			Threads:      threads,
			MaxCycles:    4000,
			WarmupCycles: 500,
			SupplyVolts:  p.Nominal() - 0.04,
		}
	}
	return rcs
}

// fastCoordinator builds a coordinator with test-friendly timing.
func fastCoordinator(t *testing.T, local LocalRunner, mut func(*Config)) (*Coordinator, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Local:    local,
		UnitSize: 2,
		LeaseTTL: 250 * time.Millisecond,
		Logf:     t.Logf,
	}
	if mut != nil {
		mut(&cfg)
	}
	co, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(co.Handler())
	t.Cleanup(srv.Close)
	return co, srv
}

// startWorker runs an in-process worker until the test (or the
// returned cancel) stops it.
func startWorker(t *testing.T, url, id string, runner testbed.ContextBatchRunner) (cancel func(), done chan error) {
	t.Helper()
	w, err := NewWorker(WorkerConfig{
		ID: id, BaseURL: url, Runner: runner,
		Poll: 5 * time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	done = make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	t.Cleanup(func() { stop(); <-done })
	return stop, done
}

// waitWorkers blocks until n workers are live on the coordinator.
func waitWorkers(t *testing.T, co *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for co.LiveWorkers() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers registered", co.LiveWorkers(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// rpcJSON is a bare test-side client for driving the protocol by hand.
func rpcJSON(t *testing.T, url, path string, req, reply any) {
	t.Helper()
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: HTTP %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(reply); err != nil {
		t.Fatal(err)
	}
}

// checkMatchesLocal asserts the distributed outcome is bit-identical
// to a fresh local platform's batch: same measurements (DeepEqual) and
// same error texts slot for slot.
func checkMatchesLocal(t *testing.T, rcs []testbed.RunConfig, ms []*testbed.Measurement, errs []error) {
	t.Helper()
	ref := compiled(t)
	wantMs, wantErrs := ref.MeasureBatch(rcs, 0, 2)
	for i := range rcs {
		if (errs[i] == nil) != (wantErrs[i] == nil) {
			t.Fatalf("slot %d: err = %v, local err = %v", i, errs[i], wantErrs[i])
		}
		if errs[i] != nil {
			if errs[i].Error() != wantErrs[i].Error() {
				t.Errorf("slot %d: err %q, local err %q", i, errs[i], wantErrs[i])
			}
			continue
		}
		if !reflect.DeepEqual(ms[i], wantMs[i]) {
			t.Errorf("slot %d: distributed measurement differs from local:\n got %+v\nwant %+v", i, ms[i], wantMs[i])
		}
	}
}

// TestWireUnitRoundTrip: RunConfigs survive the wire bit-identically —
// programs round-trip through asm encode/decode, scalars through JSON.
func TestWireUnitRoundTrip(t *testing.T) {
	rcs := distSlate(t, 3)
	rcs[1].Dither = []testbed.DitherSpec{{Core: 1, PeriodCycles: 64, PadCycles: 2}}
	rcs[2].RecordWaveform = true
	rcs[2].TriggerThreshold = 0.05
	// Shared program: slots 0 and 1 reuse one pointer; the table must
	// carry it once.
	rcs[1].Threads = rcs[0].Threads

	u, err := encodeUnit(7, 3, rcs)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(u.Programs); got != 2 {
		t.Errorf("program table has %d entries, want 2 (dedup)", got)
	}
	// Through JSON, as the transport would see it.
	blob, err := json.Marshal(u)
	if err != nil {
		t.Fatal(err)
	}
	var u2 WireUnit
	if err := json.Unmarshal(blob, &u2); err != nil {
		t.Fatal(err)
	}
	back, err := decodeUnit(&u2)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(rcs) {
		t.Fatalf("decoded %d slots, want %d", len(back), len(rcs))
	}
	for i := range rcs {
		want := rcs[i]
		got := back[i]
		if !reflect.DeepEqual(got.Dither, want.Dither) || got.MaxCycles != want.MaxCycles ||
			got.SupplyVolts != want.SupplyVolts || got.RecordWaveform != want.RecordWaveform ||
			got.TriggerThreshold != want.TriggerThreshold {
			t.Errorf("slot %d scalars differ: got %+v want %+v", i, got, want)
		}
		for k := range want.Threads {
			if !reflect.DeepEqual(got.Threads[k].Program, want.Threads[k].Program) {
				t.Errorf("slot %d thread %d program differs after round trip", i, k)
			}
			if got.Threads[k].Module != want.Threads[k].Module || got.Threads[k].Core != want.Threads[k].Core {
				t.Errorf("slot %d thread %d placement differs", i, k)
			}
		}
	}
}

// TestWireMeasurementRoundTrip: a real Measurement survives JSON
// bit-exactly — the float64 fields the whole determinism argument
// depends on included.
func TestWireMeasurementRoundTrip(t *testing.T) {
	cp := compiled(t)
	rc := distSlate(t, 1)[0]
	rc.RecordWaveform = true
	m, err := cp.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(WireResult{M: m})
	if err != nil {
		t.Fatal(err)
	}
	var wr WireResult
	if err := json.Unmarshal(blob, &wr); err != nil {
		t.Fatal(err)
	}
	got, err := decodeResult(wr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("measurement changed across the wire:\n got %+v\nwant %+v", got, m)
	}
}

// TestRemoteErrorClassification: wire errors keep their transient /
// permanent class through encode → decode.
func TestRemoteErrorClassification(t *testing.T) {
	tr, err := decodeResult(encodeResult(nil, &RemoteError{Msg: "boom", IsTransient: true}))
	if tr != nil || !transient(err) {
		t.Errorf("transient error lost its class: %v", err)
	}
	perm, err := decodeResult(encodeResult(nil, errors.New("bad config")))
	if perm != nil || transient(err) || err.Error() != "bad config" {
		t.Errorf("permanent error mangled: %v", err)
	}
}

// TestDistributedMatchesLocal: two workers, mixed batch (distributable,
// non-distributable, invalid) — outcome bit-identical to a single local
// platform.
func TestDistributedMatchesLocal(t *testing.T) {
	co, srv := fastCoordinator(t, compiled(t), nil)
	startWorker(t, srv.URL, "w1", compiled(t))
	startWorker(t, srv.URL, "w2", compiled(t))
	waitWorkers(t, co, 2)

	rcs := distSlate(t, 5)
	hist, err := scope.NewHistogram(0.9, 1.4, 64)
	if err != nil {
		t.Fatal(err)
	}
	rcs[2].Histogram = hist                              // must stay local
	rcs = append(rcs, testbed.RunConfig{MaxCycles: 100}) // invalid: no threads

	ms, errs := co.MeasureBatchContext(context.Background(), rcs, 0, 2)
	checkMatchesLocal(t, rcs, ms, errs)

	st := co.Stats()
	if st.UnitsRemote == 0 {
		t.Errorf("no units went remote: %+v", st)
	}
	if st.UnitsLocal == 0 {
		t.Errorf("histogram slot did not run locally: %+v", st)
	}
}

// TestNoWorkersDegradesToLocal: an empty pool must not hang the batch —
// the coordinator evaluates everything itself.
func TestNoWorkersDegradesToLocal(t *testing.T) {
	co, _ := fastCoordinator(t, compiled(t), func(c *Config) {
		c.LeaseTTL = 50 * time.Millisecond
	})
	rcs := distSlate(t, 4)
	ms, errs := co.MeasureBatchContext(context.Background(), rcs, 0, 2)
	checkMatchesLocal(t, rcs, ms, errs)
	st := co.Stats()
	if st.UnitsRemote != 0 || st.UnitsLocal == 0 {
		t.Errorf("expected pure local degradation, got %+v", st)
	}
}

// TestLeaseExpiryReassigns: a worker that leases a unit and goes silent
// loses it to the TTL; a live worker (or the coordinator) finishes the
// batch with correct results.
func TestLeaseExpiryReassigns(t *testing.T) {
	co, srv := fastCoordinator(t, compiled(t), func(c *Config) {
		c.LeaseTTL = 120 * time.Millisecond
	})

	// Ghost worker grabs the first unit by hand and never comes back.
	var reg registerReply
	rpcJSON(t, srv.URL, "/v1/register", &registerRequest{WorkerID: "ghost"}, &reg)
	if !reg.OK {
		t.Fatalf("register: %+v", reg)
	}
	rcs := distSlate(t, 4)
	type out struct {
		ms   []*testbed.Measurement
		errs []error
	}
	res := make(chan out, 1)
	go func() {
		ms, errs := co.MeasureBatchContext(context.Background(), rcs, 0, 2)
		res <- out{ms, errs}
	}()
	// Wait until the ghost actually holds a lease.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var lease leaseReply
		rpcJSON(t, srv.URL, "/v1/lease", &leaseRequest{WorkerID: "ghost"}, &lease)
		if lease.Unit != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ghost never got a lease")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Now bring up a real worker; the ghost's unit must be reissued.
	startWorker(t, srv.URL, "real", compiled(t))

	o := <-res
	checkMatchesLocal(t, rcs, o.ms, o.errs)
	if st := co.Stats(); st.LeaseExpiries == 0 || st.Requeues == 0 {
		t.Errorf("ghost's lease never expired: %+v", st)
	}
}

// TestResultAtMostOnce: the same unit result posted twice (a
// retransmission) merges once; the duplicate is acknowledged and
// dropped.
func TestResultAtMostOnce(t *testing.T) {
	// The manual worker below never heartbeats, and under -race its
	// MeasureBatch can outlive a short lease; the unit would then be
	// requeued, run again locally, and its first result counted as a
	// second duplicate. A lease it cannot outlive keeps the count exact.
	co, srv := fastCoordinator(t, compiled(t), func(c *Config) { c.LeaseTTL = time.Minute })
	var reg registerReply
	rpcJSON(t, srv.URL, "/v1/register", &registerRequest{WorkerID: "manual"}, &reg)

	rcs := distSlate(t, 2)
	type out struct {
		ms   []*testbed.Measurement
		errs []error
	}
	res := make(chan out, 1)
	go func() {
		ms, errs := co.MeasureBatchContext(context.Background(), rcs, 0, 1)
		res <- out{ms, errs}
	}()
	var lease leaseReply
	deadline := time.Now().Add(5 * time.Second)
	for lease.Unit == nil {
		if time.Now().After(deadline) {
			t.Fatal("no lease")
		}
		rpcJSON(t, srv.URL, "/v1/lease", &leaseRequest{WorkerID: "manual"}, &lease)
	}
	urcs, err := decodeUnit(lease.Unit)
	if err != nil {
		t.Fatal(err)
	}
	wcp := compiled(t)
	ms, errs := wcp.MeasureBatch(urcs, 0, 1)
	req := resultRequest{WorkerID: "manual", Unit: lease.Unit.ID, Slots: make([]WireResult, len(urcs))}
	for i := range urcs {
		req.Slots[i] = encodeResult(ms[i], errs[i])
	}
	var r1, r2 resultReply
	rpcJSON(t, srv.URL, "/v1/result", &req, &r1)
	rpcJSON(t, srv.URL, "/v1/result", &req, &r2)
	if !r1.OK || !r2.OK {
		t.Fatalf("result posts not acknowledged: %v %v", r1, r2)
	}
	o := <-res
	checkMatchesLocal(t, rcs, o.ms, o.errs)
	st := co.Stats()
	if st.DuplicateResults != 1 {
		t.Errorf("DuplicateResults = %d, want 1: %+v", st.DuplicateResults, st)
	}
	if st.LeaseExpiries != 0 {
		t.Errorf("LeaseExpiries = %d, want 0: %+v", st.LeaseExpiries, st)
	}
}

// TestCircuitBreakerEvicts: a worker that keeps failing units is
// suspended with backoff and finally evicted; the batch still finishes
// correctly without it.
func TestCircuitBreakerEvicts(t *testing.T) {
	co, srv := fastCoordinator(t, compiled(t), func(c *Config) {
		c.LeaseTTL = 100 * time.Millisecond
		c.BreakerTrips = 1
		c.MaxSuspensions = 1
		c.SuspendBase = 10 * time.Millisecond
		// Keep units remotable long enough for the worker to fail twice
		// (suspension, then eviction) before local fallback takes over.
		c.MaxUnitRetries = 10
	})
	var reg registerReply
	rpcJSON(t, srv.URL, "/v1/register", &registerRequest{WorkerID: "sick"}, &reg)

	rcs := distSlate(t, 2)
	type out struct {
		ms   []*testbed.Measurement
		errs []error
	}
	res := make(chan out, 1)
	go func() {
		ms, errs := co.MeasureBatchContext(context.Background(), rcs, 0, 1)
		res <- out{ms, errs}
	}()

	// Fail every unit we can lease until the breaker trips.
	evicted := false
	deadline := time.Now().Add(10 * time.Second)
	for !evicted && time.Now().Before(deadline) {
		var lease leaseReply
		rpcJSON(t, srv.URL, "/v1/lease", &leaseRequest{WorkerID: "sick"}, &lease)
		switch {
		case lease.Evicted:
			evicted = true
		case lease.Unit != nil:
			var r resultReply
			rpcJSON(t, srv.URL, "/v1/result", &resultRequest{
				WorkerID: "sick", Unit: lease.Unit.ID, Error: "simulated unit failure",
			}, &r)
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
	if !evicted {
		t.Fatalf("breaker never evicted the failing worker: %+v", co.Stats())
	}
	o := <-res
	checkMatchesLocal(t, rcs, o.ms, o.errs)
	st := co.Stats()
	if st.Suspensions == 0 || st.Evictions != 1 {
		t.Errorf("breaker stats wrong: %+v", st)
	}

	// The evicted worker keeps seeing Evicted on every poll...
	var lease leaseReply
	rpcJSON(t, srv.URL, "/v1/lease", &leaseRequest{WorkerID: "sick"}, &lease)
	if !lease.Evicted {
		t.Errorf("evicted worker polled successfully: %+v", lease)
	}
	// ...until an explicit re-registration (a restarted process) resets
	// the breaker.
	var reg2 registerReply
	rpcJSON(t, srv.URL, "/v1/register", &registerRequest{WorkerID: "sick"}, &reg2)
	if !reg2.OK {
		t.Fatalf("re-register refused: %+v", reg2)
	}
	var fresh leaseReply
	rpcJSON(t, srv.URL, "/v1/lease", &leaseRequest{WorkerID: "sick"}, &fresh)
	if fresh.Evicted {
		t.Errorf("breaker not reset by re-registration")
	}
}

// TestWorkerPlatformMismatch: a worker measuring on different hardware
// is refused permanently.
func TestWorkerPlatformMismatch(t *testing.T) {
	_, srv := fastCoordinator(t, compiled(t), func(c *Config) {
		c.Platform = testbed.PlatformDigest(testbed.Bulldozer())
	})
	w, err := NewWorker(WorkerConfig{
		ID: "wrong", BaseURL: srv.URL, Runner: compiled(t),
		Platform: testbed.PlatformDigest(testbed.Phenom()),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.Run(ctx); !errors.Is(err, ErrPlatformMismatch) {
		t.Fatalf("Run = %v, want ErrPlatformMismatch", err)
	}
}

// TestBatchCancellation: cancelling the batch context releases the
// call promptly with ctx.Err() on unresolved slots and withdraws the
// queued units.
func TestBatchCancellation(t *testing.T) {
	co, _ := fastCoordinator(t, compiled(t), func(c *Config) {
		// A "live" ghost keeps degradation from kicking in, so units
		// would sit pending forever without the cancel.
		c.LeaseTTL = time.Hour
	})
	co.mu.Lock()
	co.workers["ghost"] = &workerState{id: "ghost", lastSeen: time.Now().Add(time.Hour)}
	co.mu.Unlock()

	rcs := distSlate(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	var errs []error
	go func() {
		defer wg.Done()
		_, errs = co.MeasureBatchContext(ctx, rcs, 0, 1)
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled batch did not return")
	}
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("slot %d: err = %v, want context.Canceled", i, err)
		}
	}
	co.mu.Lock()
	nUnits, nPending := len(co.units), len(co.pending)
	co.mu.Unlock()
	if nUnits != 0 || nPending != 0 {
		t.Errorf("cancelled batch left %d active / %d pending units", nUnits, nPending)
	}
}

// TestInvalidSlotTravels: a slot that fails validation is still
// shipped, fails identically on the worker, and the error text comes
// back unchanged (classification: permanent).
func TestInvalidSlotTravels(t *testing.T) {
	rcs := []testbed.RunConfig{{MaxCycles: 10}}
	if !Distributable(rcs[0]) {
		t.Fatal("invalid slot should still be distributable")
	}
	if _, err := encodeUnit(1, 0, rcs); err != nil {
		// No threads → no programs → encodes fine.
		t.Fatalf("encodeUnit: %v", err)
	}
}
