package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/testbed"
	"repro/internal/tracestore"
)

// LocalRunner is what the coordinator needs from its own measurement
// platform: serial runs (the GA's retry/repeat follow-ups) and batched
// runs (non-distributable slots and the degraded-to-local path).
// *testbed.CompiledPlatform satisfies it.
type LocalRunner interface {
	testbed.Runner
	testbed.ContextBatchRunner
}

// Config configures a Coordinator.
type Config struct {
	// Local is the coordinator's own platform: serial Run calls, slots
	// that cannot be shipped, and every unit evaluated when the worker
	// pool is empty or a unit has exhausted its remote attempts.
	Local LocalRunner
	// Platform is the digest workers must present at registration
	// (testbed.PlatformDigest). Empty disables the check.
	Platform string
	// UnitSize is how many slots one lease carries (default 4). Small
	// units bound the work lost to a worker death; large units amortise
	// RPC and trace-capture sharing.
	UnitSize int
	// LeaseTTL is how long a lease lives without a heartbeat
	// (default 3s). Workers heartbeat at TTL/3.
	LeaseTTL time.Duration
	// MaxUnitRetries is how many remote (re)dispatches a unit gets —
	// after lease expiries or permanent unit errors — before the
	// coordinator evaluates it locally (default 2).
	MaxUnitRetries int
	// BreakerTrips is the consecutive-strike count (lease expiry or
	// unit error) that suspends a worker (default 3).
	BreakerTrips int
	// SuspendBase is the first suspension length; it doubles per
	// suspension (default 250ms).
	SuspendBase time.Duration
	// MaxSuspensions is how many suspensions a worker gets before it
	// is evicted permanently (default 5). A fresh registration under
	// the same ID (a restarted process) starts clean.
	MaxSuspensions int
	// TraceStore, when non-nil, backs the shared trace tier: the
	// coordinator serves and accepts compressed trace records on
	// /v1/trace and single-flights concurrent captures of one key
	// across the worker pool. Point it at the same store the local
	// platform uses so locally-evaluated units populate the tier too.
	TraceStore *tracestore.Store
	// Logf, when non-nil, receives coordinator events (lease expiry,
	// suspension, degradation to local).
	Logf func(format string, args ...any)
}

func (c *Config) fillDefaults() {
	if c.UnitSize <= 0 {
		c.UnitSize = 4
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 3 * time.Second
	}
	if c.MaxUnitRetries <= 0 {
		c.MaxUnitRetries = 2
	}
	if c.BreakerTrips <= 0 {
		c.BreakerTrips = 3
	}
	if c.SuspendBase <= 0 {
		c.SuspendBase = 250 * time.Millisecond
	}
	if c.MaxSuspensions <= 0 {
		c.MaxSuspensions = 5
	}
}

// Stats counts what the coordinator did — the observable shape of the
// failure handling, asserted on by the robustness tests.
type Stats struct {
	// UnitsRemote counts units completed by workers; UnitsLocal counts
	// units (and non-distributable slots batches) evaluated on the
	// coordinator, whether by degradation or retry exhaustion.
	UnitsRemote int
	UnitsLocal  int
	// LeaseExpiries counts revoked leases; Requeues counts unit
	// redispatches from expiry or unit-level errors.
	LeaseExpiries int
	Requeues      int
	// DuplicateResults counts result posts discarded by the
	// at-most-once merge (late or retransmitted).
	DuplicateResults int
	// Suspensions and Evictions count circuit-breaker actions.
	Suspensions int
	Evictions   int
}

type unitState int

const (
	unitPending unitState = iota
	unitLeased
	unitDone
	// unitWithdrawn marks a unit whose batch was cancelled before the
	// unit resolved: it is no longer lease-able and its slots surface
	// the cancellation.
	unitWithdrawn
)

// unit is one lease-able chunk of a batch, coordinator side.
type unit struct {
	id    uint64
	batch uint64
	slots []int // indices into the batch's rcs
	rcs   []testbed.RunConfig
	wire  *WireUnit

	state    unitState
	worker   string
	deadline time.Time
	attempts int  // remote dispatches so far
	local    bool // forced to the coordinator's platform

	ms   []*testbed.Measurement
	errs []error
}

type workerState struct {
	id             string
	lastSeen       time.Time
	strikes        int
	suspensions    int
	suspendedUntil time.Time
	evicted        bool
}

// Coordinator owns the distributed evaluation of measurement batches.
// It implements testbed.Runner and testbed.ContextBatchRunner, so it
// plugs into core.Options.WrapRunner and the GA's batch path unchanged:
// serial follow-ups run locally, generation batches are sharded to
// workers. Safe for concurrent use; HTTP handlers (Handler) and batch
// calls share one lock.
type Coordinator struct {
	cfg Config
	now func() time.Time // injectable clock for tests

	mu        sync.Mutex
	cond      *sync.Cond
	workers   map[string]*workerState
	units     map[uint64]*unit // active (not done) units by ID
	pending   []*unit          // FIFO of unleased units
	nextUnit  uint64
	nextBatch uint64
	stats     Stats

	// flights tracks in-flight trace captures by content address (see
	// trace.go); traceStats counts the tier's traffic.
	flights    map[string]*flight
	traceStats TraceTierStats
}

// NewCoordinator builds a coordinator around a local platform.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.Local == nil {
		return nil, fmt.Errorf("dist: coordinator needs a local runner")
	}
	cfg.fillDefaults()
	c := &Coordinator{
		cfg:     cfg,
		now:     time.Now,
		workers: make(map[string]*workerState),
		units:   make(map[uint64]*unit),
		flights: make(map[string]*flight),
	}
	c.cond = sync.NewCond(&c.mu)
	return c, nil
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Stats returns a snapshot of the coordinator's counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// LiveWorkers reports how many workers are currently considered live
// (registered, not evicted, seen within two lease TTLs). Callers that
// want remote evaluation should dispatch work only once this is
// positive — a batch started against an empty pool degrades to local
// evaluation immediately rather than waiting for workers that may
// never come.
func (c *Coordinator) LiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveWorkersLocked()
}

// Run executes one measurement locally — the GA's serial path (retries,
// repeat samples) stays on the coordinator, where it is deterministic
// and needs no network.
func (c *Coordinator) Run(rc testbed.RunConfig) (*testbed.Measurement, error) {
	return c.cfg.Local.Run(rc)
}

// MeasureBatch implements testbed.BatchRunner.
func (c *Coordinator) MeasureBatch(rcs []testbed.RunConfig, lanes, workers int) ([]*testbed.Measurement, []error) {
	return c.MeasureBatchContext(context.Background(), rcs, lanes, workers)
}

var _ testbed.ContextBatchRunner = (*Coordinator)(nil)
var _ LocalRunner = (*Coordinator)(nil)

// MeasureBatchContext shards the batch into work units, dispatches them
// to whoever polls, and merges results slot-aligned. The returned
// arrays are bit-identical to c.cfg.Local.MeasureBatch on the same
// inputs, whatever the worker pool does: measurements are pure
// functions of their RunConfig, the merge is at-most-once per unit,
// and every failure path ends in redispatch or local evaluation.
// Cancelling ctx abandons unresolved slots with ctx.Err(). Every
// executor, local or remote, picks its own replay lane width, so lanes
// is not used.
func (c *Coordinator) MeasureBatchContext(ctx context.Context, rcs []testbed.RunConfig, _, workers int) ([]*testbed.Measurement, []error) {
	ms := make([]*testbed.Measurement, len(rcs))
	errs := make([]error, len(rcs))

	// Split distributable slots from ones that must stay local.
	var remote, localOnly []int
	for i, rc := range rcs {
		if Distributable(rc) {
			remote = append(remote, i)
		} else {
			localOnly = append(localOnly, i)
		}
	}

	units := c.enqueue(rcs, remote)

	// Non-distributable slots run here while workers chew on the units
	// already queued (the HTTP handlers serve leases concurrently).
	if len(localOnly) > 0 {
		lrcs := make([]testbed.RunConfig, len(localOnly))
		for k, i := range localOnly {
			lrcs[k] = rcs[i]
		}
		lms, lerrs := c.cfg.Local.MeasureBatchContext(ctx, lrcs, 0, workers)
		for k, i := range localOnly {
			ms[i], errs[i] = lms[k], lerrs[k]
		}
		c.mu.Lock()
		c.stats.UnitsLocal++
		c.mu.Unlock()
	}

	c.wait(ctx, units, workers)

	// Merge. Units a cancelled wait left unresolved surface ctx.Err().
	for _, u := range units {
		if u.state == unitDone {
			for k, slot := range u.slots {
				ms[slot], errs[slot] = u.ms[k], u.errs[k]
			}
			continue
		}
		for _, slot := range u.slots {
			errs[slot] = ctx.Err()
		}
	}
	return ms, errs
}

// enqueue splits the remote slots into units and queues them. A unit
// whose programs fail to encode is marked local from the start.
func (c *Coordinator) enqueue(rcs []testbed.RunConfig, remote []int) []*unit {
	var units []*unit
	c.mu.Lock()
	batch := c.nextBatch
	c.nextBatch++
	for len(remote) > 0 {
		n := c.cfg.UnitSize
		if n > len(remote) {
			n = len(remote)
		}
		slots := remote[:n]
		remote = remote[n:]
		u := &unit{id: c.nextUnit, batch: batch, state: unitPending}
		c.nextUnit++
		u.slots = append(u.slots, slots...)
		for _, i := range slots {
			u.rcs = append(u.rcs, rcs[i])
		}
		var err error
		if u.wire, err = encodeUnit(u.id, batch, u.rcs); err != nil {
			c.logf("dist: unit %d not encodable, keeping local: %v", u.id, err)
			u.local = true
		}
		c.units[u.id] = u
		c.pending = append(c.pending, u)
		units = append(units, u)
	}
	if len(units) > 0 {
		c.cond.Broadcast()
	}
	c.mu.Unlock()
	return units
}

// wait blocks until every unit is done or ctx dies, running the
// recovery machinery as it goes: expiring leases, striking workers,
// and pulling units to the local platform when the pool cannot make
// progress. On exit the batch's unresolved units are withdrawn so a
// cancelled batch leaves no orphans for workers to chew on.
func (c *Coordinator) wait(ctx context.Context, units []*unit, workers int) {
	if len(units) == 0 {
		return
	}
	// The ticker drives lease-expiry scans; the ctx watcher unblocks a
	// cancelled wait. Both just poke the cond.
	tick := c.cfg.LeaseTTL / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-t.C:
			case <-ctx.Done():
			case <-stop:
				return
			}
			c.cond.Broadcast()
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	c.mu.Lock()
	for {
		c.expireLocked()
		if locals := c.claimLocalLocked(units); len(locals) > 0 {
			c.mu.Unlock()
			for _, u := range locals {
				c.runLocal(ctx, u, workers)
			}
			c.mu.Lock()
			continue
		}
		if ctx.Err() != nil || allDone(units) {
			break
		}
		c.cond.Wait()
	}
	// Withdraw whatever is left (cancelled batch): no longer
	// lease-able, and late results for it are discarded as duplicates.
	for _, u := range units {
		if u.state != unitDone {
			u.state = unitWithdrawn
			delete(c.units, u.id)
		}
	}
	c.pending = compactPending(c.pending)
	c.mu.Unlock()
}

func allDone(units []*unit) bool {
	for _, u := range units {
		if u.state != unitDone {
			return false
		}
	}
	return true
}

// compactPending drops units that are no longer pending (done,
// withdrawn, or re-leased) from the FIFO.
func compactPending(q []*unit) []*unit {
	out := q[:0]
	for _, u := range q {
		if u.state == unitPending {
			out = append(out, u)
		}
	}
	return out
}

// expireLocked revokes leases whose deadline passed: the unit goes
// back to pending (or local, once its remote attempts are spent) and
// the silent worker takes a strike.
func (c *Coordinator) expireLocked() {
	now := c.now()
	for _, u := range c.units {
		if u.state != unitLeased || now.Before(u.deadline) {
			continue
		}
		c.stats.LeaseExpiries++
		c.logf("dist: lease on unit %d expired (worker %s)", u.id, u.worker)
		if w := c.workers[u.worker]; w != nil {
			c.strikeLocked(w)
		}
		c.requeueLocked(u)
	}
}

// requeueLocked returns a revoked/failed unit to the queue, demoting
// it to local evaluation when its remote attempts are spent.
func (c *Coordinator) requeueLocked(u *unit) {
	u.state = unitPending
	u.worker = ""
	c.stats.Requeues++
	if u.attempts >= c.cfg.MaxUnitRetries {
		u.local = true
		c.logf("dist: unit %d spent %d remote attempts, demoting to local", u.id, u.attempts)
	}
	c.pending = append(c.pending, u)
	c.cond.Broadcast()
}

// strikeLocked records one failure against a worker, suspending it
// when it accumulates BreakerTrips consecutive strikes and evicting it
// permanently after MaxSuspensions suspensions.
func (c *Coordinator) strikeLocked(w *workerState) {
	w.strikes++
	if w.strikes < c.cfg.BreakerTrips {
		return
	}
	w.strikes = 0
	w.suspensions++
	if w.suspensions > c.cfg.MaxSuspensions {
		w.evicted = true
		c.stats.Evictions++
		c.logf("dist: worker %s evicted after %d suspensions", w.id, w.suspensions-1)
		return
	}
	d := c.cfg.SuspendBase << (w.suspensions - 1)
	w.suspendedUntil = c.now().Add(d)
	c.stats.Suspensions++
	c.logf("dist: worker %s suspended for %v", w.id, d)
}

// liveWorkersLocked counts workers that are plausibly still pulling
// work: registered, not evicted, and seen within two lease TTLs.
// Suspended workers still count as live — they will come back — so
// the coordinator does not steal their queue; an evicted or vanished
// pool does not.
func (c *Coordinator) liveWorkersLocked() int {
	cutoff := c.now().Add(-2 * c.cfg.LeaseTTL)
	n := 0
	for _, w := range c.workers {
		if !w.evicted && w.lastSeen.After(cutoff) {
			n++
		}
	}
	return n
}

// claimLocalLocked pulls pending units the coordinator should evaluate
// itself: units demoted to local, and — when no live workers remain —
// the whole queue (graceful degradation: the search must finish even
// if every worker died).
func (c *Coordinator) claimLocalLocked(units []*unit) []*unit {
	degrade := c.liveWorkersLocked() == 0
	var locals []*unit
	for _, u := range units {
		if u.state != unitPending {
			continue
		}
		if u.local || degrade {
			u.state = unitLeased // reserve; not visible to lease handler
			u.worker = "(local)"
			u.deadline = c.now().Add(24 * time.Hour)
			locals = append(locals, u)
		}
	}
	if len(locals) > 0 {
		c.pending = compactPending(c.pending)
		if degrade && !locals[0].local {
			c.logf("dist: no live workers, evaluating %d unit(s) locally", len(locals))
		}
	}
	return locals
}

// runLocal evaluates one unit on the coordinator's platform. First
// result still wins: if a worker raced us and already posted, the
// local result is discarded (they are identical anyway — both are the
// pure function of the same RunConfigs).
func (c *Coordinator) runLocal(ctx context.Context, u *unit, workers int) {
	ms, errs := c.cfg.Local.MeasureBatchContext(ctx, u.rcs, 0, workers)
	c.mu.Lock()
	defer c.mu.Unlock()
	if u.state == unitDone {
		c.stats.DuplicateResults++
		return
	}
	if err := ctx.Err(); err != nil {
		// Cancelled mid-evaluation: put the unit back; the wait loop is
		// about to withdraw it.
		c.requeueLocked(u)
		return
	}
	u.ms, u.errs = ms, errs
	u.state = unitDone
	delete(c.units, u.id)
	c.stats.UnitsLocal++
	c.cond.Broadcast()
}

// Handler returns the coordinator's HTTP API: the four worker-facing
// control endpoints (POST + JSON) and, when a trace store is
// configured, the binary trace data plane on /v1/trace.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/register", jsonEndpoint(c.register))
	mux.HandleFunc("/v1/lease", func(w http.ResponseWriter, r *http.Request) {
		// A lease may be held; the request's end ends the hold.
		jsonEndpoint(func(req *leaseRequest) *leaseReply { return c.lease(r.Context(), req) })(w, r)
	})
	mux.HandleFunc("/v1/heartbeat", jsonEndpoint(c.heartbeat))
	mux.HandleFunc("/v1/result", jsonEndpoint(c.result))
	if c.cfg.TraceStore != nil {
		mux.HandleFunc("/v1/trace", c.traceHandler)
	}
	return mux
}

// jsonEndpoint adapts func(req) reply to an http.HandlerFunc.
func jsonEndpoint[Req, Reply any](f func(*Req) *Reply) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req Req
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(f(&req))
	}
}

// register admits a worker to the pool. Idempotent under retransmission
// (the ID is worker-supplied); a re-registration under a known ID
// resets the circuit breaker — a restarted process is a fresh worker,
// and eviction is meant to stop a sick process, not ban its name.
func (c *Coordinator) register(req *registerRequest) *registerReply {
	if req.WorkerID == "" {
		return &registerReply{Error: "dist: register: empty worker id"}
	}
	if c.cfg.Platform != "" && req.Platform != c.cfg.Platform {
		return &registerReply{Error: fmt.Sprintf(
			"dist: register: platform digest %.12s does not match coordinator %.12s",
			req.Platform, c.cfg.Platform)}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[req.WorkerID]
	if w == nil {
		w = &workerState{id: req.WorkerID}
		c.workers[req.WorkerID] = w
		c.logf("dist: worker %s registered", w.id)
	} else if w.evicted || w.suspensions > 0 || w.strikes > 0 {
		c.logf("dist: worker %s re-registered, breaker reset", w.id)
		*w = workerState{id: req.WorkerID}
	}
	w.lastSeen = c.now()
	c.cond.Broadcast()
	return &registerReply{OK: true}
}

// lease hands the oldest pending unit to a polling worker. With none
// pending it holds the request until a unit is queued or requeued, ctx
// (the request's) ends, or a sixth of a lease TTL passes (500 ms at the
// default), and then replies with no unit and no RetryMs, so the worker
// asks again at once: a worker that polls before a batch exists leases
// from it as soon as it is queued. A suspended worker is not held; its
// reply's RetryMs is the pause.
func (c *Coordinator) lease(ctx context.Context, req *leaseRequest) *leaseReply {
	hold := max(c.cfg.LeaseTTL/6, time.Millisecond)
	c.mu.Lock()
	defer c.mu.Unlock()
	for held := false; ; held = true {
		w := c.workers[req.WorkerID]
		if w == nil {
			return &leaseReply{Unregistered: true}
		}
		if w.evicted {
			return &leaseReply{Evicted: true}
		}
		w.lastSeen = c.now()
		if c.now().Before(w.suspendedUntil) {
			return &leaseReply{RetryMs: hold.Milliseconds()}
		}
		c.expireLocked() // a revoked lease may be re-issuable right now
		for len(c.pending) > 0 {
			u := c.pending[0]
			c.pending = c.pending[1:]
			if u.state != unitPending || u.local {
				continue // withdrawn, raced done, or demoted to local
			}
			u.state = unitLeased
			u.worker = w.id
			u.deadline = c.now().Add(c.cfg.LeaseTTL)
			u.attempts++
			return &leaseReply{Unit: u.wire, LeaseMs: c.cfg.LeaseTTL.Milliseconds()}
		}
		if ctx.Err() != nil {
			return &leaseReply{}
		}
		if !held {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, hold)
			defer cancel()
			// Wake the wait below when the hold ends; the lock keeps the
			// wake from landing before the wait.
			stop := context.AfterFunc(ctx, func() {
				c.mu.Lock()
				c.cond.Broadcast()
				c.mu.Unlock()
			})
			defer stop()
		}
		c.cond.Wait()
	}
}

// heartbeat extends a live lease; OK=false tells the worker its lease
// is gone (expired and reassigned, or already merged) and the unit
// must be abandoned.
func (c *Coordinator) heartbeat(req *heartbeatRequest) *heartbeatReply {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w := c.workers[req.WorkerID]; w != nil {
		w.lastSeen = c.now()
	}
	u := c.units[req.Unit]
	if u == nil || u.state != unitLeased || u.worker != req.WorkerID {
		return &heartbeatReply{OK: false}
	}
	u.deadline = c.now().Add(c.cfg.LeaseTTL)
	return &heartbeatReply{OK: true}
}

// result merges a worker's unit outcome, at most once per unit: the
// first complete result wins and every later post (retransmission,
// revoked-then-finished worker, local race) is acknowledged and
// discarded. Determinism does not depend on WHICH post wins — all of
// them carry the same pure-function values — only the merge's
// at-most-once discipline.
func (c *Coordinator) result(req *resultRequest) *resultReply {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[req.WorkerID]
	if w != nil {
		w.lastSeen = c.now()
	}
	u := c.units[req.Unit]
	if u == nil || u.state == unitDone {
		c.stats.DuplicateResults++
		return &resultReply{OK: true}
	}
	if req.Error != "" {
		// Whole-unit failure on the worker. Strike it, and requeue the
		// unit (demoted to local once attempts are spent) unless some
		// other worker holds a fresh lease on it.
		c.logf("dist: worker %s failed unit %d: %s", req.WorkerID, req.Unit, req.Error)
		if w != nil {
			c.strikeLocked(w)
		}
		if u.state == unitLeased && u.worker == req.WorkerID {
			c.requeueLocked(u)
		}
		return &resultReply{OK: true}
	}
	if len(req.Slots) != len(u.rcs) {
		c.logf("dist: worker %s returned %d slots for unit %d (want %d), discarding",
			req.WorkerID, len(req.Slots), req.Unit, len(u.rcs))
		if w != nil {
			c.strikeLocked(w)
		}
		if u.state == unitLeased && u.worker == req.WorkerID {
			c.requeueLocked(u)
		}
		return &resultReply{OK: true}
	}
	u.ms = make([]*testbed.Measurement, len(req.Slots))
	u.errs = make([]error, len(req.Slots))
	for i, wr := range req.Slots {
		u.ms[i], u.errs[i] = decodeResult(wr)
	}
	u.state = unitDone
	delete(c.units, u.id)
	c.stats.UnitsRemote++
	if w != nil {
		w.strikes = 0 // a delivered unit ends the failure streak
	}
	c.cond.Broadcast()
	return &resultReply{OK: true}
}
