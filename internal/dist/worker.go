package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/testbed"
)

// ErrEvicted is returned by Worker.Run when the coordinator's circuit
// breaker has permanently evicted this worker: the process should exit
// (an operator restart re-registers with a clean slate).
var ErrEvicted = fmt.Errorf("dist: worker evicted by coordinator")

// ErrPlatformMismatch is returned when the coordinator refuses the
// worker's platform digest — a permanent configuration error.
var ErrPlatformMismatch = fmt.Errorf("dist: platform digest mismatch")

// WorkerConfig configures one worker process.
type WorkerConfig struct {
	// ID names this worker to the coordinator. Must be unique per live
	// process; reusing an ID after a restart is fine (it resets the
	// breaker), sharing one between live processes is not.
	ID string
	// BaseURL is the coordinator's address, e.g. "http://host:7070".
	BaseURL string
	// Runner measures the leased units — normally this machine's
	// compiled platform.
	Runner testbed.ContextBatchRunner
	// Platform is the digest presented at registration
	// (testbed.PlatformDigest of the platform behind Runner).
	Platform string
	// Parallel is the capture parallelism handed to MeasureBatchContext
	// (default 1).
	Parallel int
	// Poll is the idle poll floor (default 25ms; the coordinator's
	// RetryMs suggestion is used when larger).
	Poll time.Duration
	// HTTPClient, when non-nil, carries the RPCs — the seam where the
	// chaos tests splice in faults.NetFaults.
	HTTPClient *http.Client
	// Logf, when non-nil, receives worker events.
	Logf func(format string, args ...any)
}

// WorkerStats counts what a worker did.
type WorkerStats struct {
	Units      int // units evaluated and delivered
	Abandoned  int // units dropped because the lease was lost mid-run
	Failures   int // unit-level failures reported to the coordinator
	RPCRetries int
}

// Worker pulls work units from a coordinator, measures them on the
// local platform, and posts results. All failure handling is lease-
// shaped: if anything — the worker, the network, the coordinator's
// opinion of us — goes wrong for longer than a lease TTL, the unit is
// simply somebody else's problem and the worker moves on.
type Worker struct {
	cfg    WorkerConfig
	client *http.Client

	mu    sync.Mutex
	stats WorkerStats
}

// NewWorker validates the configuration.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("dist: worker needs an ID")
	}
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("dist: worker needs a coordinator URL")
	}
	if cfg.Runner == nil {
		return nil, fmt.Errorf("dist: worker needs a runner")
	}
	if cfg.Parallel <= 0 {
		cfg.Parallel = 1
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 25 * time.Millisecond
	}
	client := cfg.HTTPClient
	if client == nil {
		client = &http.Client{}
	}
	return &Worker{cfg: cfg, client: client}, nil
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// Stats returns a snapshot of the worker's counters.
func (w *Worker) Stats() WorkerStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// rpc posts one JSON request and decodes the JSON reply.
func (w *Worker) rpc(ctx context.Context, path string, req, reply any) error {
	blob, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.BaseURL+path, bytes.NewReader(blob))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(hreq)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("dist: %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(reply)
}

// rpcRetry runs rpc with capped exponential backoff until it succeeds
// or ctx dies. Every RPC failure here is treated as transient — the
// transport cannot distinguish a dropped packet from a dead
// coordinator, and the lease machinery bounds the damage either way.
func (w *Worker) rpcRetry(ctx context.Context, path string, req, reply any, attempts int) error {
	backoff := 10 * time.Millisecond
	for i := 0; ; i++ {
		err := w.rpc(ctx, path, req, reply)
		if err == nil {
			return nil
		}
		if attempts > 0 && i+1 >= attempts {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		w.mu.Lock()
		w.stats.RPCRetries++
		w.mu.Unlock()
		w.logf("dist: worker %s: %s failed (%v), retrying in %v", w.cfg.ID, path, err, backoff)
		if err := sleepCtx(ctx, backoff); err != nil {
			return err
		}
		if backoff *= 2; backoff > time.Second {
			backoff = time.Second
		}
	}
}

// register announces the worker, retrying transport errors forever;
// a refusal (platform mismatch) is permanent.
func (w *Worker) register(ctx context.Context) error {
	var reply registerReply
	req := registerRequest{WorkerID: w.cfg.ID, Platform: w.cfg.Platform}
	if err := w.rpcRetry(ctx, "/v1/register", &req, &reply, 0); err != nil {
		return err
	}
	if !reply.OK {
		w.logf("dist: worker %s: registration refused: %s", w.cfg.ID, reply.Error)
		return fmt.Errorf("%w: %s", ErrPlatformMismatch, reply.Error)
	}
	return nil
}

// Run is the worker's main loop: register, then poll → evaluate → post
// until ctx dies (returns ctx.Err()), the coordinator evicts us
// (ErrEvicted), or registration is refused (ErrPlatformMismatch).
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	w.logf("dist: worker %s registered with %s", w.cfg.ID, w.cfg.BaseURL)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var lease leaseReply
		if err := w.rpcRetry(ctx, "/v1/lease", &leaseRequest{WorkerID: w.cfg.ID}, &lease, 0); err != nil {
			return err
		}
		switch {
		case lease.Evicted:
			return ErrEvicted
		case lease.Unregistered:
			// Coordinator restarted (or never knew us): re-register.
			if err := w.register(ctx); err != nil {
				return err
			}
			continue
		case lease.Unit == nil:
			idle := w.cfg.Poll
			if d := time.Duration(lease.RetryMs) * time.Millisecond; d > idle {
				idle = d
			}
			if err := sleepCtx(ctx, idle); err != nil {
				return err
			}
			continue
		}
		w.serve(ctx, lease.Unit, time.Duration(lease.LeaseMs)*time.Millisecond)
	}
}

// serve evaluates one leased unit under heartbeat protection and posts
// the outcome.
func (w *Worker) serve(ctx context.Context, wu *WireUnit, ttl time.Duration) {
	rcs, err := decodeUnit(wu)
	if err != nil {
		// The unit itself is bad (or our binary disagrees about the wire
		// format): report a permanent unit failure so the coordinator
		// falls back rather than redispatching to us forever.
		w.logf("dist: worker %s: unit %d undecodable: %v", w.cfg.ID, wu.ID, err)
		w.mu.Lock()
		w.stats.Failures++
		w.mu.Unlock()
		var reply resultReply
		w.rpcRetry(ctx, "/v1/result", &resultRequest{
			WorkerID: w.cfg.ID, Unit: wu.ID, Error: err.Error(),
		}, &reply, 5)
		return
	}

	// The unit context dies with the lease: heartbeats keep the lease
	// alive, and a lost lease (OK=false, or heartbeats failing for
	// longer than the TTL) cancels the evaluation — the coordinator has
	// already promised the unit to someone else, finishing it here only
	// burns cycles for a result the merge would discard.
	uctx, abandon := context.WithCancel(ctx)
	defer abandon()
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		w.heartbeatLoop(uctx, wu.ID, ttl, abandon)
	}()

	ms, errs := w.cfg.Runner.MeasureBatchContext(uctx, rcs, 0, w.cfg.Parallel)
	lost := uctx.Err() != nil // sample before tearing the context down ourselves
	abandon()
	<-hbDone

	if lost && ctx.Err() == nil {
		// Lease lost (not a process shutdown): drop the unit silently.
		w.mu.Lock()
		w.stats.Abandoned++
		w.mu.Unlock()
		w.logf("dist: worker %s: abandoned unit %d (lease lost)", w.cfg.ID, wu.ID)
		return
	}
	if ctx.Err() != nil {
		return
	}

	res := resultRequest{WorkerID: w.cfg.ID, Unit: wu.ID, Slots: make([]WireResult, len(rcs))}
	for i := range rcs {
		res.Slots[i] = encodeResult(ms[i], errs[i])
	}
	var reply resultReply
	if err := w.rpcRetry(ctx, "/v1/result", &res, &reply, 5); err != nil {
		w.logf("dist: worker %s: could not deliver unit %d: %v", w.cfg.ID, wu.ID, err)
		return // the lease will expire and the unit will be reissued
	}
	w.mu.Lock()
	w.stats.Units++
	w.mu.Unlock()
}

// sleepCtx waits for d or until ctx is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// heartbeatLoop extends the lease at TTL/3 until the unit context dies,
// cancelling the evaluation if the coordinator says the lease is gone
// or heartbeats fail for a full TTL.
func (w *Worker) heartbeatLoop(ctx context.Context, unit uint64, ttl time.Duration, abandon context.CancelFunc) {
	if ttl <= 0 {
		ttl = 3 * time.Second
	}
	t := time.NewTicker(ttl / 3)
	defer t.Stop()
	lastOK := time.Now()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		var reply heartbeatReply
		err := w.rpc(ctx, "/v1/heartbeat", &heartbeatRequest{WorkerID: w.cfg.ID, Unit: unit}, &reply)
		switch {
		case err == nil && reply.OK:
			lastOK = time.Now()
		case err == nil: // coordinator says the lease is gone
			abandon()
			return
		case time.Since(lastOK) > ttl:
			// Unreachable for longer than the lease: it has expired on
			// the other side; stop wasting simulation time.
			abandon()
			return
		}
	}
}
