package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/testbed"
	"repro/internal/tracestore"
)

// The trace data plane shares captured chip traces across the worker
// pool. Control RPCs are POST + JSON; this endpoint is deliberately
// not: trace blobs are compressed binary, and the tier's whole point
// is to move the fewest bytes possible, so /v1/trace speaks the
// tracestore on-disk encoding directly — disk bytes are wire bytes,
// with no re-encode or base64 inflation on either side.
//
//	GET /v1/trace?addr=<hex>&worker=<id>
//	  200 + blob  — tier hit, body is the encoded record
//	  204         — miss; the capture claim is YOURS, capture and PUT
//	  202         — miss; another live worker holds the claim, retry
//	                after Retry-After-Ms milliseconds
//	PUT /v1/trace?addr=<hex>&worker=<id>  body=blob
//	  200         — accepted (and the claim, if any, released)
//	  400         — not a valid record
//	  413         — longer than any record (tracestore.MaxBlobBytes)
//
// Correctness never depends on the tier: every reply, including an
// unreachable coordinator, leaves the worker free to capture locally.
// The single-flight claim is purely an optimisation that keeps N
// workers from capturing the same trace N times, and it is leased,
// not locked: a claim whose owner stops heartbeating (SIGKILL,
// partition) or simply sits on it too long is reassigned to the next
// asker, so a dying owner can never wedge the pool.

// flight is one in-flight capture claim, keyed by trace address.
type flight struct {
	owner   string    // worker ID that was told to capture
	granted time.Time // when, for the hard age cap
}

// TraceTierStats counts the coordinator-side traffic on /v1/trace.
type TraceTierStats struct {
	Hits   int // GETs served a blob
	Claims int // GETs granted the capture claim (first asker per addr)
	Waits  int // GETs told to wait on another worker's capture
	Puts   int // published records accepted
	// ClaimSteals counts claims reassigned because the owner died or
	// overstayed — the single-flight safety valve firing.
	ClaimSteals int
	// WireBytes is the blob traffic in both directions (bodies only).
	WireBytes uint64
}

// TraceTierStats returns a snapshot of the trace tier counters.
func (c *Coordinator) TraceTierStats() TraceTierStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.traceStats
}

// flightMaxAge bounds how long a claim may sit unpublished even with a
// live owner (a worker whose capture errored never PUTs): generous
// against real capture times, small against a search's lifetime.
func (c *Coordinator) flightMaxAge() time.Duration {
	if d := 10 * c.cfg.LeaseTTL; d > 30*time.Second {
		return d
	}
	return 30 * time.Second
}

// traceHandler serves the trace data plane. Registered only when
// cfg.TraceStore is set.
func (c *Coordinator) traceHandler(w http.ResponseWriter, r *http.Request) {
	addr := r.URL.Query().Get("addr")
	worker := r.URL.Query().Get("worker")
	switch r.Method {
	case http.MethodGet:
		c.traceGet(w, addr, worker)
	case http.MethodPut:
		c.tracePut(w, r, addr)
	default:
		http.Error(w, "GET or PUT only", http.StatusMethodNotAllowed)
	}
}

func (c *Coordinator) traceGet(w http.ResponseWriter, addr, worker string) {
	if blob, ok := c.cfg.TraceStore.GetRaw(addr); ok {
		c.mu.Lock()
		c.traceStats.Hits++
		c.traceStats.WireBytes += uint64(len(blob))
		delete(c.flights, addr) // published out of band (local store share)
		c.mu.Unlock()
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
		w.Write(blob)
		return
	}
	if !tracestore.ValidAddr(addr) {
		http.Error(w, "bad addr", http.StatusBadRequest)
		return
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	if f := c.flights[addr]; f != nil && f.owner != worker {
		if c.flightOwnerLiveLocked(f, now) {
			// Someone else is capturing this very trace. Tell the asker
			// to wait; the poll cadence mirrors the lease idle poll.
			c.traceStats.Waits++
			retry := (c.cfg.LeaseTTL / 6).Milliseconds()
			if retry < 1 {
				retry = 1
			}
			w.Header().Set("Retry-After-Ms", strconv.FormatInt(retry, 10))
			w.WriteHeader(http.StatusAccepted)
			return
		}
		c.traceStats.ClaimSteals++
		c.logf("dist: trace %.12s claim stolen from %s (owner dead or overstayed)", addr, f.owner)
	}
	// No flight, a stale one, or the owner re-asking: the claim is the
	// requester's now.
	c.flights[addr] = &flight{owner: worker, granted: now}
	c.traceStats.Claims++
	w.WriteHeader(http.StatusNoContent)
}

// flightOwnerLiveLocked reports whether a claim is still trustworthy:
// the owner has been seen within the liveness cutoff (the same two
// lease TTLs that gate unit dispatch) and the claim is not ancient.
func (c *Coordinator) flightOwnerLiveLocked(f *flight, now time.Time) bool {
	if now.Sub(f.granted) > c.flightMaxAge() {
		return false
	}
	w := c.workers[f.owner]
	return w != nil && !w.evicted && w.lastSeen.After(now.Add(-2*c.cfg.LeaseTTL))
}

func (c *Coordinator) tracePut(w http.ResponseWriter, r *http.Request, addr string) {
	blob, err := readTraceBlob(r.Body, r.ContentLength)
	if errors.Is(err, errTraceTooLarge) {
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := c.cfg.TraceStore.PutRaw(addr, blob); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	c.traceStats.Puts++
	c.traceStats.WireBytes += uint64(len(blob))
	delete(c.flights, addr)
	c.mu.Unlock()
	w.WriteHeader(http.StatusOK)
}

// errTraceTooLarge refuses a /v1/trace body longer than any encoded
// record can be.
var errTraceTooLarge = fmt.Errorf("dist: trace blob exceeds %d bytes", tracestore.MaxBlobBytes)

// readTraceBlob reads a /v1/trace body of at most
// tracestore.MaxBlobBytes. size is the declared Content-Length (-1 if
// unknown): a body declared longer is refused unread, and one found
// longer is refused after reading one byte past the bound.
func readTraceBlob(body io.Reader, size int64) ([]byte, error) {
	if size > tracestore.MaxBlobBytes {
		return nil, errTraceTooLarge
	}
	blob, err := io.ReadAll(io.LimitReader(body, tracestore.MaxBlobBytes+1))
	if err != nil {
		return nil, err
	}
	if len(blob) > tracestore.MaxBlobBytes {
		return nil, errTraceTooLarge
	}
	return blob, nil
}

// TraceTierConfig configures a worker-side trace tier client.
type TraceTierConfig struct {
	// BaseURL is the coordinator's address, e.g. "http://host:7070".
	BaseURL string
	// WorkerID names this worker for capture-claim ownership. Use the
	// same ID the Worker registers under so the coordinator can judge
	// the claim's liveness from the worker's heartbeats.
	WorkerID string
	// HTTPClient, when non-nil, carries the requests — the same
	// faults.NetFaults seam as WorkerConfig.HTTPClient.
	HTTPClient *http.Client
	// LeaseTTL should match the coordinator's; it scales the wait
	// backoff and the per-request timeout (default 3s).
	LeaseTTL time.Duration
	// Logf, when non-nil, receives tier client events.
	Logf func(format string, args ...any)
}

// TraceTierClient is the worker side of the trace data plane. It
// implements testbed.TraceTier over /v1/trace: Fetch resolves a trace
// key against the coordinator, waiting out another worker's in-flight
// capture when told to, and Publish uploads a fresh capture. Every
// failure path — coordinator down, request dropped, owner never
// publishing — ends in (nil, 0, false) within a bounded time, which
// the testbed treats as "capture it yourself": the tier can only ever
// save work, never lose it or hang it.
type TraceTierClient struct {
	cfg    TraceTierConfig
	client *http.Client
}

// NewTraceTierClient validates the configuration.
func NewTraceTierClient(cfg TraceTierConfig) (*TraceTierClient, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("dist: trace tier client needs a coordinator URL")
	}
	if cfg.WorkerID == "" {
		return nil, fmt.Errorf("dist: trace tier client needs a worker ID")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 3 * time.Second
	}
	client := cfg.HTTPClient
	if client == nil {
		client = &http.Client{}
	}
	return &TraceTierClient{cfg: cfg, client: client}, nil
}

var _ testbed.TraceTier = (*TraceTierClient)(nil)

func (tc *TraceTierClient) logf(format string, args ...any) {
	if tc.cfg.Logf != nil {
		tc.cfg.Logf(format, args...)
	}
}

func (tc *TraceTierClient) url(addr string) string {
	return tc.cfg.BaseURL + "/v1/trace?addr=" + addr + "&worker=" + tc.cfg.WorkerID
}

// Fetch resolves one trace key against the tier. ok=false means the
// caller should capture locally — a miss with the claim granted, or
// any failure to get a straight answer within the wait budget.
func (tc *TraceTierClient) Fetch(key []byte) (*tracestore.Record, int, bool) {
	addr := tracestore.Addr(key)
	// The wait budget bounds how long we trust "someone else is on it"
	// before capturing ourselves. A dead owner is detected by the
	// coordinator within two lease TTLs, so the budget only has to
	// cover an unlucky tail of capture time on top of that.
	deadline := time.Now().Add(tc.waitBudget())
	backoff := tc.cfg.LeaseTTL / 6
	if backoff < time.Millisecond {
		backoff = time.Millisecond
	}
	for attempt := 0; ; attempt++ {
		rec, wire, verdict := tc.fetchOnce(addr)
		switch verdict {
		case tierHit:
			return rec, wire, true
		case tierCapture:
			return nil, 0, false
		case tierError:
			// One failed request is enough to fall back: the tier is an
			// optimisation, and the control-plane RPCs have their own
			// retry machinery to handle a flaky network.
			return nil, 0, false
		}
		// tierWait: somebody else is capturing. Poll until they publish
		// or the budget says stop trusting them.
		if time.Now().After(deadline) {
			tc.logf("dist: trace %.12s wait budget exhausted, capturing locally", addr)
			return nil, 0, false
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > tc.cfg.LeaseTTL {
			backoff = tc.cfg.LeaseTTL
		}
	}
}

func (tc *TraceTierClient) waitBudget() time.Duration {
	if d := 20 * tc.cfg.LeaseTTL; d > 10*time.Second {
		return d
	}
	return 10 * time.Second
}

type tierVerdict int

const (
	tierHit     tierVerdict = iota // 200: record decoded
	tierCapture                    // 204: claim is ours
	tierWait                       // 202: poll again
	tierError                      // transport/protocol failure
)

func (tc *TraceTierClient) fetchOnce(addr string) (*tracestore.Record, int, tierVerdict) {
	req, err := http.NewRequest(http.MethodGet, tc.url(addr), nil)
	if err != nil {
		return nil, 0, tierError
	}
	resp, err := tc.doTimed(req)
	if err != nil {
		tc.logf("dist: trace fetch %.12s: %v", addr, err)
		return nil, 0, tierError
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
		blob, err := readTraceBlob(resp.Body, resp.ContentLength)
		if err != nil {
			return nil, 0, tierError
		}
		rec, ok := tracestore.Decode(blob)
		if !ok {
			// Damaged in flight; treat as a miss we resolve ourselves
			// rather than re-asking for the same bytes.
			tc.logf("dist: trace fetch %.12s: undecodable blob (%d bytes)", addr, len(blob))
			return nil, 0, tierError
		}
		return rec, len(blob), tierHit
	case http.StatusNoContent:
		return nil, 0, tierCapture
	case http.StatusAccepted:
		return nil, 0, tierWait
	default:
		return nil, 0, tierError
	}
}

// doTimed runs one request under a per-request timeout so a stalled
// connection (faults.NetFaults stalls, a wedged coordinator) costs one
// bounded wait, not a hang.
func (tc *TraceTierClient) doTimed(req *http.Request) (*http.Response, error) {
	timeout := 2 * tc.cfg.LeaseTTL
	if timeout < time.Second {
		timeout = time.Second
	}
	ctx, cancel := context.WithTimeout(req.Context(), timeout)
	resp, err := tc.client.Do(req.WithContext(ctx))
	if err != nil {
		cancel()
		return nil, err
	}
	// Hand the body's lifetime to the caller; cancelling now would kill
	// the read. The timer still bounds the read via the response body's
	// dependence on ctx, and the caller's Close releases everything.
	resp.Body = &cancelBody{ReadCloser: resp.Body, cancel: cancel}
	return resp, nil
}

// cancelBody releases the request's timeout context when the response
// body is closed.
type cancelBody struct {
	io.ReadCloser
	cancel func()
}

func (cb *cancelBody) Close() error {
	err := cb.ReadCloser.Close()
	cb.cancel()
	return err
}

// Publish uploads a fresh capture, releasing the single-flight claim.
// Best-effort: a failed publish costs other workers a recapture, not
// correctness, so it retries only briefly.
func (tc *TraceTierClient) Publish(key []byte, rec *tracestore.Record) int {
	addr := tracestore.Addr(key)
	blob := tracestore.Encode(rec)
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * 50 * time.Millisecond)
		}
		req, err := http.NewRequest(http.MethodPut, tc.url(addr), bytes.NewReader(blob))
		if err != nil {
			return 0
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		resp, err := tc.doTimed(req)
		if err != nil {
			tc.logf("dist: trace publish %.12s: %v", addr, err)
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return len(blob)
		}
		tc.logf("dist: trace publish %.12s: HTTP %d", addr, resp.StatusCode)
		if resp.StatusCode == http.StatusBadRequest || resp.StatusCode == http.StatusRequestEntityTooLarge {
			return 0 // permanent: re-sending the same bytes cannot help
		}
	}
	return 0
}
