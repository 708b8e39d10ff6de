package dist

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/tracestore"
)

// traceCoordinator builds a coordinator with a trace store attached and
// an HTTP server in front of it.
func traceCoordinator(t testing.TB, mut func(*Config)) (*Coordinator, *httptest.Server, *tracestore.Store) {
	t.Helper()
	store, err := tracestore.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Local:      compiled(t),
		LeaseTTL:   250 * time.Millisecond,
		TraceStore: store,
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
	return co, srv, store
}

func tierClient(t testing.TB, url, id string, ttl time.Duration) *TraceTierClient {
	t.Helper()
	tc, err := NewTraceTierClient(TraceTierConfig{
		BaseURL: url, WorkerID: id, LeaseTTL: ttl,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tc
}

// traceHTTP drives /v1/trace by hand.
func traceHTTP(t *testing.T, method, url, addr, worker string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url+"/v1/trace?addr="+addr+"&worker="+worker, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestTraceEndpointProtocol drives the raw GET/PUT protocol: claim on
// miss, wait while the claim is live, blob after publish, and rejection
// of malformed addresses, blobs and methods.
func TestTraceEndpointProtocol(t *testing.T) {
	co, srv, store := traceCoordinator(t, nil)

	// Both workers must be live for claim-liveness to matter.
	for _, id := range []string{"a", "b"} {
		var reg registerReply
		rpcJSON(t, srv.URL, "/v1/register", &registerRequest{WorkerID: id}, &reg)
		if !reg.OK {
			t.Fatalf("register %s: %+v", id, reg)
		}
	}

	key := []byte("protocol key")
	addr := tracestore.Addr(key)
	rec := &tracestore.Record{Energy: []float64{1, 2, 1, 2}, Issues: []uint64{3, 3, 3, 3}, Done: true}
	blob := tracestore.Encode(rec)

	// Miss → worker a is told to capture (204).
	if resp := traceHTTP(t, http.MethodGet, srv.URL, addr, "a", nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("first GET: HTTP %d, want 204", resp.StatusCode)
	}
	// Same miss from worker b while a's claim is live → wait (202).
	resp := traceHTTP(t, http.MethodGet, srv.URL, addr, "b", nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("contended GET: HTTP %d, want 202", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After-Ms") == "" {
		t.Error("202 reply carries no retry hint")
	}
	// The owner re-asking keeps the claim (a retried request must not
	// deadlock against itself).
	if resp := traceHTTP(t, http.MethodGet, srv.URL, addr, "a", nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("owner re-GET: HTTP %d, want 204", resp.StatusCode)
	}

	// Publish releases the claim and lands in the store.
	if resp := traceHTTP(t, http.MethodPut, srv.URL, addr, "a", blob); resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT: HTTP %d, want 200", resp.StatusCode)
	}
	if _, ok := store.GetRaw(addr); !ok {
		t.Fatal("published record not in the coordinator store")
	}
	// Now b's GET is a hit with the exact published bytes.
	resp = traceHTTP(t, http.MethodGet, srv.URL, addr, "b", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm GET: HTTP %d, want 200", resp.StatusCode)
	}
	var got bytes.Buffer
	if _, err := got.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), blob) {
		t.Fatal("served blob differs from published blob")
	}

	// Malformed traffic is rejected without touching the store.
	if resp := traceHTTP(t, http.MethodGet, srv.URL, "../../evil", "b", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("hostile addr GET: HTTP %d, want 400", resp.StatusCode)
	}
	if resp := traceHTTP(t, http.MethodPut, srv.URL, addr, "a", blob[:len(blob)/2]); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated PUT: HTTP %d, want 400", resp.StatusCode)
	}
	// A body longer than any record is refused before it is read: with
	// Expect: 100-continue the client never sends it.
	req, err := http.NewRequest(http.MethodPut, srv.URL+"/v1/trace?addr="+addr+"&worker=a",
		io.LimitReader(zeroReader{}, tracestore.MaxBlobBytes+1))
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = tracestore.MaxBlobBytes + 1
	req.Header.Set("Expect", "100-continue")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize PUT: HTTP %d, want 413", resp.StatusCode)
	}
	if resp := traceHTTP(t, http.MethodPost, srv.URL, addr, "a", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST: HTTP %d, want 405", resp.StatusCode)
	}

	st := co.TraceTierStats()
	if st.Hits != 1 || st.Claims != 2 || st.Waits != 1 || st.Puts != 1 {
		t.Errorf("tier stats %+v, want 1 hit / 2 claims / 1 wait / 1 put", st)
	}
	if st.WireBytes != uint64(2*len(blob)) {
		t.Errorf("WireBytes = %d, want %d (one PUT + one GET)", st.WireBytes, 2*len(blob))
	}
}

// zeroReader reads an endless run of zero bytes.
type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestTraceClaimStolenFromDeadOwner advances the coordinator clock past
// the liveness cutoff: a claim whose owner stopped heartbeating is
// handed to the next asker instead of wedging the pool.
func TestTraceClaimStolenFromDeadOwner(t *testing.T) {
	co, srv, _ := traceCoordinator(t, nil)
	base := time.Now()
	co.mu.Lock()
	co.now = func() time.Time { return base }
	co.mu.Unlock()
	for _, id := range []string{"dead", "live"} {
		var reg registerReply
		rpcJSON(t, srv.URL, "/v1/register", &registerRequest{WorkerID: id}, &reg)
	}

	addr := tracestore.Addr([]byte("steal key"))
	if resp := traceHTTP(t, http.MethodGet, srv.URL, addr, "dead", nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("claim GET: HTTP %d, want 204", resp.StatusCode)
	}
	// "dead" is SIGKILLed: its lastSeen freezes while the clock moves
	// past the 2×TTL cutoff. "live" keeps heartbeating.
	co.mu.Lock()
	co.now = func() time.Time { return base.Add(3 * co.cfg.LeaseTTL) }
	co.workers["live"].lastSeen = co.now()
	co.mu.Unlock()

	if resp := traceHTTP(t, http.MethodGet, srv.URL, addr, "live", nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("GET after owner death: HTTP %d, want 204 (stolen claim)", resp.StatusCode)
	}
	st := co.TraceTierStats()
	if st.ClaimSteals != 1 {
		t.Errorf("ClaimSteals = %d, want 1 (%+v)", st.ClaimSteals, st)
	}
}

// TestTraceTierDistributed runs two tier-attached platforms against a
// real coordinator: the first captures and publishes, the second is
// served entirely over the wire with zero captures and bit-identical
// measurements.
func TestTraceTierDistributed(t *testing.T) {
	co, srv, _ := traceCoordinator(t, nil)
	rc := distSlate(t, 1)[0]

	ref := compiled(t)
	want, err := ref.Run(rc)
	if err != nil {
		t.Fatal(err)
	}

	a := compiled(t)
	a.SetTraceTier(tierClient(t, srv.URL, "a", 250*time.Millisecond))
	ma, err := a.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ma, want) {
		t.Error("tier-attached run diverged from plain run")
	}
	if ts := a.TraceStats(); ts.Captures != 1 || ts.WireBytes == 0 {
		t.Fatalf("cold worker captures/wire = %d/%d, want 1/>0", ts.Captures, ts.WireBytes)
	}

	b := compiled(t)
	b.SetTraceTier(tierClient(t, srv.URL, "b", 250*time.Millisecond))
	mb, err := b.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mb, want) {
		t.Error("tier-served run diverged from plain run")
	}
	if ts := b.TraceStats(); ts.TierHits == 0 || ts.Captures != 0 {
		t.Fatalf("warm worker tier hits/captures = %d/%d, want >0/0", ts.TierHits, ts.Captures)
	}
	if st := co.TraceTierStats(); st.Puts == 0 || st.Hits == 0 {
		t.Errorf("coordinator saw no tier traffic: %+v", st)
	}
}

// TestTraceFetchWaitsOutCapture: a worker told to wait keeps polling
// and comes away with the record the moment the owner publishes.
func TestTraceFetchWaitsOutCapture(t *testing.T) {
	_, srv, _ := traceCoordinator(t, nil)
	for _, id := range []string{"owner", "waiter"} {
		var reg registerReply
		rpcJSON(t, srv.URL, "/v1/register", &registerRequest{WorkerID: id}, &reg)
	}
	key := []byte("waited key")
	rec := &tracestore.Record{Energy: []float64{4, 4, 4}, Issues: []uint64{1, 1, 1}, Done: true, CaptureNS: 777}

	owner := tierClient(t, srv.URL, "owner", 250*time.Millisecond)
	if _, _, ok := owner.Fetch(key); ok {
		t.Fatal("empty tier served a record")
	}

	var wg sync.WaitGroup
	var got *tracestore.Record
	var gotOK bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		got, _, gotOK = tierClient(t, srv.URL, "waiter", 250*time.Millisecond).Fetch(key)
	}()
	time.Sleep(60 * time.Millisecond) // let the waiter hit the 202 path
	if owner.Publish(key, rec) == 0 {
		t.Error("publish reported zero wire bytes")
	}
	wg.Wait()
	if !gotOK {
		t.Fatal("waiter fell back to capture despite a publish")
	}
	if got.CaptureNS != rec.CaptureNS || len(got.Energy) != len(rec.Energy) {
		t.Fatal("waiter received a different record")
	}
}

// TestTraceFetchFallsBackOnDeadOwner: the owner takes the claim and is
// killed; the waiter must get the capture claim within a bounded time
// instead of deadlocking.
func TestTraceFetchFallsBackOnDeadOwner(t *testing.T) {
	ttl := 60 * time.Millisecond
	_, srv, _ := traceCoordinator(t, func(c *Config) { c.LeaseTTL = ttl })
	for _, id := range []string{"owner", "waiter"} {
		var reg registerReply
		rpcJSON(t, srv.URL, "/v1/register", &registerRequest{WorkerID: id}, &reg)
	}
	key := []byte("orphaned key")
	if _, _, ok := tierClient(t, srv.URL, "owner", ttl).Fetch(key); ok {
		t.Fatal("empty tier served a record")
	}
	// Owner never publishes and never heartbeats again (SIGKILL). The
	// waiter's Fetch must resolve to "capture it yourself" once the
	// owner's liveness window (2×TTL) lapses — well inside the budget.
	start := time.Now()
	_, _, ok := tierClient(t, srv.URL, "waiter", ttl).Fetch(key)
	if ok {
		t.Fatal("waiter claims a hit nobody published")
	}
	if el := time.Since(start); el > 10*ttl {
		t.Errorf("fallback took %v, want ≤ %v", el, 10*ttl)
	}
}

// TestTraceTierUnreachable: a dead coordinator makes every tier call a
// fast miss — the platform captures locally and the run still succeeds.
func TestTraceTierUnreachable(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	srv.Close() // dead on arrival
	cp := compiled(t)
	cp.SetTraceTier(tierClient(t, srv.URL, "lonely", 100*time.Millisecond))
	rc := distSlate(t, 1)[0]
	ref := compiled(t)
	want, err := ref.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got, err := cp.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("run with dead tier diverged")
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("dead tier stalled the run for %v", el)
	}
	if ts := cp.TraceStats(); ts.Captures != 1 || ts.TierMisses != 1 {
		t.Errorf("dead-tier stats %+v, want 1 capture / 1 tier miss", ts)
	}
}

// BenchmarkTraceTierWarmVsCold compares a fresh worker's first
// measurement with and without a warm trace tier: the warm case trades
// phase-1 capture for one wire fetch of the compressed record.
func BenchmarkTraceTierWarmVsCold(b *testing.B) {
	_, srv, _ := traceCoordinator(b, nil)
	rc := distSlate(b, 1)[0]
	rc.MaxCycles = 40000

	// Warm the tier once.
	seed := compiled(b)
	seed.SetTraceTier(tierClient(b, srv.URL, "seed", 250*time.Millisecond))
	if _, err := seed.Run(rc); err != nil {
		b.Fatal(err)
	}

	b.Run("cold-capture", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cp := compiled(b)
			if _, err := cp.Run(rc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm-tier", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cp := compiled(b)
			cp.SetTraceTier(tierClient(b, srv.URL, fmt.Sprintf("w%d", i), 250*time.Millisecond))
			if _, err := cp.Run(rc); err != nil {
				b.Fatal(err)
			}
			if ts := cp.TraceStats(); ts.Captures != 0 {
				b.Fatal("warm worker captured instead of fetching")
			}
		}
	})
}
