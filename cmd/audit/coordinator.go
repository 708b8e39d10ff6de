package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/audit"
	"repro/internal/dist"
	"repro/internal/testbed"
	"repro/internal/tracestore"
)

// coordinator is what `audit -listen` adds to a search: the worker
// protocol server, bound before the search starts, and the
// dist.Coordinator the search's WrapRunner puts in front of the
// compiled platform. The search itself is the single-node one; with no
// workers every unit runs locally and the result is the same.
type coordinator struct {
	c      cliOptions
	digest string
	stderr io.Writer

	srv     *http.Server
	handler atomic.Pointer[http.Handler]
	store   *tracestore.Store // nil without -trace-store
	co      *dist.Coordinator // nil until the search wraps its runner
}

// listen binds -listen and starts serving. Binding first makes a bad
// address fail fast and lets workers poll while the platform compiles:
// until the coordinator exists every request gets a 503, which workers
// retry like any transient transport error.
func listen(c cliOptions, plat audit.Platform, stderr io.Writer) (*coordinator, error) {
	k := &coordinator{c: c, digest: testbed.PlatformDigest(plat), stderr: stderr}
	if c.traceStore != "" {
		// The search persists its own captures there too (Options.
		// TraceStorePath); two handles on one directory race benignly:
		// same key, same bytes, atomic renames.
		st, err := tracestore.Open(c.traceStore, 0)
		if err != nil {
			return nil, fmt.Errorf("trace store: %w", err)
		}
		k.store = st
	}
	ln, err := net.Listen("tcp", c.listen)
	if err != nil {
		return nil, err
	}
	var warmingUp http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "audit: coordinator warming up", http.StatusServiceUnavailable)
	})
	k.handler.Store(&warmingUp)
	k.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*k.handler.Load()).ServeHTTP(w, r)
	})}
	go k.srv.Serve(ln)
	fmt.Fprintf(stderr, "audit: serving worker protocol on %s\n", ln.Addr())
	return k, nil
}

// wrap is the search's Options.WrapRunner: it shards every generation
// the search measures into leases for the worker pool.
func (k *coordinator) wrap(ctx context.Context, r audit.Runner) audit.Runner {
	// r is the compiled platform, a dist.LocalRunner; were it not,
	// NewCoordinator would refuse the nil Local and the search would
	// stay single-node.
	local, _ := r.(dist.LocalRunner)
	logf := func(string, ...any) {}
	if k.c.verbose {
		logf = func(format string, args ...any) { fmt.Fprintf(k.stderr, format+"\n", args...) }
	}
	co, err := dist.NewCoordinator(dist.Config{
		Local:      local,
		Platform:   k.digest,
		UnitSize:   k.c.unitSize,
		LeaseTTL:   k.c.leaseTTL,
		TraceStore: k.store,
		Logf:       logf,
	})
	if err != nil {
		fmt.Fprintln(k.stderr, "audit: evaluating locally:", err)
		return r
	}
	k.co = co
	h := co.Handler()
	k.handler.Store(&h)
	k.waitForWorkers(ctx)
	return co
}

// waitForWorkers blocks until -min-workers workers have registered (or
// the search is cancelled). It does not affect results — an empty pool
// degrades to local evaluation — but it keeps the first generation
// from running locally while a fleet is still booting.
func (k *coordinator) waitForWorkers(ctx context.Context) {
	if k.c.minWorkers <= 0 {
		return
	}
	fmt.Fprintf(k.stderr, "audit: waiting for %d workers...\n", k.c.minWorkers)
	t := time.NewTicker(50 * time.Millisecond)
	defer t.Stop()
	for k.co.LiveWorkers() < k.c.minWorkers {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
	fmt.Fprintf(k.stderr, "audit: %d workers live\n", k.co.LiveWorkers())
}

// report prints what the pool did. It goes to stderr: stdout is the
// deterministic search outcome, the same whatever the pool did.
func (k *coordinator) report() {
	if k.co == nil {
		return
	}
	st := k.co.Stats()
	fmt.Fprintf(k.stderr, "dist: %d units remote, %d local, %d lease expiries, %d requeues, %d duplicate results, %d suspensions, %d evictions\n",
		st.UnitsRemote, st.UnitsLocal, st.LeaseExpiries, st.Requeues,
		st.DuplicateResults, st.Suspensions, st.Evictions)
	if ts := k.co.TraceTierStats(); ts.Hits+ts.Claims+ts.Puts > 0 {
		fmt.Fprintf(k.stderr, "trace-tier: %d hits, %d capture claims, %d waits, %d publishes, %d claim steals, %d wire bytes\n",
			ts.Hits, ts.Claims, ts.Waits, ts.Puts, ts.ClaimSteals, ts.WireBytes)
	}
}
