package main

import (
	"context"
	"io"
	"net/http"
	"path"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/testbed"
	"repro/internal/tracestore"
)

// span is one timed interval of a traced sample. Start and End are
// seconds since the trace began; Parent is -1 for a root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps a traced sample's spans in memory. Every method is a
// no-op on a nil *tracer, which is how a timed sample runs: the same
// code, with no spans and no wrappers.
type tracer struct {
	origin time.Time
	wire   atomic.Int64 // RPC body bytes, both directions

	mu      sync.Mutex
	spans   []span
	workers map[int]*workerTrace // by worker root span
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), workers: map[int]*workerTrace{}}
}

func (t *tracer) now() float64 { return time.Since(t.origin).Seconds() }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: t.now(), End: -1})
	return id
}

// end closes span id; closing twice keeps the first end.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	if t.spans[id].End < 0 {
		t.spans[id].End = now
	}
	t.mu.Unlock()
}

// closed returns a copy of every span that has ended.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes is each span's duration minus the part of it that the
// union of its children covers, keyed by span id.
func selfTimes(spans []span) map[int]float64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - coverage(kids[s.ID], s.Start, s.End)
	}
	return self
}

// coverage is the length of the union of the spans' intervals, clipped
// to [lo, hi].
func coverage(spans []span, lo, hi float64) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, curA, curB := 0.0, 0.0, -1.0
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// subtree returns root and every span below it.
func subtree(spans []span, root int) []span {
	in := map[int]bool{root: true}
	var out []span
	// Children always open after their parent, so ids ascend down the
	// tree and one pass in id order finds every descendant.
	for _, s := range spans {
		if s.ID == root || in[s.Parent] && s.Parent >= 0 {
			in[s.ID] = true
			out = append(out, s)
		}
	}
	return out
}

// transport wraps base so each RPC becomes a span named after its
// endpoint, and request and response bodies count toward the wire
// total. The span closes when the caller closes the response body.
func (t *tracer) transport(base http.RoundTripper) http.RoundTripper {
	if t == nil {
		return base
	}
	return &timingTransport{t: t, base: base}
}

type timingTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (tt *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	name := "dist.rpc." + path.Base(req.URL.Path)
	if name == "dist.rpc.trace" {
		name += "_" + map[string]string{http.MethodGet: "get", http.MethodPut: "put"}[req.Method]
	}
	id := tt.t.begin(name, -1)
	if req.ContentLength > 0 {
		tt.t.wire.Add(req.ContentLength)
	}
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		tt.t.end(id)
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, t: tt.t, id: id}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	t  *tracer
	id int
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.t.wire.Add(int64(n))
	return n, err
}

func (b *countingBody) Close() error {
	b.t.end(b.id)
	return b.ReadCloser.Close()
}

// workerTrace follows one dist worker: a root span over its life, a
// dist.worker_busy span per leased unit, and tier calls nested in the
// unit that made them.
type workerTrace struct {
	t    *tracer
	root int
	cur  atomic.Int64 // the open busy span, or the root between units
}

// busy wraps a worker's platform so each unit it measures is a span.
func (t *tracer) busy(cp testbed.ContextBatchRunner, root int) testbed.ContextBatchRunner {
	if t == nil {
		return cp
	}
	return &busyRunner{ContextBatchRunner: cp, wt: t.worker(root)}
}

// tier wraps a worker's trace-tier client so fetches and publishes
// become spans under the unit that issued them.
func (t *tracer) tier(inner testbed.TraceTier, root int) testbed.TraceTier {
	if t == nil {
		return inner
	}
	return &tracedTier{inner: inner, wt: t.worker(root)}
}

// worker returns the one workerTrace for root, shared by the busy and
// tier wrappers of the same worker.
func (t *tracer) worker(root int) *workerTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	wt := t.workers[root]
	if wt == nil {
		wt = &workerTrace{t: t, root: root}
		wt.cur.Store(int64(root))
		t.workers[root] = wt
	}
	return wt
}

type busyRunner struct {
	testbed.ContextBatchRunner
	wt *workerTrace
}

func (b *busyRunner) MeasureBatchContext(ctx context.Context, rcs []testbed.RunConfig, lanes, workers int) ([]*testbed.Measurement, []error) {
	id := b.wt.t.begin("dist.worker_busy", b.wt.root)
	b.wt.cur.Store(int64(id))
	defer func() {
		b.wt.cur.Store(int64(b.wt.root))
		b.wt.t.end(id)
	}()
	return b.ContextBatchRunner.MeasureBatchContext(ctx, rcs, lanes, workers)
}

type tracedTier struct {
	inner testbed.TraceTier
	wt    *workerTrace
}

func (tt *tracedTier) Fetch(key []byte) (*tracestore.Record, int, bool) {
	id := tt.wt.t.begin("dist.tier_fetch", int(tt.wt.cur.Load()))
	defer tt.wt.t.end(id)
	return tt.inner.Fetch(key)
}

func (tt *tracedTier) Publish(key []byte, rec *tracestore.Record) int {
	id := tt.wt.t.begin("dist.tier_publish", int(tt.wt.cur.Load()))
	defer tt.wt.t.end(id)
	return tt.inner.Publish(key, rec)
}
