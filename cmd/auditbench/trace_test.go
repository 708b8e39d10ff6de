package main

import (
	"math"
	"testing"
)

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "core.Generate", Start: 0, End: 10},
		{ID: 1, Parent: 0, Name: "core.sweep", Start: 1, End: 4},
		// Overlaps its sibling: the union, not the sum, leaves the parent.
		{ID: 2, Parent: 0, Name: "testbed.batch", Start: 3, End: 6},
		// Runs past its parent's end: only the part inside counts.
		{ID: 3, Parent: 0, Name: "testbed.batch", Start: 8, End: 12},
		{ID: 4, Parent: 2, Name: "testbed.run", Start: 4, End: 5},
		// A root of its own (a worker): not part of span 0's tree.
		{ID: 5, Parent: -1, Name: "dist.worker", Start: 0, End: 20},
		{ID: 6, Parent: 5, Name: "dist.worker_busy", Start: 2, End: 3},
	}
	self := selfTimes(spans)
	want := map[int]float64{0: 10 - 7, 1: 3, 2: 3 - 1, 3: 4, 4: 1, 5: 19, 6: 1}
	for id, w := range want {
		if math.Abs(self[id]-w) > 1e-12 {
			t.Errorf("self[%d] = %v, want %v", id, self[id], w)
		}
	}
	tree := subtree(spans, 0)
	if len(tree) != 5 {
		t.Fatalf("subtree of 0 has %d spans, want 5: %+v", len(tree), tree)
	}
	for _, s := range tree {
		if s.ID >= 5 {
			t.Errorf("subtree of 0 holds worker span %d", s.ID)
		}
	}
}

// When children nest inside their parents and siblings do not overlap,
// self times partition the root: the ledger check relies on it.
func TestSelfTimesPartitionRoot(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "core.Generate", Start: 0, End: 5},
		{ID: 1, Parent: 0, Name: "core.sweep", Start: 0, End: 1.5},
		{ID: 2, Parent: 0, Name: "dist.pool_start", Start: 1.5, End: 1.75},
		{ID: 3, Parent: 0, Name: "dist.batch", Start: 2, End: 3},
		{ID: 4, Parent: 0, Name: "dist.batch", Start: 3.25, End: 4.5},
		{ID: 5, Parent: 3, Name: "testbed.run", Start: 2.5, End: 2.75},
	}
	self := selfTimes(spans)
	sum, byLayer := 0.0, map[string]float64{}
	for _, s := range subtree(spans, 0) {
		sum += self[s.ID]
		byLayer[layerOf(s.Name)] += self[s.ID]
	}
	if math.Abs(sum-5) > 1e-12 {
		t.Errorf("self times sum to %v, root is 5", sum)
	}
	want := map[string]float64{"ga": 1, "core": 1.5, "dist": 0.25 + 0.75 + 1.25, "testbed": 0.25}
	for l, w := range want {
		if math.Abs(byLayer[l]-w) > 1e-12 {
			t.Errorf("layer %s self = %v, want %v", l, byLayer[l], w)
		}
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1)
	tr.end(id)
	if id != -1 {
		t.Errorf("nil tracer begin = %d, want -1", id)
	}
	if tr.transport(nil) != nil || tr.busy(nil, 0) != nil || tr.tier(nil, 0) != nil {
		t.Error("nil tracer wrapped something")
	}
}

func TestTracerSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("core.Generate", -1)
	child := tr.begin("core.sweep", root)
	open := tr.begin("testbed.batch", root)
	tr.end(child)
	tr.end(child) // a second end keeps the first
	tr.end(root)
	spans := tr.closed()
	if len(spans) != 2 {
		t.Fatalf("closed spans = %d, want 2 (one still open)", len(spans))
	}
	for _, s := range spans {
		if s.ID == open || s.End < s.Start {
			t.Errorf("bad closed span %+v", s)
		}
	}
	if spans[1].Parent != root {
		t.Errorf("child parent = %d, want %d", spans[1].Parent, root)
	}
}

func TestClipAndControlRPC(t *testing.T) {
	w := span{Start: 1, End: 3}
	for _, c := range []struct {
		s    span
		want float64
	}{{span{Start: 0, End: 2}, 1}, {span{Start: 2, End: 5}, 1}, {span{Start: 4, End: 5}, 0}, {span{Start: 1.5, End: 2}, 0.5}} {
		if got := clip(c.s, w); got != c.want {
			t.Errorf("clip(%+v) = %v, want %v", c.s, got, c.want)
		}
	}
	if !controlRPC("dist.rpc.lease") || controlRPC("dist.rpc.heartbeat") || controlRPC("dist.rpc.trace_get") {
		t.Error("controlRPC misclassifies")
	}
}
