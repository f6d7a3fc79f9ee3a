package main

import (
	"sync/atomic"
	"testing"
	"time"

	"mralloc/internal/alg"
	"mralloc/internal/core"
	"mralloc/internal/network"
	"mralloc/internal/resource"
	"mralloc/internal/sim"
	"mralloc/internal/transport"
)

func TestTracedTransportHasInnerFaces(t *testing.T) {
	tr := newTracer(contended)
	tcp, err := transport.ListenTCP("127.0.0.1:0", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	if got, all := transportFaces(tcp), faceShape|faceTune|faceShard|faceBatch|faceLoss|faceKill; got != all {
		t.Fatalf("*transport.TCP faces %06b, want %06b", got, all)
	}
	tcp2, err := transport.ListenTCP("127.0.0.1:0", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	rel := transport.NewReliable(transport.NewChaos(tcp2, 1))
	defer rel.Close()
	for _, inner := range []transport.Transport{tcp, rel} {
		wrapped, err := tr.transport(inner)
		if err != nil {
			t.Fatalf("%T: %v", inner, err)
		}
		if got, want := transportFaces(wrapped), transportFaces(inner); got != want {
			t.Errorf("traced %T has faces %06b, inner has %06b", inner, got, want)
		}
	}
	// Any other set of faces is refused rather than wrapped into one
	// that would send live down another path.
	mem := transport.NewMem(2, 0)
	defer mem.Close()
	if _, err := tr.transport(mem); err == nil {
		t.Errorf("traced %T: want an error for faces %06b", mem, transportFaces(mem))
	}
}

// stubNode is an alg.Node that records which calls reached it.
type stubNode struct{ ticks, drains int }

func (*stubNode) Attach(alg.Env)                          {}
func (*stubNode) Request(resource.Set)                    {}
func (*stubNode) Release()                                {}
func (*stubNode) Deliver(network.NodeID, network.Message) {}

type tickingNode struct{ *stubNode }

func (n tickingNode) Tick(sim.Time) { n.ticks++ }

type drainingNode struct{ *stubNode }

func (n drainingNode) Drain() { n.drains++ }

type bothNode struct{ *stubNode }

func (n bothNode) Tick(sim.Time) { n.ticks++ }
func (n bothNode) Drain()        { n.drains++ }

func TestTracedNodeHasInnerFaces(t *testing.T) {
	tr := newTracer(contended)
	for _, tc := range []struct {
		name  string
		inner alg.Node
	}{
		{"plain", &stubNode{}},
		{"ticker", tickingNode{&stubNode{}}},
		{"drainer", drainingNode{&stubNode{}}},
		{"both", bothNode{&stubNode{}}},
		{"core", core.NewFactory(core.WithLoan())(2, 4)[0]},
	} {
		wrapped := traceNode(tc.inner, tr, 0)
		_, innerTicks := tc.inner.(alg.Ticker)
		_, innerDrains := tc.inner.(alg.Drainer)
		tk, ticks := wrapped.(alg.Ticker)
		dr, drains := wrapped.(alg.Drainer)
		if ticks != innerTicks || drains != innerDrains {
			t.Errorf("%s: traced node Ticker=%v Drainer=%v, inner Ticker=%v Drainer=%v",
				tc.name, ticks, drains, innerTicks, innerDrains)
			continue
		}
		var stub *stubNode
		switch n := tc.inner.(type) {
		case tickingNode:
			stub = n.stubNode
		case drainingNode:
			stub = n.stubNode
		case bothNode:
			stub = n.stubNode
		}
		if stub == nil {
			continue
		}
		if ticks {
			tk.Tick(sim.Time(time.Millisecond))
		}
		if drains {
			dr.Drain()
		}
		if (stub.ticks == 1) != ticks || (stub.drains == 1) != drains {
			t.Errorf("%s: inner saw %d ticks and %d drains through the traced node", tc.name, stub.ticks, stub.drains)
		}
	}
	nd := core.NewFactory(core.WithLoan())(2, 4)[0]
	if coreNode(traceNode(nd, tr, 0)) != nd {
		t.Errorf("coreNode does not see through the traced node")
	}
}

func TestUnion(t *testing.T) {
	for _, tc := range []struct {
		spans [][2]int64
		want  int64
	}{
		{nil, 0},
		{[][2]int64{{5, 9}}, 4},
		{[][2]int64{{10, 20}, {0, 5}}, 15},
		{[][2]int64{{0, 10}, {5, 15}, {12, 13}}, 15},
	} {
		if got := union(tc.spans); got != tc.want {
			t.Errorf("union(%v) = %d, want %d", tc.spans, got, tc.want)
		}
	}
}

// TestRunIsExclusive drives a short window of each workload the
// benchmark gates, traced and untraced, and checks the client-side
// exclusivity table saw no overlap and every acquire was granted.
func TestRunIsExclusive(t *testing.T) {
	if testing.Short() {
		t.Skip("drives live deployments")
	}
	for _, name := range []string{"contended", "local", "sharded"} {
		w := workloads[name]
		for _, tr := range []*tracer{nil, newTracer(w)} {
			d, _, err := deploy(w, tr)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			win := run(d, 1, 300*time.Millisecond, tr)
			d.close()
			if v, g, a := win.violations.Load(), win.granted.Load(), win.attempted.Load(); v != 0 || g == 0 || g != a {
				t.Errorf("%s traced=%v: %d violations, %d of %d granted", name, tr != nil, v, g, a)
			}
			if tr != nil && tr.coreSync.count() == 0 {
				t.Errorf("%s: traced run recorded no synchronization spans", name)
			}
		}
	}
}

func TestWatchStalls(t *testing.T) {
	var inflight, progress atomic.Int64
	dumped := make(chan struct{}, 1)
	stop := make(chan struct{})
	type result struct {
		stalls  int
		longest time.Duration
	}
	out := make(chan result)
	start := time.Now()
	progress.Store(start.UnixNano())
	inflight.Store(1)
	go func() {
		s, l := watchStalls(func() { dumped <- struct{}{} }, &inflight, &progress, stop)
		out <- result{s, l}
	}()
	<-dumped // the first stall dumps once it has lasted stallAfter
	time.Sleep(200 * time.Millisecond)
	progress.Store(time.Now().UnixNano()) // a grant ends it
	time.Sleep(200 * time.Millisecond)
	close(stop)
	r := <-out
	if r.stalls != 1 || r.longest < stallAfter || r.longest > time.Since(start) {
		t.Fatalf("got %d stalls, longest %v; want 1 of at least %v", r.stalls, r.longest, stallAfter)
	}
}
