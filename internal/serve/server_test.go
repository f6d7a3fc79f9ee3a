package serve_test

import (
	"bufio"
	"errors"
	"net"

	"context"
	"fmt"
	"math/rand"
	"mralloc/internal/wire"
	"strings"
	"sync"
	"testing"
	"time"

	"mralloc/internal/core"
	"mralloc/internal/leakcheck"
	"mralloc/internal/live"
	"mralloc/internal/network"
	"mralloc/internal/resource"
	"mralloc/internal/serve"
	"mralloc/internal/sim"
	"mralloc/internal/verify"
)

// startServer brings up a live cluster and a client-port server over
// it — the in-process version of what cmd/mrallocd assembles.
func startServer(t *testing.T, nodes, m int, policy serve.Policy) (*live.Cluster, *serve.Server) {
	t.Helper()
	c, err := live.New(live.Config{Nodes: nodes, Resources: m, Policy: policy}, core.NewFactory(core.WithLoan()))
	if err != nil {
		t.Fatal(err)
	}
	local := make([]int, nodes)
	for i := range local {
		local[i] = i
	}
	srv, err := serve.NewServer(serve.ServerConfig{
		Listen:    "127.0.0.1:0",
		Nodes:     nodes,
		Resources: m,
		Local:     local,
		Open:      func(node int) (serve.BackendSession, error) { return c.NewSession(node) },
	})
	if err != nil {
		c.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		c.Close()
	})
	return c, srv
}

func TestClientAcquireReleaseRoundTrip(t *testing.T) {
	_, srv := startServer(t, 2, 4, serve.FIFO)
	cl, err := serve.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	release, err := cl.Acquire(context.Background(), 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	release()
	release() // idempotent
	// AnyNode round-robins over hosted nodes.
	for i := 0; i < 4; i++ {
		rel, err := cl.Acquire(context.Background(), serve.AnyNode, i%4)
		if err != nil {
			t.Fatalf("AnyNode acquire %d: %v", i, err)
		}
		rel()
	}
}

func TestClientDenials(t *testing.T) {
	_, srv := startServer(t, 2, 4, serve.FIFO)
	cl, err := serve.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Acquire(context.Background(), 0, 99); err == nil || !strings.Contains(err.Error(), "denied") {
		t.Errorf("out-of-range resource: %v, want denial", err)
	}
	if _, err := cl.Acquire(context.Background(), 1, 0); err != nil {
		t.Errorf("valid acquire after denial: %v", err)
	} else {
		// Held grants are fine to leak here; Close releases them.
	}
	if _, err := cl.Acquire(context.Background(), 0); err == nil {
		t.Error("empty resource set accepted")
	}
}

// TestClientCancelWithdraws: a context canceled while the request is
// queued must withdraw it server-side, leaving the resource available.
func TestClientCancelWithdraws(t *testing.T) {
	_, srv := startServer(t, 1, 1, serve.FIFO)
	cl, err := serve.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	release, err := cl.Acquire(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := cl.Acquire(ctx, 0, 0); err == nil {
		t.Fatal("expected context error")
	}
	release()
	// The withdrawn request must not hold the resource hostage.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	rel2, err := cl.Acquire(ctx2, 0, 0)
	if err != nil {
		t.Fatalf("resource never freed after withdrawal: %v", err)
	}
	rel2()
}

// TestClientDisconnectReleases: dropping a connection must release its
// grants and withdraw its queued requests — a crashed client cannot
// strand resources.
func TestClientDisconnectReleases(t *testing.T) {
	_, srv := startServer(t, 1, 2, serve.FIFO)
	clA, err := serve.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clA.Acquire(context.Background(), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	clB, err := serve.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer clB.Close()
	queued := make(chan error, 1)
	go func() {
		rel, err := clB.Acquire(context.Background(), 0, 0)
		if err == nil {
			rel()
		}
		queued <- err
	}()
	time.Sleep(50 * time.Millisecond)
	clA.Close() // holds r0+r1, and takes its pending state with it
	select {
	case err := <-queued:
		if err != nil {
			t.Fatalf("B's acquire after A's disconnect: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("A's grant never released after disconnect")
	}
}

// TestClientServerClose: closing the server must unwind in-flight
// client requests and leak nothing.
func TestClientServerClose(t *testing.T) {
	defer leakcheck.Check(t)()
	c, err := live.New(live.Config{Nodes: 1, Resources: 1}, core.NewFactory(core.WithLoan()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv, err := serve.NewServer(serve.ServerConfig{
		Listen: "127.0.0.1:0", Nodes: 1, Resources: 1, Local: []int{0},
		Open: func(node int) (serve.BackendSession, error) { return c.NewSession(node) },
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := serve.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Acquire(context.Background(), 0, 0); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() {
		_, err := cl.Acquire(context.Background(), 0, 0)
		blocked <- err
	}()
	time.Sleep(50 * time.Millisecond)
	srv.Close()
	select {
	case err := <-blocked:
		if err == nil {
			t.Fatal("blocked acquire succeeded across server close")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("blocked acquire never unblocked on server close")
	}
	// The cluster behind the server must still be healthy.
	rel, err := c.Acquire(context.Background(), 0, 0)
	if err != nil {
		t.Fatalf("cluster broken after server close: %v", err)
	}
	rel()
}

// TestClientProtocolStress is the acceptance battery: ≥64 concurrent
// client sessions per node driving the cluster through the client
// wire protocol, every grant/release checked by verify.Monitor (each
// client goroutine gets a synthetic site id, so hypothesis-4 and
// safety are checked per session), zero violations and no starvation
// (every acquire completes within the generous timeout).
func TestClientProtocolStress(t *testing.T) {
	const nodes, m, perNode = 2, 8, 64
	iters := 8
	if testing.Short() {
		iters = 3
	}
	for _, policy := range []serve.Policy{serve.FIFO, serve.SSF} {
		policy := policy
		t.Run(string(policy), func(t *testing.T) {
			_, srv := startServer(t, nodes, m, policy)
			var monMu sync.Mutex
			start := time.Now()
			now := func() sim.Time { return sim.Time(time.Since(start)) }
			mon := verify.New(m, func(v verify.Violation) { t.Errorf("%v", v) })

			// A handful of connections, many sessions each: the wire
			// multiplexing is part of what is under test.
			const conns = 4
			clients := make([]*serve.Client, conns)
			for i := range clients {
				cl, err := serve.Dial(srv.Addr())
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				clients[i] = cl
			}

			var wg sync.WaitGroup
			total := nodes * perNode
			for s := 0; s < total; s++ {
				s := s
				wg.Add(1)
				go func() {
					defer wg.Done()
					sid := network.NodeID(s)
					node := s % nodes
					cl := clients[s%conns]
					rng := rand.New(rand.NewSource(int64(s)*6151 + 7))
					for i := 0; i < iters; i++ {
						rs := resource.Sample(rng, m, 1+rng.Intn(3))
						ids := make([]int, 0, rs.Len())
						rs.ForEach(func(r resource.ID) { ids = append(ids, int(r)) })

						monMu.Lock()
						mon.Requested(sid, now())
						monMu.Unlock()

						ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
						release, err := cl.AcquireWith(ctx, node, serve.AcquireOpts{
							Resources: ids,
							Deadline:  time.Now().Add(time.Duration(1+rng.Intn(500)) * time.Millisecond),
						})
						cancel()
						if err != nil {
							t.Errorf("session %d iter %d: %v (liveness)", s, i, err)
							return
						}
						monMu.Lock()
						mon.Granted(sid, rs, now())
						monMu.Unlock()

						if d := rng.Intn(100); d > 0 {
							time.Sleep(time.Duration(d) * time.Microsecond)
						}

						monMu.Lock()
						mon.Released(sid, rs, now())
						monMu.Unlock()
						release()
					}
				}()
			}
			wg.Wait()
			monMu.Lock()
			defer monMu.Unlock()
			mon.CheckQuiescent(now())
			if got, want := mon.Grants(), total*iters; got != want {
				t.Errorf("monitor saw %d grants, want %d", got, want)
			}
		})
	}
}

// TestClientPortCoalescesOverLoopback drives concurrent sessions of
// one Client through a client port on a real socket: the coalescing
// writers at both ends must carry the traffic, at least one frame per
// flush, with a batch histogram of their flushes, and the grants must
// have cost the cluster protocol messages.
func TestClientPortCoalescesOverLoopback(t *testing.T) {
	const nodes, m, sessions, ops = 4, 32, 8, 50
	c, srv := startServer(t, nodes, m, serve.FIFO)
	cl, err := serve.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var wg sync.WaitGroup
	for w := 0; w < sessions; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				r1 := (i + w*7) % m
				release, err := cl.Acquire(context.Background(), serve.AnyNode, r1, (r1+11)%m)
				if err != nil {
					t.Errorf("session %d op %d: %v", w, i, err)
					return
				}
				release()
			}
		}()
	}
	wg.Wait()
	for side, st := range map[string]wire.CoalescerStats{"server": srv.WireStats(), "client": cl.WireStats()} {
		if st.Writes <= 0 || st.Bytes <= 0 || st.Flushes <= 0 {
			t.Errorf("%s: no egress recorded: %+v", side, st)
		}
		if st.Frames < st.Flushes {
			t.Errorf("%s: %d frames over %d flushes, below one per flush", side, st.Frames, st.Flushes)
		}
		if st.HistString() == "" {
			t.Errorf("%s: empty batch histogram: %+v", side, st)
		}
	}
	var msgs int64
	for _, v := range c.Stats() {
		msgs += v
	}
	if msgs <= 0 {
		t.Error("no protocol messages recorded")
	}
}

// TestMaxQueueDeniesWithOverloaded: once a node's waiting requests hit
// the MaxQueue bound, further acquires must be denied immediately with
// the distinct overload code (errors.Is ErrOverloaded on the client),
// and the bound must lift again as the queue drains.
func TestMaxQueueDeniesWithOverloaded(t *testing.T) {
	const maxQueue = 2
	c, err := live.New(live.Config{Nodes: 1, Resources: 1}, core.NewFactory(core.WithLoan()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv, err := serve.NewServer(serve.ServerConfig{
		Listen: "127.0.0.1:0", Nodes: 1, Resources: 1, Local: []int{0},
		MaxQueue: maxQueue,
		Open:     func(node int) (serve.BackendSession, error) { return c.NewSession(node) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := serve.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Hold the only resource so everything behind it queues.
	release, err := cl.Acquire(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the admission queue to the bound.
	results := make(chan error, maxQueue)
	for i := 0; i < maxQueue; i++ {
		go func() {
			rel, err := cl.Acquire(context.Background(), 0, 0)
			if err == nil {
				rel()
			}
			results <- err
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.QueueLen(0) < maxQueue {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: %d/%d", srv.QueueLen(0), maxQueue)
		}
		time.Sleep(time.Millisecond)
	}
	// One more must bounce with the overload code, not queue.
	if _, err := cl.Acquire(context.Background(), 0, 0); !errors.Is(err, serve.ErrOverloaded) {
		t.Fatalf("over-limit acquire: %v, want ErrOverloaded", err)
	}
	// Drain: the held grant releases, the queued pair completes, and
	// the bound lifts for new work.
	release()
	for i := 0; i < maxQueue; i++ {
		select {
		case err := <-results:
			if err != nil {
				t.Fatalf("queued acquire failed: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("queued acquire never completed")
		}
	}
	rel, err := cl.Acquire(context.Background(), 0, 0)
	if err != nil {
		t.Fatalf("acquire after drain: %v", err)
	}
	rel()
}

// TestServerValidation: nonsense configurations must be rejected.
func TestServerValidation(t *testing.T) {
	open := func(int) (serve.BackendSession, error) { return nil, fmt.Errorf("unused") }
	bad := []serve.ServerConfig{
		{Listen: "127.0.0.1:0", Nodes: 0, Resources: 1, Local: []int{0}, Open: open},
		{Listen: "127.0.0.1:0", Nodes: 1, Resources: 1, Open: open},
		{Listen: "127.0.0.1:0", Nodes: 1, Resources: 1, Local: []int{3}, Open: open},
		{Listen: "127.0.0.1:0", Nodes: 1, Resources: 1, Local: []int{0}},
	}
	for i, cfg := range bad {
		if srv, err := serve.NewServer(cfg); err == nil {
			srv.Close()
			t.Errorf("config %d accepted", i)
		}
	}
}

// TestDuplicateRequestIDKillsConnection: reusing an in-flight request
// id is a protocol violation — a deny would carry the original
// request's id and strand its eventual grant — so the server must
// drop the connection and unwind everything it held.
func TestDuplicateRequestIDKillsConnection(t *testing.T) {
	_, srv := startServer(t, 1, 2, serve.FIFO)
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	sendRaw := func(m network.Message) {
		payload, err := wire.Append(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Write(wire.AppendFrame(nil, payload)); err != nil {
			t.Fatal(err)
		}
	}
	sendRaw(serve.ClientAcquire{Req: 7, Node: 0, Resources: []int64{0}})
	// Wait for the grant so request 7 holds resource 0. The server may
	// coalesce responses, so read through the batch-aware reader.
	fr := wire.NewFrameReader(nc, 1<<20)
	frame, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if m, err := wire.Decode(frame); err != nil {
		t.Fatal(err)
	} else if g, ok := m.(serve.ClientGrant); !ok || g.Req != 7 {
		t.Fatalf("expected grant for req 7, got %#v", m)
	}
	// Reuse the id: the connection must die...
	sendRaw(serve.ClientAcquire{Req: 7, Node: 0, Resources: []int64{1}})
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := fr.Next(); err == nil {
		t.Fatal("connection survived a duplicate request id")
	}
	// ...and the teardown must release the grant it held.
	cl, err := serve.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	release, err := cl.Acquire(ctx, 0, 0)
	if err != nil {
		t.Fatalf("resource 0 stranded after the violating connection died: %v", err)
	}
	release()
}

// TestClientLearnsShape: the hello reply carries the cluster shape, so
// a client needs no out-of-band N or M.
func TestClientLearnsShape(t *testing.T) {
	_, srv := startServer(t, 3, 7, serve.FIFO)
	cl, err := serve.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	nodes, resources, err := cl.Shape(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if nodes != 3 || resources != 7 {
		t.Fatalf("learned shape %d/%d, want 3/7", nodes, resources)
	}
}

// TestAcquireAllRoundTrip: one frame carries a batch of acquisitions
// spread over distinct nodes (one critical section per node); the
// combined release hands every set back.
func TestAcquireAllRoundTrip(t *testing.T) {
	_, srv := startServer(t, 3, 6, serve.FIFO)
	cl, err := serve.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	release, err := cl.AcquireAll(ctx, serve.AnyNode, []int{0, 1}, []int{2}, []int{3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	release()
	release() // idempotent
	// Everything must be free again: re-acquire each set singly.
	for _, set := range [][]int{{0, 1}, {2}, {3, 4, 5}} {
		rel, err := cl.Acquire(ctx, serve.AnyNode, set...)
		if err != nil {
			t.Fatalf("set %v stranded after AcquireAll release: %v", set, err)
		}
		rel()
	}
}

// TestAcquireAllPartialDeny: a batch with one bad set is all-or-
// nothing — the good sets' grants are handed back, nothing stranded.
func TestAcquireAllPartialDeny(t *testing.T) {
	_, srv := startServer(t, 3, 4, serve.FIFO)
	cl, err := serve.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err = cl.AcquireAll(ctx, serve.AnyNode, []int{0}, []int{99}, []int{1})
	if err == nil || !strings.Contains(err.Error(), "denied") {
		t.Fatalf("bad set accepted: %v", err)
	}
	// The granted sets must have been handed back.
	for _, r := range []int{0, 1} {
		rel, err := cl.Acquire(ctx, serve.AnyNode, r)
		if err != nil {
			t.Fatalf("resource %d stranded after partial deny: %v", r, err)
		}
		rel()
	}
}

// TestAcquireAllOverwideBatch: hypothesis 4 admits one critical
// section per node, so batches that cannot hold their sets on distinct
// nodes are refused — multi-set explicit-node batches before any bytes
// move, over-wide AnyNode batches by the daemon, all-or-nothing.
func TestAcquireAllOverwideBatch(t *testing.T) {
	_, srv := startServer(t, 2, 4, serve.FIFO)
	cl, err := serve.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := cl.AcquireAll(ctx, 0, []int{0}, []int{1}); err == nil ||
		!strings.Contains(err.Error(), "one critical section per node") {
		t.Fatalf("multi-set explicit-node batch accepted: %v", err)
	}
	// Three sets, two hosted nodes: denied, nothing stranded.
	if _, err := cl.AcquireAll(ctx, serve.AnyNode, []int{0}, []int{1}, []int{2}); err == nil ||
		!strings.Contains(err.Error(), "hosted nodes") {
		t.Fatalf("over-wide batch accepted: %v", err)
	}
	for _, r := range []int{0, 1, 2} {
		rel, err := cl.Acquire(ctx, serve.AnyNode, r)
		if err != nil {
			t.Fatalf("resource %d stranded after over-wide deny: %v", r, err)
		}
		rel()
	}
}

// TestLegacyClientServed: a pre-negotiation client (no hello) is
// served byte-for-byte as before — granted, and never sent a control
// it could not parse.
func TestLegacyClientServed(t *testing.T) {
	_, srv := startServer(t, 1, 2, serve.FIFO)
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	payload, err := wire.Append(nil, serve.ClientAcquire{Req: 1, Node: 0, Resources: []int64{0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(wire.AppendFrame(nil, payload)); err != nil {
		t.Fatal(err)
	}
	fr := wire.NewFrameReader(nc, 1<<20)
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	frame, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if m, err := wire.Decode(frame); err != nil {
		t.Fatal(err)
	} else if g, ok := m.(serve.ClientGrant); !ok || g.Req != 1 {
		t.Fatalf("expected grant, got %#v", m)
	}
	// The modern frame reader would silently skip a stray control; a
	// real legacy reader would die on one. Assert none arrived.
	if n := fr.SkippedControls(); n != 0 {
		t.Fatalf("legacy connection received %d stream controls", n)
	}
}

// TestClientPortRejectsBadVersion: a hello from an incompatible build
// draws a CtrlReject naming the version, then the connection dies.
func TestClientPortRejectsBadVersion(t *testing.T) {
	_, srv := startServer(t, 1, 2, serve.FIFO)
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	h := wire.AppendHello(nil, wire.Hello{Version: wire.ProtoVersion + 9})
	if _, err := nc.Write(wire.AppendControl(nil, wire.CtrlHello, h)); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	ctl, err := wire.ReadControl(bufio.NewReader(nc))
	if err != nil {
		t.Fatal(err)
	}
	if ctl.Code != wire.CtrlReject {
		t.Fatalf("got control %d, want CtrlReject", ctl.Code)
	}
	if reason, err := wire.ParseReject(ctl.Payload); err != nil || !strings.Contains(reason, "version") {
		t.Fatalf("reject reason %q, %v", reason, err)
	}
}
