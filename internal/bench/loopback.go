// Package bench holds the twin exhibits behind the allocator's design
// choices, as plain tests: adaptive admission against unbounded FIFO
// past the saturation knee, the adaptive policy's capped SLO search,
// G=4 against G=1 resource shards, ordered against two-phase
// cross-shard acquisition, and delta-encoded against full token state
// on the wire. Each test measures its twins in the same run and reads
// no committed file; where a gate also has an absolute floor, the floor
// is a named constant that cites the measurement it came from.
//
// The benchmark of the whole stack is perfbench (BENCHMARK.json at the
// repository root); this package exists only to keep those design
// decisions honest in `go test ./...`.
package bench

import (
	"sync"
	"sync/atomic"
	"time"

	"mralloc/internal/core"
	"mralloc/internal/live"
	"mralloc/internal/serve"
	"mralloc/internal/transport"
)

// loopback is two in-process daemons on real 127.0.0.1 sockets, each
// what mrallocd assembles: a TCP peer transport and a counter-loan live
// cluster hosting half the nodes, plus, when asked, a client port with
// one serve.Client dialled into it. Every cross-half protocol message
// crosses a real socket.
type loopback struct {
	trs      []*transport.TCP
	clusters []*live.Cluster
	servers  []*serve.Server
	clients  []*serve.Client
}

// startLoopback deploys cfg.Nodes (even) nodes over two daemons. cfg
// is each daemon's live configuration; Transport and Local are filled
// in here. Under serve.Adaptive the client ports shed on the cluster's
// load oracle, as `mrallocd -policy adaptive` does.
func startLoopback(cfg live.Config, clientPorts bool) (*loopback, error) {
	locals := [2][]int{}
	for i := 0; i < cfg.Nodes; i++ {
		d := 0
		if i >= cfg.Nodes/2 {
			d = 1
		}
		locals[d] = append(locals[d], i)
	}
	lb := &loopback{}
	fail := func(err error) (*loopback, error) {
		lb.close()
		return nil, err
	}
	addrs := make([]string, cfg.Nodes)
	for _, local := range locals {
		tr, err := transport.ListenTCP("127.0.0.1:0", cfg.Nodes, local...)
		if err != nil {
			return fail(err)
		}
		lb.trs = append(lb.trs, tr)
		for _, id := range local {
			addrs[id] = tr.Addr()
		}
	}
	for d, tr := range lb.trs {
		if err := tr.Connect(addrs); err != nil {
			return fail(err)
		}
		dcfg := cfg
		dcfg.Transport, dcfg.Local = tr, locals[d]
		c, err := live.New(dcfg, core.NewFactory(core.WithLoan()))
		if err != nil {
			return fail(err)
		}
		lb.clusters = append(lb.clusters, c)
		if !clientPorts {
			continue
		}
		scfg := serve.ServerConfig{
			Listen:    "127.0.0.1:0",
			Nodes:     cfg.Nodes,
			Resources: cfg.Resources,
			Local:     locals[d],
			Open:      func(node int) (serve.BackendSession, error) { return c.NewSession(node) },
		}
		if cfg.Policy == serve.Adaptive {
			scfg.Overloaded = c.Overloaded
			scfg.NoteShed = c.NoteShed
		}
		srv, err := serve.NewServer(scfg)
		if err != nil {
			return fail(err)
		}
		lb.servers = append(lb.servers, srv)
		cl, err := serve.Dial(srv.Addr())
		if err != nil {
			return fail(err)
		}
		lb.clients = append(lb.clients, cl)
	}
	return lb, nil
}

func (lb *loopback) close() {
	for _, cl := range lb.clients {
		cl.Close()
	}
	for _, s := range lb.servers {
		s.Close()
	}
	for _, cl := range lb.clusters {
		cl.Close() // closes its transport
	}
	// Transports with no cluster yet (assembly error paths); Close is
	// idempotent, so an already-adopted transport costs nothing.
	for _, tr := range lb.trs {
		tr.Close()
	}
}

// closedLoop runs workers callers that each issue op back to back
// until d has passed; i numbers the operations across all callers, so
// a draw computed from (w, i) does not depend on timing. It returns
// how many operations completed and how long they took, or the first
// error, which stops every caller.
func closedLoop(workers int, d time.Duration, op func(w int, i int64) error) (int64, time.Duration, error) {
	var next, done atomic.Int64
	var failed atomic.Bool
	var firstErr error
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() && time.Now().Before(deadline) {
				if err := op(w, next.Add(1)-1); err != nil {
					if failed.CompareAndSwap(false, true) {
						firstErr = err
					}
					return
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	return done.Load(), time.Since(start), firstErr
}
