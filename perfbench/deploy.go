package main

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"mralloc/internal/alg"
	"mralloc/internal/core"
	"mralloc/internal/live"
	"mralloc/internal/serve"
	"mralloc/internal/sim"
	"mralloc/internal/transport"
)

// The lossy stack's settings, those of the recovery tier in
// internal/bench: leases, the tick that drives them, the retransmit
// range and the injected faults with their fixed seeds.
const (
	leaseTTL       = 250 * time.Millisecond
	leaseTick      = 20 * time.Millisecond
	retransmitBase = 2 * time.Millisecond
	retransmitMax  = 50 * time.Millisecond
	chaosSeed      = 0xbe9c4
)

var lossyFaults = transport.Faults{Drop: 0.02, Dup: 0.02}

// setupTimeout bounds one deployment's start, first grants included.
const setupTimeout = 30 * time.Second

// daemon is one mrallocd's worth of stack, hosted in this process:
// peer transport, cluster, client port, and the client connected to it.
type daemon struct {
	local   []int
	tcp     *transport.TCP
	chaos   *transport.Chaos    // lossy only
	rel     *transport.Reliable // lossy only
	cluster *live.Cluster
	server  *serve.Server
	client  *serve.Client
}

// deployment is the two daemons of one workload, peering over
// 127.0.0.1 TCP.
type deployment struct {
	w       workload
	daemons [2]*daemon
}

// factory is the protocol every daemon runs: counter-loan, with token
// leases on the lossy stack.
func (w workload) factory() alg.Factory {
	opt := core.WithLoan()
	if w.lossy {
		opt.LeaseTTL = sim.Time(leaseTTL)
	}
	return core.NewFactory(opt)
}

// deploy starts both daemons and returns once each listens, every node
// has been granted once through its client, and both peer links have
// negotiated; took is that set-up time. A non-nil tracer wraps each
// layer's entry points (see trace.go).
func deploy(w workload, tr *tracer) (_ *deployment, took time.Duration, err error) {
	start := time.Now()
	d := &deployment{w: w}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	addrs := make([]string, w.nodes)
	for i := range d.daemons {
		dm := &daemon{}
		for id := i * w.nodes / 2; id < (i+1)*w.nodes/2; id++ {
			dm.local = append(dm.local, id)
		}
		if dm.tcp, err = transport.ListenTCP("127.0.0.1:0", w.nodes, dm.local...); err != nil {
			return nil, 0, err
		}
		d.daemons[i] = dm
		for _, id := range dm.local {
			addrs[id] = dm.tcp.Addr()
		}
	}
	for i, dm := range d.daemons {
		if err = dm.tcp.Connect(addrs); err != nil {
			return nil, 0, err
		}
		if err = dm.start(w, i, tr); err != nil {
			return nil, 0, err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), setupTimeout)
	defer cancel()
	if err = d.firstGrants(ctx); err != nil {
		return nil, 0, err
	}
	for i, dm := range d.daemons {
		peer := d.daemons[1-i].tcp.Addr()
		for {
			if _, ok := dm.tcp.Negotiated(peer); ok {
				break
			}
			if ctx.Err() != nil {
				return nil, 0, fmt.Errorf("peer link %s → %s did not negotiate", dm.tcp.Addr(), peer)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	return d, time.Since(start), nil
}

// start builds one daemon above its listening TCP endpoint: the
// transport stack, the cluster and the client port, then dials the
// client.
func (dm *daemon) start(w workload, idx int, tr *tracer) error {
	var stack transport.Transport = dm.tcp
	if w.lossy {
		dm.chaos = transport.NewChaos(dm.tcp, chaosSeed+int64(idx))
		dm.rel = transport.NewReliable(dm.chaos)
		dm.rel.SetRetransmit(retransmitBase, retransmitMax)
		stack = dm.rel
	}
	factory := w.factory()
	var tick time.Duration
	if w.lossy {
		tick = leaseTick
	}
	if tr != nil {
		var err error
		if stack, err = tr.transport(stack); err != nil {
			return err
		}
		factory = tr.factory(factory)
	}
	c, err := live.New(live.Config{
		Nodes:     w.nodes,
		Resources: w.resources,
		Shards:    w.shards,
		Transport: stack,
		Local:     dm.local,
		Policy:    serve.FIFO,
		Tick:      tick,
		// mrallocd's default: delta-encoded token state.
		Wire: transport.WireOptions{Delta: true},
	}, factory)
	if err != nil {
		return err
	}
	dm.cluster = c
	open := func(node int) (serve.BackendSession, error) { return c.NewSession(node) }
	if tr != nil {
		open = tr.open(open)
	}
	if dm.server, err = serve.NewServer(serve.ServerConfig{
		Listen:    "127.0.0.1:0",
		Nodes:     w.nodes,
		Resources: w.resources,
		Shards:    w.shards,
		Local:     dm.local,
		Open:      open,
	}); err != nil {
		return err
	}
	dm.client, err = serve.Dial(dm.server.Addr())
	return err
}

// firstGrants has every node acquire and release resource id == node
// through its daemon's client. Node 0 starts out owning every token, so
// each other node's grant crosses the protocol, and the nodes of the
// second daemon cross both peer links.
func (d *deployment) firstGrants(ctx context.Context) error {
	var wg sync.WaitGroup
	errs := make(chan error, d.w.nodes)
	for _, dm := range d.daemons {
		for _, id := range dm.local {
			wg.Add(1)
			go func(c *serve.Client, id int) {
				defer wg.Done()
				release, err := c.Acquire(ctx, id, id)
				if err != nil {
					errs <- fmt.Errorf("first grant of node %d: %w", id, err)
					return
				}
				release()
			}(dm.client, id)
		}
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// daemonOf returns the daemon hosting node id.
func (d *deployment) daemonOf(id int) *daemon { return d.daemons[id*2/d.w.nodes] }

// armFaults switches the lossy stack's fault injection on.
func (d *deployment) armFaults() {
	for _, dm := range d.daemons {
		if dm.chaos != nil {
			dm.chaos.SetFaults(lossyFaults)
		}
	}
}

// close stops everything the deployment started and waits for it.
func (d *deployment) close() {
	for _, dm := range d.daemons {
		if dm == nil {
			continue
		}
		if dm.client != nil {
			dm.client.Close()
		}
		if dm.server != nil {
			dm.server.Close()
		}
		// The cluster owns its transport stack and closes it; the
		// stack's own Close, idempotent, covers a daemon whose
		// cluster never started.
		if dm.cluster != nil {
			dm.cluster.Close()
		}
		if dm.rel != nil {
			dm.rel.Close()
		}
		if dm.tcp != nil {
			dm.tcp.Close()
		}
	}
}

// coreNode returns the counter-algorithm state machine behind n,
// looking through the tracer's node wrapper.
func coreNode(n alg.Node) *core.Node {
	if t, ok := n.(interface{ unwrap() alg.Node }); ok {
		n = t.unwrap()
	}
	nd, _ := n.(*core.Node)
	return nd
}

// protocolCounters sums the counter-algorithm event counts of every
// local node and shard.
func (d *deployment) protocolCounters() core.Counters {
	var total core.Counters
	for _, dm := range d.daemons {
		for s := 0; s < dm.cluster.Shards(); s++ {
			for _, id := range dm.local {
				dm.cluster.InspectShard(s, id, func(n alg.Node) {
					if nd := coreNode(n); nd != nil {
						total.Add(nd.Counters())
					}
				})
			}
		}
	}
	return total
}

// dump writes every local node's admission queue and protocol counters
// through the public Cluster.QueueLen and Cluster.InspectShard, plus the
// recovery layers' counters: the state to read when a run stalls.
func (d *deployment) dump(w io.Writer) {
	for i, dm := range d.daemons {
		fmt.Fprintf(w, "daemon %d: %d client requests in flight\n", i, dm.server.Sessions())
		for _, id := range dm.local {
			fmt.Fprintf(w, "  node %d: %d queued for admission\n", id, dm.cluster.QueueLen(id))
			for s := 0; s < dm.cluster.Shards(); s++ {
				dm.cluster.InspectShard(s, id, func(n alg.Node) {
					if nd := coreNode(n); nd != nil {
						fmt.Fprintf(w, "    shard %d: %s\n", s, nd.Counters())
					}
				})
			}
		}
		if dm.rel != nil {
			fmt.Fprintf(w, "  reliable: %+v\n", dm.rel.RelStats())
		}
		if dm.chaos != nil {
			fmt.Fprintf(w, "  chaos: %+v\n", dm.chaos.ChaosStats())
		}
	}
}
