// Package live runs multi-resource allocation nodes as real concurrent
// processes: one goroutine per site, a transport.Transport as the
// message fabric. The same alg.Node state machines that run under the
// deterministic simulation run here unchanged, which is both a strong
// test (the race detector sees real interleavings) and the basis of the
// public lock-manager API (package mralloc).
//
// The transport decides the deployment shape. With the default
// in-process transport every node lives in this process and messages
// are direct handler calls; with a TCP transport (internal/transport)
// a cluster spans OS processes, each hosting the subset of nodes named
// by Config.Local, and messages cross the wire through the
// internal/wire codec. The protocol cannot tell the difference — the
// transport contract (reliable FIFO per ordered pair, see
// internal/transport) is exactly the paper's hypotheses 1–3.
//
// Each site owns an event loop goroutine that serializes its protocol
// activations — exactly the atomicity the algorithms assume. Message
// queues are unbounded so that no cycle of full mailboxes can deadlock
// the token exchange.
//
// Above the protocol sits the serve layer (internal/serve): a node's
// single request slot (hypothesis 4) is fed by an admission scheduler,
// so any number of concurrent Sessions can multiplex onto one node.
// Sessions enqueue Acquires with deadlines and cancellation; the loop
// admits them one at a time under the configured policy, with aging
// guaranteeing starvation freedom.
package live

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"mralloc/internal/alg"
	"mralloc/internal/network"
	"mralloc/internal/resource"
	"mralloc/internal/serve"
	"mralloc/internal/sim"
	"mralloc/internal/transport"
)

// ErrClosed is returned by Acquire (outstanding or queued) and
// NewSession once the cluster has been closed. Callers distinguish it
// from context errors with errors.Is.
var ErrClosed = errors.New("live: cluster closed")

// Config sizes a live cluster.
type Config struct {
	Nodes     int
	Resources int
	// Latency, when positive, delays every message delivery of the
	// built-in in-process transport (FIFO per link is preserved). It
	// cannot be combined with a custom Transport.
	Latency time.Duration
	// Transport, when non-nil, carries the cluster's messages; the
	// cluster takes ownership and closes it on Close. Nil selects the
	// in-process transport, which requires every node to be local.
	Transport transport.Transport
	// Local lists the node ids hosted by this process. Nil or empty
	// means all of them (the single-process configuration). Remote
	// nodes are reachable through the transport but cannot be driven
	// by this cluster's sessions or inspected.
	Local []int
	// Policy selects the admission ordering of each node's scheduler
	// (serve.FIFO when empty); Aging is the starvation-freedom
	// threshold (serve.DefaultAging when zero).
	Policy serve.Policy
	Aging  time.Duration
	// AdmitTarget is the grant-latency target the Adaptive policy
	// tunes its admission bound and ordering mode toward
	// (serve.DefaultAdmitTarget when zero; ignored by fixed policies).
	AdmitTarget time.Duration
	// Shards, when above 1, splits the resource universe into that many
	// contiguous shards (resource.ShardMap), each running its own
	// allocator instances and event loops: single-shard acquires from
	// different shards proceed fully in parallel on every node. The
	// transport must implement transport.Sharder (the Mem and TCP
	// fabrics do); every process of a multi-process cluster must
	// configure the same count. 0 or 1 selects the flat single-universe
	// cluster — exactly the pre-shard code path, byte-for-byte on the
	// wire.
	Shards int
	// CrossShardTwoPhase switches acquires spanning several shards from
	// ordered locking (shards taken one at a time in ascending shard
	// order — deadlock-free the same way AcquireAll's ascending node
	// order is) to a two-phase scheme: every shard is requested in
	// parallel and, when the full set cannot be assembled before the
	// attempt times out, everything is handed back and the acquire
	// retries after a jittered backoff. Two-phase trades the ordered
	// walk's serial latency for retry work under contention;
	// internal/bench's TestShardedCrossTwins measures both.
	CrossShardTwoPhase bool
	// Tick, when positive, drives time-based protocol machinery: every
	// local node implementing alg.Ticker gets a Tick in its event loop
	// at this period. Required for token leases (core Options.LeaseTTL —
	// pick a period a few times smaller than the heartbeat interval).
	Tick time.Duration
	// Wire tunes the egress wire path of a tunable Transport
	// (transport.WireTuner — the TCP fabric): delta-encoded token
	// state, handshake and window knobs. Fabrics without the knobs (Mem) ignore it. Applied before
	// any node attaches, so it covers every connection the cluster
	// dials; the zero value leaves the transport exactly as handed in,
	// so pre-tuned endpoints keep their settings.
	Wire transport.WireOptions
}

// Cluster is a set of running protocol nodes — all of them in the
// single-process configuration, this process's share of them in a
// multi-process deployment.
type Cluster struct {
	cfg  Config
	tr   transport.Transport
	bs   transport.BatchSender // tr's batch face, nil when unsupported
	shd  transport.Sharder     // tr's shard face; nil in the flat configuration
	smap resource.ShardMap     // global↔(shard, local) resource mapping; 1 shard when flat
	// loops[s][id] is shard s's event loop for node id; nil for nodes
	// hosted elsewhere. The flat configuration is exactly one shard.
	loops [][]*loop
	start time.Time

	sessSeq uint64 // session id allocator
	seqMu   sync.Mutex

	closed  chan struct{}
	closeMu sync.Mutex
	tickWG  sync.WaitGroup // the Config.Tick driver goroutine
}

// New builds and starts a cluster running the given algorithm. The
// factory builds all Nodes state machines; only the local ones are
// attached and driven, so every process of a multi-process cluster
// calls New with the same factory and a disjoint Local set.
func New(cfg Config, factory alg.Factory) (*Cluster, error) {
	// The cluster owns cfg.Transport from this call on: every error
	// path must close it, or a rejected configuration leaks the
	// listener and its goroutines.
	fail := func(format string, args ...any) (*Cluster, error) {
		if cfg.Transport != nil {
			cfg.Transport.Close()
		}
		return nil, fmt.Errorf("live: "+format, args...)
	}
	if cfg.Nodes < 1 || cfg.Resources < 1 {
		return fail("need ≥1 node and ≥1 resource, got %d/%d", cfg.Nodes, cfg.Resources)
	}
	g := cfg.Shards
	if g <= 0 {
		g = 1
	}
	if g > cfg.Resources {
		return fail("%d shards over %d resources (every shard needs ≥1)", g, cfg.Resources)
	}
	if _, err := serve.ParsePolicy(string(cfg.Policy)); err != nil {
		return fail("%v", err)
	}
	local := cfg.Local
	if len(local) == 0 {
		local = make([]int, cfg.Nodes)
		for i := range local {
			local[i] = i
		}
	}
	seen := make(map[int]bool, len(local))
	for _, id := range local {
		if id < 0 || id >= cfg.Nodes {
			return fail("local node %d outside [0,%d)", id, cfg.Nodes)
		}
		if seen[id] {
			return fail("local node %d listed twice", id)
		}
		seen[id] = true
	}
	tr := cfg.Transport
	if tr == nil {
		if len(local) != cfg.Nodes {
			return fail("hosting %d of %d nodes needs a transport (the in-process fabric cannot reach the rest)", len(local), cfg.Nodes)
		}
		tr = transport.NewMem(cfg.Nodes, cfg.Latency)
	} else {
		if cfg.Latency > 0 {
			return fail("Latency applies only to the built-in transport")
		}
		if tr.N() != cfg.Nodes {
			return fail("transport spans %d nodes, cluster has %d", tr.N(), cfg.Nodes)
		}
	}
	for _, id := range local {
		if !tr.Hosts(network.NodeID(id)) {
			return fail("local node %d is not hosted by the transport endpoint", id)
		}
	}
	if sv, ok := tr.(transport.ShapeValidator); ok {
		sv.SetShape(cfg.Nodes, cfg.Resources)
	}
	if cfg.Wire != (transport.WireOptions{}) {
		if wt, ok := tr.(transport.WireTuner); ok {
			wt.Tune(cfg.Wire)
		}
	}
	smap := resource.NewShardMap(cfg.Resources, g)
	var shd transport.Sharder
	if g > 1 {
		var ok bool
		if shd, ok = tr.(transport.Sharder); !ok {
			tr.Close()
			return nil, fmt.Errorf("live: transport %T cannot carry %d resource shards", tr, g)
		}
		sizes := make([]int, g)
		for s := range sizes {
			sizes[s] = smap.Size(s)
		}
		shd.SetShards(sizes)
	}
	// One allocator fleet per shard, each over its shard's local
	// universe. The flat cluster is the one-shard instance of the same
	// construction: Size(0) == Resources, so the factory call is exactly
	// the pre-shard one.
	nodesByShard := make([][]alg.Node, g)
	for s := 0; s < g; s++ {
		nodesByShard[s] = factory(cfg.Nodes, smap.Size(s))
		if len(nodesByShard[s]) != cfg.Nodes {
			tr.Close()
			return nil, fmt.Errorf("live: factory built %d nodes, want %d", len(nodesByShard[s]), cfg.Nodes)
		}
	}
	c := &Cluster{
		cfg:    cfg,
		tr:     tr,
		shd:    shd,
		smap:   smap,
		start:  time.Now(),
		closed: make(chan struct{}),
	}
	c.bs, _ = tr.(transport.BatchSender)
	c.loops = make([][]*loop, g)
	for s := 0; s < g; s++ {
		c.loops[s] = make([]*loop, cfg.Nodes)
		for _, id := range local {
			c.loops[s][id] = newLoop(c, network.NodeID(id), nodesByShard[s][id], s)
		}
	}
	// Bind before attaching: an Attach may not send, but a peer process
	// already running can — the transport buffers until Bind either way.
	// Shard 0 binds through the legacy face so the flat configuration
	// never touches the shard path.
	for s := 0; s < g; s++ {
		for _, id := range local {
			l := c.loops[s][id]
			h := func(from network.NodeID, m network.Message) {
				l.postEnv(envelope{from: from, msg: m})
			}
			if s == 0 {
				tr.Bind(l.id, h)
			} else {
				shd.BindShard(s, l.id, h)
			}
		}
	}
	for s := 0; s < g; s++ {
		for _, id := range local {
			nodesByShard[s][id].Attach(&liveEnv{c: c, l: c.loops[s][id]})
		}
	}
	for s := 0; s < g; s++ {
		for _, id := range local {
			go c.loops[s][id].run()
		}
	}
	if cfg.Tick > 0 {
		c.tickWG.Add(1)
		go c.runTicker(local)
	}
	return c, nil
}

// runTicker posts a cmdTick to every local loop each Config.Tick, so
// timed protocol machinery advances inside the loops' serialized
// context. It exits when the cluster closes.
func (c *Cluster) runTicker(local []int) {
	defer c.tickWG.Done()
	tick := time.NewTicker(c.cfg.Tick)
	defer tick.Stop()
	for {
		select {
		case <-c.closed:
			return
		case <-tick.C:
			for _, shard := range c.loops {
				for _, id := range local {
					shard[id].post(cmdTick{})
				}
			}
		}
	}
}

// Drain asks every local node implementing alg.Drainer to hand off the
// resource tokens it owns, and waits until the handoffs have left the
// loops — the orderly half of a shutdown, called before Close so a
// restarting peer does not have to wait out a lease expiry. It reports
// false when the cluster closed before every drain completed.
func (c *Cluster) Drain() bool {
	ok := true
	var dones []chan struct{}
	for _, shard := range c.loops {
		for _, l := range shard {
			if l == nil {
				continue
			}
			done := make(chan struct{})
			if !l.post(cmdDrain{done: done}) {
				ok = false
				continue
			}
			dones = append(dones, done)
		}
	}
	for _, done := range dones {
		select {
		case <-done:
		case <-c.closed:
			ok = false
		}
	}
	return ok
}

// N reports the number of nodes in the whole cluster.
func (c *Cluster) N() int { return c.cfg.Nodes }

// M reports the number of resources.
func (c *Cluster) M() int { return c.cfg.Resources }

// Shards reports the number of resource shards (1 for a flat cluster).
func (c *Cluster) Shards() int { return c.smap.Shards() }

// ShardLayout returns the cluster's global↔(shard, local) resource
// mapping — the one-shard identity mapping for a flat cluster.
func (c *Cluster) ShardLayout() resource.ShardMap { return c.smap }

// Local reports whether node id is hosted by this cluster instance.
func (c *Cluster) Local(id int) bool {
	return id >= 0 && id < c.cfg.Nodes && c.loops[0][id] != nil
}

// now is the cluster clock: wall time since start, in the same unit
// the simulation uses, so the serve scheduler runs identically in both
// runtimes.
func (c *Cluster) now() sim.Time { return sim.Time(time.Since(c.start)) }

// Stats snapshots the per-kind counters of messages sent through this
// process's transport endpoint. In a multi-process cluster each
// process counts its own sends; summing over processes gives the
// cluster total.
func (c *Cluster) Stats() map[string]int64 {
	return c.tr.Stats()
}

// Inspect runs fn against node id's shard-0 protocol state inside that
// node's event loop, so fn sees a quiesced snapshot without data races
// (the whole protocol state of a flat cluster). It reports false when
// the cluster is closed or the node is not local. fn must not block on
// other cluster operations.
func (c *Cluster) Inspect(id int, fn func(alg.Node)) bool {
	return c.InspectShard(0, id, fn)
}

// InspectShard is Inspect against one shard's allocator instance at
// node id.
func (c *Cluster) InspectShard(shard, id int, fn func(alg.Node)) bool {
	if shard < 0 || shard >= len(c.loops) || !c.Local(id) {
		return false
	}
	l := c.loops[shard][id]
	done := make(chan struct{})
	if !l.post(cmdInspect{fn: fn, done: done}) {
		return false
	}
	select {
	case <-done:
		return true
	case <-c.closed:
		return false
	}
}

// QueueLen reports how many admission requests are queued (not yet fed
// into the protocol) at node id, summed over its shards, for tests and
// load introspection. It reports 0 for non-local nodes or a closed
// cluster.
func (c *Cluster) QueueLen(id int) int {
	if !c.Local(id) {
		return 0
	}
	total := 0
	for _, shard := range c.loops {
		l := shard[id]
		n := 0
		done := make(chan struct{})
		if !l.post(cmdInspect{fn: func(alg.Node) { n = l.sched.Len() }, done: done}) {
			return total
		}
		select {
		case <-done:
			total += n
		case <-c.closed:
			return total
		}
	}
	return total
}

// Overloaded asks node id's Adaptive admission bound whether an
// arrival of the given size should be shed rather than queued. It
// reads the scheduler's atomically published load snapshot — no trip
// through the node loop — so it is cheap enough for a server's
// admission fast path. Always false for fixed policies and non-local
// nodes; the caller records an actual denial with NoteShed.
func (c *Cluster) Overloaded(id, size int) bool {
	if !c.Local(id) {
		return false
	}
	// Any shard saturating is an overload: a cross-shard acquire cannot
	// complete faster than its slowest shard.
	for _, shard := range c.loops {
		if shard[id].sched.Overloaded(size) {
			return true
		}
	}
	return false
}

// NoteShed records an overload denial against node id's load
// statistics (feeding the Adaptive policy's denial-rate EWMA). Safe
// from any goroutine; a no-op for fixed policies and non-local nodes.
func (c *Cluster) NoteShed(id int) {
	if c.Local(id) {
		for _, shard := range c.loops {
			shard[id].sched.NoteShed()
		}
	}
}

// NodeLoad returns node id's shard-0 admission-load snapshot (the
// whole load of a flat cluster; the zero Load for fixed policies and
// non-local nodes). Safe from any goroutine.
func (c *Cluster) NodeLoad(id int) serve.Load {
	if !c.Local(id) {
		return serve.Load{}
	}
	return c.loops[0][id].sched.Load()
}

// Close stops every local node loop and closes the transport. Every
// outstanding or queued Acquire fails promptly with ErrClosed, and all
// loop goroutines exit. Close is idempotent.
func (c *Cluster) Close() {
	c.closeMu.Lock()
	defer c.closeMu.Unlock()
	select {
	case <-c.closed:
		return
	default:
	}
	close(c.closed)
	c.tickWG.Wait()
	for _, shard := range c.loops {
		for _, l := range shard {
			if l != nil {
				l.stop()
			}
		}
	}
	c.tr.Close()
}

// loop is one site's event loop: a single goroutine applying protocol
// activations sequentially. Above the protocol it owns the node's
// admission scheduler: at most one ticket is fed into the state
// machine at a time (hypothesis 4); the rest queue under the policy.
//
// The loop also owns the node's egress batching: while a mailbox batch
// is being processed, protocol sends accumulate in a per-destination
// outbox instead of hitting the transport one call at a time, and the
// whole run to each destination is handed over with one SendBatch —
// which the TCP fabric turns into one coalesced write. The outbox is
// flushed at every point where the outside world can observe progress
// (a waiter's done channel, a grant, the end of the batch), so no
// message lingers while the loop parks.
type loop struct {
	c     *Cluster
	id    network.NodeID
	shard int
	node  alg.Node

	mb mailbox // envelopes and commands (unbounded, batch-drained)

	sched    *serve.Scheduler
	inflight *ticket // admitted into the state machine; nil when idle

	// Egress outbox (loop goroutine only). perDest[to] accumulates the
	// batch's messages for node to; touched lists the destinations in
	// first-use order. inBatch gates the buffering: sends outside batch
	// processing (an Attach that announces itself, say) go straight to
	// the transport.
	inBatch bool
	perDest [][]network.Message
	touched []network.NodeID
}

// mbItem is one mailbox entry. Envelopes — the hot path: every protocol
// message is one — ride unboxed (cmd nil); control commands box into
// cmd. This keeps a delivered message from costing an interface
// allocation per hop.
type mbItem struct {
	env envelope
	cmd any
}

// mailbox is the loop's unbounded multi-producer queue. The consumer
// drains it in batches: one wakeup takes every queued item, so a burst
// of messages costs one mutex handoff and one goroutine wakeup instead
// of one channel rendezvous each. Unbounded queues keep send-cycles
// (token exchanges) from deadlocking on full mailboxes.
type mailbox struct {
	mu       sync.Mutex
	nonEmpty sync.Cond // 1-to-1 with the consumer; signaled on empty→non-empty
	queue    []mbItem
	closed   bool
}

// put enqueues an item, reporting false once the mailbox is closed.
func (mb *mailbox) put(v mbItem) bool {
	mb.mu.Lock()
	if mb.closed {
		mb.mu.Unlock()
		return false
	}
	mb.queue = append(mb.queue, v)
	if len(mb.queue) == 1 {
		// Only an empty→non-empty edge can find the consumer parked.
		mb.nonEmpty.Signal()
	}
	mb.mu.Unlock()
	return true
}

// takeAll blocks until items are queued or the mailbox closes, then
// takes the whole queue in one swap, leaving spare (reset) behind as
// the next accumulation buffer. ok is false once closed and drained.
func (mb *mailbox) takeAll(spare []mbItem) (batch []mbItem, ok bool) {
	mb.mu.Lock()
	for len(mb.queue) == 0 && !mb.closed {
		mb.nonEmpty.Wait()
	}
	batch = mb.queue
	mb.queue = spare[:0]
	mb.mu.Unlock()
	return batch, len(batch) > 0
}

// close marks the mailbox closed and wakes the consumer. Idempotent;
// items queued before close are still delivered by the next takeAll.
func (mb *mailbox) close() {
	mb.mu.Lock()
	mb.closed = true
	mb.mu.Unlock()
	mb.nonEmpty.Broadcast()
}

type envelope struct {
	from network.NodeID
	msg  network.Message
}

// cmdSubmit enqueues a ticket into the node's admission scheduler.
type cmdSubmit struct {
	t *ticket
}

// cmdCancel withdraws a ticket on behalf of a caller whose context
// ended: removed from the queue if still queued, marked abandoned if
// in flight (the grant, when it arrives, is given straight back), or
// released immediately if the grant already landed. The loop always
// closes done; the caller returns ctx.Err() either way.
type cmdCancel struct {
	t    *ticket
	done chan struct{}
}

// cmdRelease ends the critical section of a granted ticket.
type cmdRelease struct {
	t    *ticket
	done chan struct{}
}

// cmdReap is the loop's note to itself: an abandoned ticket was
// granted, so release it and admit the next — as a fresh activation,
// never recursively from inside the Granted callback (the state
// machines assume Release is a separate activation).
type cmdReap struct {
	t *ticket
}

type cmdInspect struct {
	fn   func(alg.Node)
	done chan struct{}
}

// cmdTick is a clock edge from the Config.Tick driver; the loop passes
// it to the node's alg.Ticker face, if any.
type cmdTick struct{}

// cmdDrain asks the node to hand off its resource tokens (alg.Drainer)
// ahead of an orderly shutdown. The loop always closes done.
type cmdDrain struct {
	done chan struct{}
}

func newLoop(c *Cluster, id network.NodeID, node alg.Node, shard int) *loop {
	l := &loop{
		c:     c,
		id:    id,
		shard: shard,
		node:  node,
		sched: serve.NewScheduler(c.cfg.Policy, sim.Time(c.cfg.Aging)),
	}
	if c.cfg.AdmitTarget > 0 {
		l.sched.SetTarget(sim.Time(c.cfg.AdmitTarget))
	}
	l.mb.nonEmpty.L = &l.mb.mu
	return l
}

// postEnv enqueues a delivered message, reporting false once the loop
// is stopping.
func (l *loop) postEnv(e envelope) bool {
	return l.mb.put(mbItem{env: e})
}

// post enqueues a control command, reporting false once the loop is
// stopping.
func (l *loop) post(v any) bool {
	return l.mb.put(mbItem{cmd: v})
}

func (l *loop) stop() {
	l.mb.close()
}

// run is the site's event loop goroutine. It drains the mailbox a
// batch at a time: every message that queued up while the previous
// batch was being processed is handled under a single wakeup, and the
// sends it provokes leave as per-destination batches. When the mailbox
// closes it fails every queued and in-flight ticket with ErrClosed, so
// no Acquire outlives the cluster.
func (l *loop) run() {
	var spare []mbItem
	for {
		batch, ok := l.mb.takeAll(spare)
		if !ok {
			break
		}
		l.inBatch = true
		for i := range batch {
			v := batch[i]
			batch[i] = mbItem{} // drop references as soon as handled
			if v.cmd == nil {
				l.node.Deliver(v.env.from, v.env.msg)
				continue
			}
			switch x := v.cmd.(type) {
			case cmdSubmit:
				l.sched.Push(&x.t.item, l.c.now())
				l.maybeAdmit()
			case cmdCancel:
				l.cancel(x.t)
				l.flushOutbox() // the waiter may observe state; sends first
				close(x.done)
			case cmdRelease:
				l.release(x.t)
				l.flushOutbox()
				close(x.done)
			case cmdReap:
				l.release(x.t)
			case cmdInspect:
				l.flushOutbox() // quiesce egress before the snapshot
				x.fn(l.node)
				close(x.done)
			case cmdTick:
				if tk, ok := l.node.(alg.Ticker); ok {
					tk.Tick(l.c.now())
				}
			case cmdDrain:
				if dr, ok := l.node.(alg.Drainer); ok {
					dr.Drain()
				}
				l.flushOutbox() // the waiter acts on the handoffs being sent
				close(x.done)
			}
		}
		l.inBatch = false
		l.flushOutbox()
		spare = batch
	}
	// Shutdown: nothing more will be delivered. Fail the queue, then
	// the in-flight request.
	for _, it := range l.sched.Drain() {
		it.V.(*ticket).abort(ErrClosed)
	}
	if t := l.inflight; t != nil {
		l.inflight = nil
		t.abort(ErrClosed)
	}
}

// send queues m for to: buffered into the outbox while a batch is
// being processed, straight to the transport otherwise.
func (l *loop) send(to network.NodeID, m network.Message) {
	if !l.inBatch {
		l.sendNow(to, m)
		return
	}
	if l.perDest == nil {
		l.perDest = make([][]network.Message, l.c.cfg.Nodes)
	}
	if len(l.perDest[to]) == 0 {
		l.touched = append(l.touched, to)
	}
	l.perDest[to] = append(l.perDest[to], m)
}

// flushOutbox hands each destination's accumulated run to the
// transport in one call. Messages to one destination keep their send
// order (the FIFO the protocols rely on); order across destinations is
// not a transport promise to begin with.
func (l *loop) flushOutbox() {
	if len(l.touched) == 0 {
		return
	}
	for _, to := range l.touched {
		msgs := l.perDest[to]
		switch {
		case len(msgs) == 1:
			l.sendNow(to, msgs[0])
		case l.c.shd != nil:
			l.c.shd.SendShardBatch(l.shard, l.id, to, msgs)
		case l.c.bs != nil:
			l.c.bs.SendBatch(l.id, to, msgs)
		default:
			for _, m := range msgs {
				l.c.tr.Send(l.id, to, m)
			}
		}
		// Reset the run but keep its capacity; drop message references
		// so a recycled slot cannot pin dead payloads.
		for i := range msgs {
			msgs[i] = nil
		}
		l.perDest[to] = msgs[:0]
	}
	l.touched = l.touched[:0]
}

// sendNow hands one message to the fabric: through the shard face when
// the cluster is sharded (shard 0 included — SendShard(0, ...) is
// Send), the plain transport otherwise.
func (l *loop) sendNow(to network.NodeID, m network.Message) {
	if l.c.shd != nil {
		l.c.shd.SendShard(l.shard, l.id, to, m)
		return
	}
	l.c.tr.Send(l.id, to, m)
}

// maybeAdmit feeds the scheduler's next pick into the protocol when
// the node's single request slot is free.
func (l *loop) maybeAdmit() {
	if l.inflight != nil {
		return
	}
	it := l.sched.Pop(l.c.now())
	if it == nil {
		return
	}
	t := it.V.(*ticket)
	l.inflight = t
	t.admitted = l.c.now()
	l.node.Request(t.rs)
}

// release ends t's critical section and admits the next request. A
// stale release (the ticket is no longer in flight — the cluster
// auto-released it on cancel) is a no-op.
func (l *loop) release(t *ticket) {
	if l.inflight != t || !t.inCS {
		return
	}
	l.sched.ObserveService(l.c.now() - t.admitted)
	l.node.Release()
	l.inflight = nil
	l.maybeAdmit()
}

// cancel withdraws t after its caller's context ended.
func (l *loop) cancel(t *ticket) {
	switch {
	case l.sched.Remove(&t.item):
		// Still queued: never admitted, nothing to unwind.
		t.abort(context.Canceled)
	case l.inflight == t && !t.inCS:
		// In flight: the protocol cannot abandon a request — mark it
		// so the grant is given straight back on arrival.
		t.abandoned = true
	case l.inflight == t && t.inCS:
		// Granted, caller didn't take it: give the resources back now.
		l.sched.ObserveService(l.c.now() - t.admitted)
		l.node.Release()
		l.inflight = nil
		l.maybeAdmit()
	}
}

// onGranted runs inside the loop goroutine (via Env.Granted).
func (l *loop) onGranted() {
	t := l.inflight
	if t == nil {
		panic(fmt.Sprintf("live: node %d granted without a pending request", l.id))
	}
	t.inCS = true
	if t.abandoned {
		// The caller is gone; release as a fresh activation (the state
		// machines assume Granted has returned before Release runs).
		l.post(cmdReap{t: t})
		return
	}
	// The waiter wakes the moment this closes; everything the grant's
	// activation already sent must be on its way first.
	l.flushOutbox()
	close(t.granted)
}

// liveEnv adapts a loop to the alg.Env contract.
type liveEnv struct {
	c *Cluster
	l *loop
}

func (e *liveEnv) ID() network.NodeID { return e.l.id }
func (e *liveEnv) N() int             { return e.c.cfg.Nodes }

// M is the node's resource universe: its shard's local universe, which
// is the whole global universe on a flat cluster.
func (e *liveEnv) M() int { return e.c.smap.Size(e.l.shard) }

func (e *liveEnv) Now() sim.Time { return e.c.now() }

// Granted runs inside the loop goroutine: the node just entered its CS.
func (e *liveEnv) Granted() { e.l.onGranted() }

func (e *liveEnv) Send(to network.NodeID, m network.Message) {
	e.l.send(to, m)
}
