package main

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mralloc/internal/alg"
	"mralloc/internal/network"
	"mralloc/internal/resource"
	"mralloc/internal/serve"
	"mralloc/internal/sim"
	"mralloc/internal/transport"
)

// tracer records spans and counts at the entry points of each layer,
// from wrappers this package installs through the program's public
// seams: the client call (serve), ServerConfig.Open (live's
// BackendSession), an alg.Factory (core) and the Transport handed to
// live.Config (transport). Spans are folded into histograms as they
// close; nothing is recorded while on is false.
//
// One request's spans are tied together by its reqTrace. The client
// and the backend session only share the node and the resource set,
// so that pair is the key; two identical concurrent requests on one
// node may swap their child spans, which shifts neither's layer split
// by more than the gap between them.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	smap  resource.ShardMap

	mu      sync.Mutex
	pending map[string][]*reqTrace // client calls the backend has not seen yet
	active  [][]*reqTrace          // per node: backend acquires in progress

	// slots[shard][node] is touched only by that node's event loop.
	slots [][]nodeSlot

	serveSelf, liveAcquire, liveAdmit, cross hist
	coreSync, hold                           hist
	sends, delivers, deliverNS               atomic.Int64
	sendCalls, sendMsgs, sendNS              atomic.Int64
}

// reqTrace is one request's path through the layers. Times are
// nanoseconds since the tracer's epoch; 0 means not reached.
type reqTrace struct {
	key                      string
	parts                    []resource.ShardPart
	backendStart, backendEnd atomic.Int64
	req, grant               []atomic.Int64 // per part
}

// nodeSlot is one (shard, node) allocator's open protocol request.
type nodeSlot struct {
	reqAt, grantAt int64
	rt             *reqTrace
}

func newTracer(w workload) *tracer {
	tr := &tracer{
		epoch:   time.Now(),
		smap:    resource.NewShardMap(w.resources, w.shards),
		pending: make(map[string][]*reqTrace),
		active:  make([][]*reqTrace, w.nodes),
		slots:   make([][]nodeSlot, w.shards),
	}
	for s := range tr.slots {
		tr.slots[s] = make([]nodeSlot, w.nodes)
	}
	return tr
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

func traceKey(node int, res []int) string {
	sorted := slices.Sorted(slices.Values(res))
	b := strconv.AppendInt(nil, int64(node), 10)
	for _, r := range sorted {
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(r), 10)
	}
	return string(b)
}

// beginClient opens the client span of a request about to be sent.
func (tr *tracer) beginClient(node int, res []int) *reqTrace {
	if !tr.on.Load() {
		return nil
	}
	rt := &reqTrace{key: traceKey(node, res)}
	tr.mu.Lock()
	tr.pending[rt.key] = append(tr.pending[rt.key], rt)
	tr.mu.Unlock()
	return rt
}

// endClient closes the client span [t0, t1] and derives the spans that
// need the whole request: serve's self time, live's admission wait and
// the cross-shard composition time.
func (tr *tracer) endClient(rt *reqTrace, t0, t1 time.Time, granted bool) {
	if rt == nil {
		return
	}
	tr.mu.Lock()
	if q := tr.pending[rt.key]; len(q) > 0 {
		if i := slices.Index(q, rt); i >= 0 {
			tr.pending[rt.key] = slices.Delete(q, i, i+1)
		}
		if len(tr.pending[rt.key]) == 0 {
			delete(tr.pending, rt.key)
		}
	}
	tr.mu.Unlock()
	bs, be := rt.backendStart.Load(), rt.backendEnd.Load()
	if !granted || !tr.on.Load() || bs == 0 || be == 0 {
		return
	}
	backend := be - bs
	tr.serveSelf.add(t1.Sub(t0) - time.Duration(backend))
	var first int64
	spans := make([][2]int64, 0, len(rt.parts))
	for i := range rt.parts {
		rq, gr := rt.req[i].Load(), rt.grant[i].Load()
		if rq != 0 && (first == 0 || rq < first) {
			first = rq
		}
		if rq != 0 && gr != 0 {
			spans = append(spans, [2]int64{rq, gr})
		}
	}
	if first != 0 {
		tr.liveAdmit.add(time.Duration(first - bs))
	}
	if len(rt.parts) > 1 {
		tr.cross.add(time.Duration(backend - union(spans)))
	}
}

// union is the length of the union of the intervals.
func union(spans [][2]int64) int64 {
	slices.SortFunc(spans, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var total, end int64
	for _, s := range spans {
		lo := max(s[0], end)
		if s[1] > lo {
			total += s[1] - lo
		}
		end = max(end, s[1])
	}
	return total
}

// open wraps ServerConfig.Open so every backend session is traced.
func (tr *tracer) open(inner func(int) (serve.BackendSession, error)) func(int) (serve.BackendSession, error) {
	return func(node int) (serve.BackendSession, error) {
		s, err := inner(node)
		if err != nil {
			return nil, err
		}
		return &tracedSession{inner: s, node: node, tr: tr}, nil
	}
}

// tracedSession times serve.BackendSession.Acquire: live's span.
type tracedSession struct {
	inner serve.BackendSession
	node  int
	tr    *tracer
}

func (s *tracedSession) Acquire(ctx context.Context, opts serve.AcquireOpts) (func(), error) {
	tr := s.tr
	key := traceKey(s.node, opts.Resources)
	tr.mu.Lock()
	var rt *reqTrace
	if q := tr.pending[key]; len(q) > 0 {
		rt = q[0]
		if tr.pending[key] = q[1:]; len(q) == 1 {
			delete(tr.pending, key)
		}
	} else {
		rt = &reqTrace{key: key} // not sent by a traced client call
	}
	rs := resource.NewSet(tr.smap.M())
	for _, r := range opts.Resources {
		rs.Add(resource.ID(r))
	}
	rt.parts = tr.smap.Split(rs)
	rt.req = make([]atomic.Int64, len(rt.parts))
	rt.grant = make([]atomic.Int64, len(rt.parts))
	start := tr.now()
	rt.backendStart.Store(start)
	tr.active[s.node] = append(tr.active[s.node], rt)
	tr.mu.Unlock()

	release, err := s.inner.Acquire(ctx, opts)

	end := tr.now()
	rt.backendEnd.Store(end)
	tr.mu.Lock()
	if i := slices.Index(tr.active[s.node], rt); i >= 0 {
		tr.active[s.node] = slices.Delete(tr.active[s.node], i, i+1)
	}
	tr.mu.Unlock()
	if err == nil && tr.on.Load() {
		tr.liveAcquire.add(time.Duration(end - start))
	}
	return release, err
}

func (s *tracedSession) Close() { s.inner.Close() }

// onRequest ties a protocol request at (shard, node) to the backend
// acquire it serves: the oldest one in progress on that node whose
// part in that shard is rs and has not been requested yet.
func (tr *tracer) onRequest(shard, node int, rs resource.Set) {
	now := tr.now()
	slot := &tr.slots[shard][node]
	slot.reqAt, slot.rt = now, nil
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, rt := range tr.active[node] {
		for i, p := range rt.parts {
			if p.Shard == shard && rt.req[i].Load() == 0 && p.Local.Equal(rs) {
				rt.req[i].Store(now)
				slot.rt = rt
				return
			}
		}
	}
}

// onGranted closes the (shard, node) synchronization span: the
// paper's waiting time, from Request to Env.Granted.
func (tr *tracer) onGranted(shard, node int) {
	now := tr.now()
	slot := &tr.slots[shard][node]
	slot.grantAt = now
	if tr.on.Load() {
		tr.coreSync.add(time.Duration(now - slot.reqAt))
	}
	if rt := slot.rt; rt != nil {
		for i, p := range rt.parts {
			if p.Shard == shard {
				rt.grant[i].Store(now)
			}
		}
	}
}

func (tr *tracer) onRelease(shard, node int) {
	if tr.on.Load() {
		tr.hold.add(time.Duration(tr.now() - tr.slots[shard][node].grantAt))
	}
}

// factory wraps every node an allocator factory builds. live.New calls
// a daemon's factory once per shard, in shard order, so the call count
// is the shard.
func (tr *tracer) factory(inner alg.Factory) alg.Factory {
	shard := 0
	return func(n, m int) []alg.Node {
		nodes := inner(n, m)
		for i, nd := range nodes {
			nodes[i] = traceNode(nd, tr, shard)
		}
		shard++
		return nodes
	}
}

// tracedNode wraps an alg.Node. live type-asserts the optional faces
// alg.Ticker and alg.Drainer on the node it is given, so traceNode
// returns a type with exactly the inner node's faces: a face lost would
// stop leases ticking or nodes draining, and one gained would be called
// on a node that has none.
type tracedNode struct {
	inner alg.Node
	tr    *tracer
	shard int
	id    int
}

func (n *tracedNode) unwrap() alg.Node { return n.inner }

func (n *tracedNode) Attach(env alg.Env) {
	n.id = int(env.ID())
	n.inner.Attach(&tracedEnv{Env: env, n: n})
}

func (n *tracedNode) Request(rs resource.Set) {
	n.tr.onRequest(n.shard, n.id, rs)
	n.inner.Request(rs)
}

func (n *tracedNode) Release() {
	n.tr.onRelease(n.shard, n.id)
	n.inner.Release()
}

func (n *tracedNode) Deliver(from network.NodeID, m network.Message) {
	if !n.tr.on.Load() {
		n.inner.Deliver(from, m)
		return
	}
	start := time.Now()
	n.inner.Deliver(from, m)
	n.tr.deliverNS.Add(int64(time.Since(start)))
	n.tr.delivers.Add(1)
}

type tickFace struct{ t alg.Ticker }

func (f tickFace) Tick(now sim.Time) { f.t.Tick(now) }

type drainFace struct{ d alg.Drainer }

func (f drainFace) Drain() { f.d.Drain() }

type (
	tickNode struct {
		*tracedNode
		tickFace
	}
	drainNode struct {
		*tracedNode
		drainFace
	}
	tickDrainNode struct {
		*tracedNode
		tickFace
		drainFace
	}
)

func traceNode(inner alg.Node, tr *tracer, shard int) alg.Node {
	n := &tracedNode{inner: inner, tr: tr, shard: shard}
	t, ticks := inner.(alg.Ticker)
	d, drains := inner.(alg.Drainer)
	switch {
	case ticks && drains:
		return tickDrainNode{n, tickFace{t}, drainFace{d}}
	case ticks:
		return tickNode{n, tickFace{t}}
	case drains:
		return drainNode{n, drainFace{d}}
	}
	return n
}

// tracedEnv counts the node's sends and hooks its grants.
type tracedEnv struct {
	alg.Env
	n *tracedNode
}

func (e *tracedEnv) Send(to network.NodeID, m network.Message) {
	if e.n.tr.on.Load() {
		e.n.tr.sends.Add(1)
	}
	e.Env.Send(to, m)
}

func (e *tracedEnv) Granted() {
	e.n.tr.onGranted(e.n.shard, e.n.id)
	e.Env.Granted()
}

// Transport faces live looks for with type assertions.
const (
	faceShape = 1 << iota // transport.ShapeValidator
	faceTune              // transport.WireTuner
	faceShard             // transport.Sharder
	faceBatch             // transport.BatchSender
	faceLoss              // transport.LossRecoverer
	faceKill              // transport.ConnKiller
)

func transportFaces(t transport.Transport) int {
	f := 0
	if _, ok := t.(transport.ShapeValidator); ok {
		f |= faceShape
	}
	if _, ok := t.(transport.WireTuner); ok {
		f |= faceTune
	}
	if _, ok := t.(transport.Sharder); ok {
		f |= faceShard
	}
	if _, ok := t.(transport.BatchSender); ok {
		f |= faceBatch
	}
	if _, ok := t.(transport.LossRecoverer); ok {
		f |= faceLoss
	}
	if _, ok := t.(transport.ConnKiller); ok {
		f |= faceKill
	}
	return f
}

// transport wraps the stack handed to live.Config, timing and counting
// every send call. live picks its send path (batches, shard streams)
// and its set-up (shape, wire tuning) from the faces the transport has,
// so the wrapper must have exactly the inner stack's faces. It has one
// type per stack the benchmark runs, *transport.TCP and
// *transport.Reliable, and refuses any other set of faces.
func (tr *tracer) transport(inner transport.Transport) (transport.Transport, error) {
	b := &tracedTransport{inner: inner, tr: tr}
	switch f := transportFaces(inner); f {
	case faceShape | faceTune | faceShard | faceBatch | faceLoss | faceKill:
		return &tracedTCP{b, shapeFace{inner.(transport.ShapeValidator)},
			tuneFace{inner.(transport.WireTuner)}, shardFace{b, inner.(transport.Sharder)},
			batchFace{b, inner.(transport.BatchSender)}, lossFace{inner.(transport.LossRecoverer)},
			killFace{inner.(transport.ConnKiller)}}, nil
	case faceShape | faceTune | faceBatch | faceKill:
		return &tracedReliable{b, shapeFace{inner.(transport.ShapeValidator)},
			tuneFace{inner.(transport.WireTuner)}, batchFace{b, inner.(transport.BatchSender)},
			killFace{inner.(transport.ConnKiller)}}, nil
	default:
		return nil, fmt.Errorf("perfbench: no traced wrapper for %T (faces %06b)", inner, f)
	}
}

type tracedTransport struct {
	inner transport.Transport
	tr    *tracer
}

func (t *tracedTransport) N() int                                      { return t.inner.N() }
func (t *tracedTransport) Hosts(id network.NodeID) bool                { return t.inner.Hosts(id) }
func (t *tracedTransport) Bind(id network.NodeID, h transport.Handler) { t.inner.Bind(id, h) }
func (t *tracedTransport) Stats() map[string]int64                     { return t.inner.Stats() }
func (t *tracedTransport) Close() error                                { return t.inner.Close() }

func (t *tracedTransport) Send(from, to network.NodeID, m network.Message) {
	start := t.begin()
	t.inner.Send(from, to, m)
	t.end(start, 1)
}

func (t *tracedTransport) begin() time.Time {
	if !t.tr.on.Load() {
		return time.Time{}
	}
	return time.Now()
}

func (t *tracedTransport) end(start time.Time, msgs int) {
	if start.IsZero() {
		return
	}
	t.tr.sendNS.Add(int64(time.Since(start)))
	t.tr.sendCalls.Add(1)
	t.tr.sendMsgs.Add(int64(msgs))
}

type shapeFace struct{ sv transport.ShapeValidator }

func (f shapeFace) SetShape(nodes, resources int) { f.sv.SetShape(nodes, resources) }

type tuneFace struct{ wt transport.WireTuner }

func (f tuneFace) Tune(o transport.WireOptions) { f.wt.Tune(o) }

type lossFace struct{ lr transport.LossRecoverer }

func (f lossFace) SetLossRecovery(on bool) { f.lr.SetLossRecovery(on) }

type killFace struct{ ck transport.ConnKiller }

func (f killFace) AbortConns() int { return f.ck.AbortConns() }

type batchFace struct {
	t  *tracedTransport
	bs transport.BatchSender
}

func (f batchFace) SendBatch(from, to network.NodeID, msgs []network.Message) {
	start := f.t.begin()
	f.bs.SendBatch(from, to, msgs)
	f.t.end(start, len(msgs))
}

type shardFace struct {
	t  *tracedTransport
	sh transport.Sharder
}

func (f shardFace) SetShards(sizes []int) { f.sh.SetShards(sizes) }

func (f shardFace) BindShard(shard int, id network.NodeID, h transport.Handler) {
	f.sh.BindShard(shard, id, h)
}

func (f shardFace) SendShard(shard int, from, to network.NodeID, m network.Message) {
	start := f.t.begin()
	f.sh.SendShard(shard, from, to, m)
	f.t.end(start, 1)
}

func (f shardFace) SendShardBatch(shard int, from, to network.NodeID, msgs []network.Message) {
	start := f.t.begin()
	f.sh.SendShardBatch(shard, from, to, msgs)
	f.t.end(start, len(msgs))
}

// tracedTCP has the faces of *transport.TCP.
type tracedTCP struct {
	*tracedTransport
	shapeFace
	tuneFace
	shardFace
	batchFace
	lossFace
	killFace
}

// tracedReliable has the faces of *transport.Reliable.
type tracedReliable struct {
	*tracedTransport
	shapeFace
	tuneFace
	batchFace
	killFace
}
