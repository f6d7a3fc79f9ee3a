// Package transport abstracts the communication substrate of a live
// cluster (internal/live) behind a small interface, so the same
// alg.Node state machines run over in-process channels or real
// sockets without change.
//
// A Transport connects the N nodes of one cluster. Implementations
// must provide the guarantees the algorithms assume (the paper's
// hypotheses 1–3), which are exactly what the conformance suite in
// transporttest asserts:
//
//   - reliability: while the transport is open, every Send is
//     eventually delivered to the destination's handler;
//   - FIFO per ordered pair: messages from node a to node b are
//     delivered in send order (no ordering is promised across pairs);
//   - no duplication: each Send is delivered exactly once;
//   - per-kind accounting: Stats counts every sent message under its
//     Kind, the synchronization cost the evaluation measures;
//   - clean close: Close is idempotent, terminates the transport's
//     goroutines, and later Sends are dropped rather than panicking.
//
// Handlers may be invoked concurrently for different senders and must
// not block for long — the live runtime's handlers only append to an
// unbounded per-node mailbox, and custom transports should assume no
// more than that.
package transport

import (
	"sync"

	"mralloc/internal/network"
)

// Handler consumes a message delivered to a locally hosted node.
type Handler func(from network.NodeID, m network.Message)

// Transport is one process's endpoint of a cluster's message fabric.
// An in-process cluster hosts all N nodes on one endpoint; a
// multi-process cluster hosts a subset on each.
type Transport interface {
	// N reports the cluster size the transport connects.
	N() int
	// Hosts reports whether node id is hosted by this endpoint —
	// i.e. whether Bind(id, ...) is legal here.
	Hosts(id network.NodeID) bool
	// Bind installs the delivery handler for a locally hosted node.
	// Messages arriving for a node before its Bind are buffered and
	// delivered, in order, when the handler is installed.
	Bind(id network.NodeID, h Handler)
	// Send transmits m from a locally hosted node to any node. It may
	// block briefly (backpressure) but must not block indefinitely
	// while the transport is open; after Close it is a no-op.
	Send(from, to network.NodeID, m network.Message)
	// Stats snapshots the per-kind counters of messages sent through
	// this endpoint.
	Stats() map[string]int64
	// Close tears the endpoint down. Idempotent.
	Close() error
}

// WireOptions tunes the wire path of a socket transport. The zero
// value of every field selects the default behavior — setting one knob
// never silently flips another. The egress policy itself is fixed:
// flush on wakeup, batch whatever is queued, write envelopes vectored
// (see wire.Coalescer).
type WireOptions struct {
	// Delta enables delta-encoded token state (wire.CtrlTokenDelta):
	// connections dialed after the call announce the control and ship
	// token deltas instead of full snapshots. Both ends of every peer
	// link must run a delta-aware build; leave it off to interoperate
	// with pre-delta peers.
	Delta bool
	// Window is the receive window this endpoint announces in its hello
	// (bytes the peer may have in flight before waiting for credit).
	// Zero selects DefaultWindow; a negative value disables crediting
	// (the peer sends unbounded, as pre-hello builds did).
	Window int64
	// NoHello suppresses the connection hello on dialed connections,
	// for interoperating with pre-negotiation acceptors that would not
	// answer one. Feature negotiation and flow-control crediting are
	// unavailable on such connections; the egress byte budget still
	// bounds sender memory.
	NoHello bool
}

// WireTuner is implemented by transports whose egress wire path is
// tunable (the TCP transport); the live runtime forwards
// live.Config.Wire through it. Fabrics without a wire path (Mem)
// simply do not implement it.
type WireTuner interface {
	Tune(WireOptions)
}

// ShapeValidator is implemented by transports that validate inbound
// frames against the cluster shape (node and resource counts); the
// live runtime announces the shape through it so that frames from a
// differently-configured peer are rejected at the codec instead of
// crashing a protocol state machine.
type ShapeValidator interface {
	SetShape(nodes, resources int)
}

// BatchSender is implemented by transports that can accept a run of
// messages from one sender to one destination in a single call — the
// live runtime's event loop drains its outbox into per-destination
// batches and hands each over whole, so the fabric can deliver (Mem)
// or encode and flush (TCP) the run as a unit instead of paying the
// per-message overhead len(msgs) times.
//
// SendBatch is equivalent to calling Send for each message in order:
// same FIFO, reliability, and per-kind accounting guarantees. The
// transport must not retain msgs after the call returns (callers
// recycle the slice).
type BatchSender interface {
	SendBatch(from, to network.NodeID, msgs []network.Message)
}

// Sharder is implemented by transports that can route the traffic of
// G independent resource shards over one fabric. Each shard is its own
// token universe with its own allocator instances; shard-s traffic
// obeys the same reliability/FIFO/no-duplication guarantees as the
// flat transport, per (shard, sender, destination) — no ordering is
// promised across shards, which is exactly what lets them proceed in
// parallel.
//
// Shard 0 is the legacy namespace: BindShard(0, ...) and SendShard(0,
// ...) are Bind and Send — on a socket fabric, shard-0 frames are
// byte-for-byte the flat single-universe encoding, and shards s > 0
// ride a shard tag ahead of the frame header (wire.AppendShardTag).
//
// SetShards must be called before the first BindShard/SendShard, with
// the local resource-universe size of every shard; a socket fabric
// validates inbound shard-s frames against sizes[s] and announces
// len(sizes) in its hello.
type Sharder interface {
	SetShards(sizes []int)
	BindShard(shard int, id network.NodeID, h Handler)
	SendShard(shard int, from, to network.NodeID, m network.Message)
	SendShardBatch(shard int, from, to network.NodeID, msgs []network.Message)
}

// kindStats is the shared per-kind message counter.
type kindStats struct {
	mu sync.Mutex
	m  map[string]int64
}

func (s *kindStats) count(kind string) {
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[string]int64)
	}
	s.m[kind]++
	s.mu.Unlock()
}

func (s *kindStats) snapshot() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.m))
	for k, v := range s.m {
		out[k] = v
	}
	return out
}

// binder maps locally hosted nodes to their handlers and buffers
// deliveries that race ahead of Bind: a peer process may legitimately
// start sending before this process has attached its nodes, and a
// reliable transport must not drop those messages. Per-node locking
// keeps delivery FIFO per destination without serializing the whole
// endpoint.
type binder struct {
	slots []binderSlot
}

type binderSlot struct {
	mu      sync.Mutex
	h       Handler
	pending []pendingMsg
}

type pendingMsg struct {
	from network.NodeID
	m    network.Message
}

func newBinder(n int) *binder { return &binder{slots: make([]binderSlot, n)} }

func (b *binder) bind(id network.NodeID, h Handler) {
	s := &b.slots[id]
	s.mu.Lock()
	defer s.mu.Unlock()
	s.h = h
	for _, p := range s.pending {
		h(p.from, p.m)
	}
	s.pending = nil
}

// deliver hands a message to id's handler, or buffers it until Bind.
// The slot lock is held across the handler call so that a concurrent
// bind cannot reorder a buffered prefix after a direct delivery.
func (b *binder) deliver(id, from network.NodeID, m network.Message) {
	s := &b.slots[id]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.h == nil {
		s.pending = append(s.pending, pendingMsg{from, m})
		return
	}
	s.h(from, m)
}

// deliverBatch hands a run of messages from one sender to id's handler
// under a single slot-lock acquisition — the in-process half of batch
// delivery.
func (b *binder) deliverBatch(id, from network.NodeID, msgs []network.Message) {
	s := &b.slots[id]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.h == nil {
		for _, m := range msgs {
			s.pending = append(s.pending, pendingMsg{from, m})
		}
		return
	}
	for _, m := range msgs {
		s.h(from, m)
	}
}
