package transport

import (
	"fmt"
	"sync"
	"time"

	"mralloc/internal/network"
)

// Mem is the in-process transport: all N nodes live on this endpoint
// and a Send is a direct (per-destination-serialized) handler call, so
// messages never leave the process and never serialize. This is the
// channel fabric internal/live always ran on, extracted behind the
// Transport interface; its zero-latency path is the production
// in-process lock-manager configuration.
//
// Batches (SendBatch) are delivered as a unit: the whole run crosses
// into the destination under one binder-lock acquisition — and, in
// latency mode, under one delay — mirroring how the TCP fabric ships
// a run as one envelope.
//
// A positive latency delays every delivery by that amount while
// preserving FIFO per ordered pair: each (sender, destination) link
// gets one forwarding queue drained by one goroutine, so equal
// per-message delays cannot reorder a link.
type Mem struct {
	n       int
	latency time.Duration
	binder  *binder
	stats   kindStats

	closeMu sync.Mutex
	closed  chan struct{}

	// links maps (shard*n+sender)*n+destination to that link's delay
	// queue (latency mode only, created lazily).
	linkMu sync.Mutex
	links  map[int]chan linkItem
	wg     sync.WaitGroup

	// shardBinders holds one binder per shard beyond the first
	// (SetShards); shard 0 is the legacy binder. Written once before
	// any sharded traffic, read-only after.
	shardMu      sync.RWMutex
	shardBinders []*binder
}

// linkItem is one delay-queue entry: a single message (msgs nil) or a
// batch shipped as a unit.
type linkItem struct {
	from network.NodeID
	m    network.Message
	msgs []network.Message
}

// NewMem creates an in-process transport for n nodes. A positive
// latency delays every delivery (demos, protocol-visibility tests).
func NewMem(n int, latency time.Duration) *Mem {
	if n < 1 {
		panic(fmt.Sprintf("transport: need ≥1 node, got %d", n))
	}
	return &Mem{
		n:       n,
		latency: latency,
		binder:  newBinder(n),
		closed:  make(chan struct{}),
	}
}

// N implements Transport.
func (t *Mem) N() int { return t.n }

// Hosts implements Transport: every node is local to the in-process
// fabric.
func (t *Mem) Hosts(id network.NodeID) bool { return id >= 0 && int(id) < t.n }

// Bind implements Transport.
func (t *Mem) Bind(id network.NodeID, h Handler) {
	t.binder.bind(id, h)
}

// Send implements Transport: a batch of one on shard 0.
func (t *Mem) Send(from, to network.NodeID, m network.Message) {
	msgs := [1]network.Message{m}
	t.send(0, from, to, msgs[:])
}

// SendBatch implements BatchSender on shard 0.
func (t *Mem) SendBatch(from, to network.NodeID, msgs []network.Message) {
	t.send(0, from, to, msgs)
}

// SetShards implements Sharder. The in-process fabric only needs the
// shard count — there is no codec to validate per-shard universes
// against — but takes the sizes for interface uniformity.
func (t *Mem) SetShards(sizes []int) {
	if len(sizes) == 0 {
		return
	}
	t.shardMu.Lock()
	defer t.shardMu.Unlock()
	t.shardBinders = make([]*binder, len(sizes))
	t.shardBinders[0] = t.binder
	for s := 1; s < len(sizes); s++ {
		t.shardBinders[s] = newBinder(t.n)
	}
}

// shardBinder resolves the binder of one shard (shard 0 is the legacy
// binder, configured or not), panicking on a shard the endpoint was
// never configured for — that is a wiring bug, not a runtime condition.
func (t *Mem) shardBinder(shard int) *binder {
	if shard == 0 {
		return t.binder
	}
	t.shardMu.RLock()
	defer t.shardMu.RUnlock()
	if shard < 0 || shard >= len(t.shardBinders) {
		panic(fmt.Sprintf("transport: shard %d on an endpoint with %d shards", shard, len(t.shardBinders)))
	}
	return t.shardBinders[shard]
}

// BindShard implements Sharder.
func (t *Mem) BindShard(shard int, id network.NodeID, h Handler) {
	t.shardBinder(shard).bind(id, h)
}

// SendShard implements Sharder: Send within one shard's namespace.
func (t *Mem) SendShard(shard int, from, to network.NodeID, m network.Message) {
	msgs := [1]network.Message{m}
	t.send(shard, from, to, msgs[:])
}

// SendShardBatch implements Sharder.
func (t *Mem) SendShardBatch(shard int, from, to network.NodeID, msgs []network.Message) {
	t.send(shard, from, to, msgs)
}

// send is the one delivery path behind every exported send. A run is
// delivered under one binder-lock acquisition (zero latency) or one
// delay (latency mode — the batch travels as a unit, like one envelope
// on a wire). Each (shard, sender, destination) triple is its own FIFO
// delay link, so shard traffic pipelines instead of queueing behind
// other shards' latency. The caller's slice is never retained: a lone
// message rides its link item by value and a longer run is copied.
func (t *Mem) send(shard int, from, to network.NodeID, msgs []network.Message) {
	if len(msgs) == 0 {
		return
	}
	if to < 0 || int(to) >= t.n {
		panic(fmt.Sprintf("transport: send to invalid node %d", to))
	}
	b := t.shardBinder(shard)
	select {
	case <-t.closed:
		return
	default:
	}
	for _, m := range msgs {
		t.stats.count(m.Kind())
	}
	if t.latency <= 0 {
		b.deliverBatch(to, from, msgs)
		return
	}
	item := linkItem{from: from}
	if len(msgs) == 1 {
		item.m = msgs[0]
	} else {
		item.msgs = append([]network.Message(nil), msgs...)
	}
	select {
	case t.shardLink(shard, from, to, b) <- item:
	case <-t.closed:
		// Closed mid-send: the link's forwarder may be gone; drop.
	}
}

// shardLink returns the delay queue of one (shard, sender,
// destination) link, delivering into the shard's binder and starting
// its forwarding goroutine on first use.
func (t *Mem) shardLink(shard int, from, to network.NodeID, b *binder) chan linkItem {
	key := (shard*t.n+int(from))*t.n + int(to)
	t.linkMu.Lock()
	defer t.linkMu.Unlock()
	if t.links == nil {
		t.links = make(map[int]chan linkItem)
	}
	ch, ok := t.links[key]
	if !ok {
		ch = make(chan linkItem, 1024)
		t.links[key] = ch
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			for {
				select {
				case p := <-ch:
					time.Sleep(t.latency)
					if p.msgs != nil {
						b.deliverBatch(to, p.from, p.msgs)
					} else {
						b.deliver(to, p.from, p.m)
					}
				case <-t.closed:
					return
				}
			}
		}()
	}
	return ch
}

// Tune implements WireTuner as a no-op: the in-process fabric has no
// wire path, but accepting the call lets callers hold wire options as
// a plain value and tune every fabric uniformly.
func (t *Mem) Tune(WireOptions) {}

// Stats implements Transport.
func (t *Mem) Stats() map[string]int64 { return t.stats.snapshot() }

// Close implements Transport.
func (t *Mem) Close() error {
	t.closeMu.Lock()
	select {
	case <-t.closed:
		t.closeMu.Unlock()
		return nil
	default:
	}
	close(t.closed)
	t.closeMu.Unlock()
	t.wg.Wait()
	return nil
}
