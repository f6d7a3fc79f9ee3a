package bouabdallah

import (
	"testing"

	"mralloc/internal/alg"
	"mralloc/internal/network"
	"mralloc/internal/resource"
	"mralloc/internal/sim"
)

// The mustYield inversion. A site h that re-registers while holding a
// token the control token already promised to an earlier registrant w
// (Last[r] = w, w's INQUIRE still in flight) sets mustYield[r] and
// must NOT count r as satisfied: w precedes h in r's chain, so h has
// to yield to w's INQUIRE and re-acquire through its own. Entering the
// critical section on a mustYield'd token lets w's INQUIRE pull the
// token out from under a running CS — two sites end up inside the CS
// on one resource.
//
// The race needs w's direct INQUIRE (w→h) to arrive after the control
// token reached h through a third site (w→z→h): impossible under
// uniform per-link latency (one hop beats two), which is why neither
// the simulation battery nor symmetric-delay fabrics ever caught it —
// the adaptive flush delay was the first asymmetric-delay fabric. This
// test scripts that interleaving deterministically, FIFO per ordered
// pair respected throughout.

// scriptMsg is one in-flight message of the scripted network.
type scriptMsg struct {
	from, to network.NodeID
	m        network.Message
}

// scriptNet delivers messages by hand, preserving FIFO per ordered
// pair: deliver(to) always hands over the oldest queued message per
// origin chosen, and hold lets the script keep one message in flight.
type scriptNet struct {
	t     *testing.T
	nodes []alg.Node
	queue []scriptMsg
	inCS  []bool // per node, toggled by Granted/Release bookkeeping
}

type scriptEnv struct {
	net  *scriptNet
	id   network.NodeID
	n, m int
}

func (e *scriptEnv) ID() network.NodeID { return e.id }
func (e *scriptEnv) N() int             { return e.n }
func (e *scriptEnv) M() int             { return e.m }
func (e *scriptEnv) Now() sim.Time      { return 0 }
func (e *scriptEnv) Send(to network.NodeID, m network.Message) {
	e.net.queue = append(e.net.queue, scriptMsg{from: e.id, to: to, m: m})
}
func (e *scriptEnv) Granted() { e.net.inCS[e.id] = true }

// deliverNext delivers the oldest queued message matching keep==false.
// keep lets the script delay one specific message (a slow link); all
// other traffic flows in send order, so FIFO per pair holds.
func (s *scriptNet) deliverWhere(pred func(scriptMsg) bool) bool {
	for i, msg := range s.queue {
		if !pred(msg) {
			continue
		}
		// FIFO per ordered pair: nothing older on the same pair may
		// still be queued.
		for _, prev := range s.queue[:i] {
			if prev.from == msg.from && prev.to == msg.to {
				s.t.Fatalf("script would reorder %v→%v traffic", msg.from, msg.to)
			}
		}
		s.queue = append(s.queue[:i], s.queue[i+1:]...)
		s.nodes[msg.to].Deliver(msg.from, msg.m)
		return true
	}
	return false
}

// drain delivers everything queued except messages matching hold.
func (s *scriptNet) drain(hold func(scriptMsg) bool) {
	for s.deliverWhere(func(m scriptMsg) bool { return hold == nil || !hold(m) }) {
	}
}

func isInquire(m scriptMsg) bool { _, ok := m.m.(inquireMsg); return ok }

func TestMustYieldTokenNotUsableUntilYielded(t *testing.T) {
	const n, m = 3, 2
	const h, z, w = 0, 1, 2 // h re-registers; z relays the CT; w precedes h
	nodes := NewFactory()(n, m)
	net := &scriptNet{t: t, nodes: nodes, inCS: make([]bool, n)}
	for i, nd := range nodes {
		nd.Attach(&scriptEnv{net: net, id: network.NodeID(i), n: n, m: m})
	}
	rOnly := resource.FromIDs(m, 0)

	// h acquires and releases r: the resource token now lives at h,
	// outside the control token, with Last[r]=h.
	nodes[h].Request(rOnly.Clone())
	net.drain(nil)
	if !net.inCS[h] {
		t.Fatal("setup: h never entered its first CS")
	}
	net.inCS[h] = false
	nodes[h].Release()
	net.drain(nil)

	// w registers for r: takes the CT (h→w via NT), records itself as
	// Last[r], and sends its INQUIRE to h — which we hold in flight
	// (the slow link).
	nodes[w].Request(rOnly.Clone())
	net.drain(isInquire)
	if got := len(net.queue); got != 1 {
		t.Fatalf("after w's registration, %d messages in flight, want just w's INQUIRE", got)
	}

	// z registers for the other resource: the CT travels w→z and z is
	// served from it directly.
	nodes[z].Request(resource.FromIDs(m, 1))
	net.drain(isInquire)
	if !net.inCS[z] {
		t.Fatal("z did not enter on the uncontended resource")
	}

	// h re-registers for r: the CT arrives z→h (two fast hops beat w's
	// one slow one), h sees Last[r]=w and still holds r — the mustYield
	// case. h must NOT be granted: w precedes it in r's chain.
	nodes[h].Request(rOnly.Clone())
	net.drain(isInquire)
	if net.inCS[h] {
		t.Fatal("h entered its CS on a token already promised to w (mustYield inversion)")
	}

	// w's INQUIRE finally lands: h yields r to w; w enters, h waits.
	net.drain(nil)
	if !net.inCS[w] {
		t.Fatal("w never entered after its INQUIRE was answered")
	}
	if net.inCS[h] {
		t.Fatal("h and w are both inside the CS on r")
	}

	// w releases; the token flows back along h's own INQUIRE and h
	// finally enters.
	net.inCS[w] = false
	nodes[w].Release()
	net.drain(nil)
	if !net.inCS[h] {
		t.Fatal("h starved after yielding to w")
	}
}

// TestMustYieldServesOnlyTheEarlierInquire pins the liveness half of
// the mustYield rule. h holds r from its first critical section when x
// registers (x's INQUIRE to h is slow), then h re-registers behind x
// — mustYield — and s registers behind h. s's INQUIRE to h overtakes
// x's. Yielding the promised token to whichever INQUIRE lands first
// hands it to s: x then waits on h, h on x, and s keeps r idle — the
// stall TestVerifiedStress hit on bouabdallah over TCP. The token must
// go to x, and every site must get its turn in chain order x, h, s.
func TestMustYieldServesOnlyTheEarlierInquire(t *testing.T) {
	const n, m = 3, 2
	const x, h, s = 0, 1, 2 // x is also the control token's first root
	nodes := NewFactory()(n, m)
	net := &scriptNet{t: t, nodes: nodes, inCS: make([]bool, n)}
	for i, nd := range nodes {
		nd.Attach(&scriptEnv{net: net, id: network.NodeID(i), n: n, m: m})
	}
	r := resource.FromIDs(m, 0)
	slow := func(msg scriptMsg) bool { return isInquire(msg) && msg.from == x && msg.to == h }
	release := func(id int) {
		t.Helper()
		if !net.inCS[id] {
			t.Fatalf("site %d not in its CS", id)
		}
		net.inCS[id] = false
		nodes[id].Release()
	}

	// h's first critical section on r; it keeps the token afterwards.
	nodes[h].Request(r.Clone())
	net.drain(slow)
	// x registers behind h; its INQUIRE to h stays in flight.
	nodes[x].Request(r.Clone())
	net.drain(slow)
	release(h)
	// s passes through on the other resource, so the control token
	// reaches h by way of s rather than over the slow x→h link.
	nodes[s].Request(resource.FromIDs(m, 1))
	net.drain(slow)
	release(s)
	// h re-registers behind x while still holding r: mustYield.
	nodes[h].Request(r.Clone())
	net.drain(slow)
	// s registers behind h; its INQUIRE reaches h before x's.
	nodes[s].Request(r.Clone())
	net.drain(slow)
	if net.inCS[s] || net.inCS[h] {
		t.Fatal("the token promised to x went to a later registrant")
	}

	net.drain(nil)
	for _, id := range []int{x, h, s} {
		if !net.inCS[id] {
			t.Fatalf("site %d never entered: the chain x, h, s is wedged", id)
		}
		release(id)
		net.drain(nil)
	}
}
