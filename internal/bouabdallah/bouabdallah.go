// Package bouabdallah implements the Bouabdallah–Laforest token-based
// dynamic resource allocation algorithm (Operating Systems Review 34(3),
// 2000), the closest related work and the main comparator of the paper's
// evaluation (§2.2, §5).
//
// One control token, unique system-wide and managed by a Naimi–Tréhel
// mutual exclusion instance, serializes request registration. The
// control token carries one entry per resource: either the resource
// token itself or the identity of the resource's latest requester. A
// site that acquires the control token atomically registers for all the
// resources it needs — taking the tokens present in the control token
// and sending an INQUIRE to the latest requester of each absent one —
// then releases the control token immediately. Because registration is
// atomic, the per-resource waiting chains are prefix-consistent with the
// control-token acquisition order and no cycle can form (deadlock
// freedom); the price is that every request, conflicting or not,
// synchronizes on the control token, and scheduling is static: a request
// can never overtake an earlier-registered one.
//
// One subtlety absent from the original paper's prose deserves a note:
// a site can hold a resource token while the control token names another
// site p as latest requester (p registered after this site's previous
// critical section but its INQUIRE is still in flight). When the holder
// itself re-registers for that resource it must yield the held token to
// p's incoming INQUIRE — p precedes it in the chain — and queue behind p
// via its own INQUIRE. The mustYield flag implements exactly that. The
// site's new registration can draw an INQUIRE of its own from a later
// registrant, and over links that are FIFO only per pair that one may
// arrive first; yielding to it would skip p's whole chain and deadlock.
// Each INQUIRE therefore names the registration it asks about (the
// control token numbers every registration of a resource), and only
// the one naming the earlier registration takes the promised token.
package bouabdallah

import (
	"fmt"

	"mralloc/internal/alg"
	"mralloc/internal/naimitrehel"
	"mralloc/internal/network"
	"mralloc/internal/resource"
)

// ControlToken is the payload riding the Naimi–Tréhel token: per
// resource, either the resource token itself (HasToken) or the latest
// registered requester (Last), and the number of registrations so far
// (Seq) — Seq[r] is the number of Last[r]'s registration.
type ControlToken struct {
	HasToken []bool
	Last     []network.NodeID
	Seq      []uint64
}

// NewControlToken builds the initial control token: every resource
// token starts inside it.
func NewControlToken(m int) *ControlToken {
	ct := &ControlToken{HasToken: make([]bool, m), Last: make([]network.NodeID, m), Seq: make([]uint64, m)}
	for r := 0; r < m; r++ {
		ct.HasToken[r] = true
		ct.Last[r] = network.None
	}
	return ct
}

// ctWire carries Naimi–Tréhel traffic for the control token.
type ctWire struct{ M naimitrehel.Msg }

// Kind implements network.Message.
func (w ctWire) Kind() string {
	if w.M.Type == naimitrehel.MsgRequest {
		return "BL.CTRequest"
	}
	return "BL.CTToken"
}

// inquireMsg asks the latest requester of r to forward the resource
// token once it is done with it. Seq names the target's registration
// the request queues behind.
type inquireMsg struct {
	R   resource.ID
	Seq uint64
}

// Kind implements network.Message.
func (inquireMsg) Kind() string { return "BL.Inquire" }

// resTokenMsg transfers the resource token of r.
type resTokenMsg struct{ R resource.ID }

// Kind implements network.Message.
func (resTokenMsg) Kind() string { return "BL.ResToken" }

type state uint8

const (
	idle       state = iota
	waitCT           // waiting for the control token
	collecting       // registered; waiting for resource tokens
	inCS
)

// Node is one site of the Bouabdallah–Laforest algorithm.
type Node struct {
	env alg.Env
	nt  *naimitrehel.Instance

	st      state
	want    resource.Set // resources of the current request
	holding resource.Set // resource tokens present at this site

	// nextHolder[r] is the site whose INQUIRE for r was deferred until
	// our release; mustYield[r] marks a held token promised to an
	// INQUIRE that has not arrived yet (see the package comment); reg[r]
	// is the number of our latest registration for r.
	nextHolder []network.NodeID
	mustYield  []bool
	reg        []uint64
}

// NewFactory returns the factory for driver.Run. Site 0 initially holds
// the control token with every resource token inside it.
func NewFactory() alg.Factory {
	return func(n, m int) []alg.Node {
		nodes := make([]alg.Node, n)
		for i := range nodes {
			nodes[i] = &Node{}
		}
		return nodes
	}
}

// Attach implements alg.Node.
func (nd *Node) Attach(env alg.Env) {
	nd.env = env
	m := env.M()
	nd.want = resource.NewSet(m)
	nd.holding = resource.NewSet(m)
	nd.nextHolder = make([]network.NodeID, m)
	for r := range nd.nextHolder {
		nd.nextHolder[r] = network.None
	}
	nd.mustYield = make([]bool, m)
	nd.reg = make([]uint64, m)
	send := func(to network.NodeID, msg naimitrehel.Msg) { env.Send(to, ctWire{msg}) }
	nd.nt = naimitrehel.New(env.ID(), 0, NewControlToken(m), send, nd.onControlToken)
}

// Request implements alg.Node: first acquire the control token.
func (nd *Node) Request(rs resource.Set) {
	if nd.st != idle {
		panic(fmt.Sprintf("bouabdallah: s%d requested while busy", nd.env.ID()))
	}
	nd.st = waitCT
	nd.want = rs.Clone()
	nd.nt.Request()
}

// onControlToken registers the current request atomically and releases
// the control token.
func (nd *Node) onControlToken(payload any) {
	ct := payload.(*ControlToken)
	self := nd.env.ID()
	nd.want.ForEach(func(r resource.ID) {
		switch {
		case ct.HasToken[r]:
			ct.HasToken[r] = false
			nd.holding.Add(r)
		case ct.Last[r] == self:
			// Our token from a previous critical section; nobody
			// registered in between, so it is still here.
			if !nd.holding.Has(r) {
				panic(fmt.Sprintf("bouabdallah: s%d registered as last for %d but does not hold it", self, r))
			}
		default:
			prev := ct.Last[r]
			nd.env.Send(prev, inquireMsg{R: r, Seq: ct.Seq[r]})
			if nd.holding.Has(r) {
				// prev registered before us and is claiming the token
				// we still hold; yield to its INQUIRE and queue behind
				// it through our own INQUIRE above.
				if nd.nextHolder[r] != network.None {
					nd.sendResource(nd.nextHolder[r], r)
					nd.nextHolder[r] = network.None
				} else {
					nd.mustYield[r] = true
				}
			}
		}
		ct.Seq[r]++
		nd.reg[r] = ct.Seq[r]
		ct.Last[r] = self
	})
	nd.st = collecting
	nd.nt.Release(ct)
	nd.checkEnter()
}

func (nd *Node) sendResource(to network.NodeID, r resource.ID) {
	nd.holding.Remove(r)
	nd.env.Send(to, resTokenMsg{R: r})
}

func (nd *Node) checkEnter() {
	if nd.st != collecting || !nd.want.SubsetOf(nd.holding) {
		return
	}
	// A held token flagged mustYield is promised to an earlier
	// registrant whose INQUIRE is still in flight: that site precedes
	// us in the resource's chain, so the token is not ours to use this
	// round — we yield it when the INQUIRE lands and re-acquire through
	// the INQUIRE we sent at registration. Entering anyway would let
	// the in-flight INQUIRE pull the token out from under a running
	// critical section (two sites inside the CS on one resource). The
	// inversion needs the direct INQUIRE to lose a race against a
	// multi-hop control-token path, so only asymmetric link delays ever
	// expose it — see TestMustYieldTokenNotUsableUntilYielded.
	mustWait := false
	nd.want.ForEach(func(r resource.ID) {
		if nd.mustYield[r] {
			mustWait = true
		}
	})
	if mustWait {
		return
	}
	nd.st = inCS
	nd.env.Granted()
}

// Release implements alg.Node: forward every token with a deferred
// INQUIRE, keep the rest.
func (nd *Node) Release() {
	if nd.st != inCS {
		panic(fmt.Sprintf("bouabdallah: s%d released outside CS", nd.env.ID()))
	}
	nd.st = idle
	nd.want.ForEach(func(r resource.ID) {
		if to := nd.nextHolder[r]; to != network.None {
			nd.nextHolder[r] = network.None
			nd.sendResource(to, r)
		}
	})
	nd.want.Clear()
}

// Deliver implements alg.Node.
func (nd *Node) Deliver(from network.NodeID, m network.Message) {
	switch msg := m.(type) {
	case ctWire:
		nd.nt.Deliver(msg.M)
	case inquireMsg:
		nd.onInquire(from, msg.R, msg.Seq)
	case resTokenMsg:
		nd.onResourceToken(msg.R)
	default:
		panic(fmt.Sprintf("bouabdallah: unexpected message %T", m))
	}
}

// onInquire serves an INQUIRE for r queued behind our registration
// number seq. One naming an earlier registration than our latest comes
// from a site that precedes our current request in r's chain: the
// held token is promised to it (mustYield).
func (nd *Node) onInquire(from network.NodeID, r resource.ID, seq uint64) {
	earlier := seq != nd.reg[r]
	if nd.holding.Has(r) && (nd.st == idle || !nd.want.Has(r) || earlier) {
		nd.mustYield[r] = false
		nd.sendResource(from, r)
		return
	}
	if nd.nextHolder[r] != network.None {
		panic(fmt.Sprintf("bouabdallah: s%d got second INQUIRE for %d (from s%d, pending s%d)",
			nd.env.ID(), r, from, nd.nextHolder[r]))
	}
	nd.nextHolder[r] = from
}

func (nd *Node) onResourceToken(r resource.ID) {
	if nd.st != collecting || !nd.want.Has(r) || nd.holding.Has(r) {
		panic(fmt.Sprintf("bouabdallah: s%d got unexpected token %d (state %d)", nd.env.ID(), r, nd.st))
	}
	nd.holding.Add(r)
	nd.checkEnter()
}
