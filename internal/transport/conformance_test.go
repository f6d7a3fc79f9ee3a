package transport_test

import (
	"encoding/binary"
	"net"
	"testing"
	"time"

	"mralloc/internal/network"
	"mralloc/internal/transport"
	"mralloc/internal/transport/transporttest"
	"mralloc/internal/wire"
)

// memFactory: one in-process endpoint hosts every node.
func memFactory(latency time.Duration) transporttest.Factory {
	return func(t *testing.T, n int) []transport.Transport {
		m := transport.NewMem(n, latency)
		eps := make([]transport.Transport, n)
		for i := range eps {
			eps[i] = m
		}
		return eps
	}
}

// tcpFactory: one endpoint per node, each with its own loopback
// listener — the maximally distributed topology.
func tcpFactory(t *testing.T, n int) []transport.Transport {
	eps := make([]transport.Transport, n)
	addrs := make([]string, n)
	for i := range eps {
		tr, err := transport.ListenTCP("127.0.0.1:0", n, i)
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = tr
		addrs[i] = tr.Addr()
	}
	for _, ep := range eps {
		if err := ep.(*transport.TCP).Connect(addrs); err != nil {
			t.Fatal(err)
		}
	}
	return eps
}

// tcpPairedFactory: two endpoints each hosting half the nodes, so the
// suite also exercises node pairs that share a process (in-memory
// short-circuit) next to pairs that cross the wire.
func tcpPairedFactory(t *testing.T, n int) []transport.Transport {
	half := n / 2
	lo := make([]int, 0, half)
	hi := make([]int, 0, n-half)
	for i := 0; i < n; i++ {
		if i < half {
			lo = append(lo, i)
		} else {
			hi = append(hi, i)
		}
	}
	a, err := transport.ListenTCP("127.0.0.1:0", n, lo...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := transport.ListenTCP("127.0.0.1:0", n, hi...)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, n)
	eps := make([]transport.Transport, n)
	for i := 0; i < n; i++ {
		if i < half {
			addrs[i] = a.Addr()
			eps[i] = a
		} else {
			addrs[i] = b.Addr()
			eps[i] = b
		}
	}
	if err := a.Connect(addrs); err != nil {
		t.Fatal(err)
	}
	if err := b.Connect(addrs); err != nil {
		t.Fatal(err)
	}
	return eps
}

// tcpHeteroFactory: the tcpPairedFactory topology with endpoint a
// running every wire feature and endpoint b a feature-disabled build
// (no delta) — negotiation must land each link on the
// common subset while every transport guarantee still holds.
func tcpHeteroFactory(t *testing.T, n int) []transport.Transport {
	eps := tcpPairedFactory(t, n)
	distinct := map[transport.Transport]bool{}
	var uniq []*transport.TCP
	for _, ep := range eps {
		if !distinct[ep] {
			distinct[ep] = true
			uniq = append(uniq, ep.(*transport.TCP))
		}
	}
	uniq[0].Tune(transport.WireOptions{Delta: true})
	if len(uniq) > 1 {
		uniq[1].Tune(transport.WireOptions{Delta: false})
	}
	return eps
}

// TestTCPRejectsMisshapenFrames plays a peer from a differently
// configured (or hostile) cluster: raw frames with out-of-range site
// ids must be rejected at the codec — error recorded, connection
// dropped, process alive — never delivered into a state machine.
func TestTCPRejectsMisshapenFrames(t *testing.T) {
	tr, err := transport.ListenTCP("127.0.0.1:0", 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.SetShape(3, 8)
	delivered := make(chan network.Message, 1)
	tr.Bind(0, func(from network.NodeID, m network.Message) { delivered <- m })

	c, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A frame claiming to come from node 5 of a 6-node cluster.
	payload := binary.AppendVarint(nil, 5) // from: out of range here
	payload = binary.AppendVarint(payload, 0)
	payload, err = wire.Append(payload, transporttest.Msg{K: transporttest.KindA, From: 5, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	frame := binary.AppendUvarint(nil, uint64(len(payload)))
	if _, err := c.Write(append(frame, payload...)); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for tr.Err() == nil {
		select {
		case m := <-delivered:
			t.Fatalf("misshapen frame delivered: %#v", m)
		case <-deadline:
			t.Fatal("frame neither rejected nor delivered")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	select {
	case m := <-delivered:
		t.Fatalf("misshapen frame delivered: %#v", m)
	default:
	}
}

func TestMemConformance(t *testing.T) {
	transporttest.TestTransport(t, memFactory(0))
}

func TestMemLatencyConformance(t *testing.T) {
	transporttest.TestTransport(t, memFactory(200*time.Microsecond))
}

func TestTCPConformance(t *testing.T) {
	transporttest.TestTransport(t, tcpFactory)
}

func TestTCPPairedConformance(t *testing.T) {
	transporttest.TestTransport(t, tcpPairedFactory)
}

func TestTCPHeteroConformance(t *testing.T) {
	transporttest.TestTransport(t, tcpHeteroFactory)
}
