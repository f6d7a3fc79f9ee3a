package bench

import (
	"context"
	"errors"
	"time"

	"mralloc/internal/live"
	"mralloc/internal/transport"
	"mralloc/internal/wire"
)

// The largeN twins: real loopback sockets at a cluster size where token
// state dominates the wire. A token carries two N-sized stamp vectors,
// so at N=128 every LASS.Response ships hundreds of bytes of mostly
// unchanged state, which is what delta-encoded token state exists to
// cut. The twins differ only in that one wire option; the workload and
// the protocol traffic are identical, so wire bytes per critical
// section is the column the pair compares.

const (
	largeNM        = 32 // resources; each request takes two
	largeNSessions = 32 // concurrent callers
)

// wireCost is the peer-link traffic of one run, per critical section.
type wireCost struct {
	bytes, writes, msgs float64
}

// runLargeN drives largeNSessions callers through acquire/release
// cycles for d on a two-daemon loopback deployment of nodes nodes,
// with delta-encoded token state on or off.
func runLargeN(nodes int, delta bool, d time.Duration) (wireCost, error) {
	lb, err := startLoopback(live.Config{
		Nodes:     nodes,
		Resources: largeNM,
		Wire:      transport.WireOptions{Delta: delta},
	}, false)
	if err != nil {
		return wireCost{}, err
	}
	defer lb.close()
	ctx := context.Background()
	wire0, msgs0 := peerTraffic(lb)
	ops, _, err := closedLoop(largeNSessions, d, func(w int, i int64) error {
		node := int(i+int64(w*13)) % nodes
		r1 := int(i+int64(w*7)) % largeNM
		release, err := lb.clusters[node*2/nodes].Acquire(ctx, node, r1, (r1+11)%largeNM)
		if err != nil {
			return err
		}
		release()
		return nil
	})
	if err != nil {
		return wireCost{}, err
	}
	if ops == 0 {
		return wireCost{}, errors.New("largeN: no critical section completed")
	}
	wire1, msgs1 := peerTraffic(lb)
	n := float64(ops)
	return wireCost{
		bytes:  float64(wire1.Bytes-wire0.Bytes) / n,
		writes: float64(wire1.Writes-wire0.Writes) / n,
		msgs:   float64(msgs1-msgs0) / n,
	}, nil
}

// peerTraffic sums the egress counters and the per-kind protocol
// message counts of both daemons' peer transports.
func peerTraffic(lb *loopback) (wire.CoalescerStats, int64) {
	var st wire.CoalescerStats
	var msgs int64
	for _, tr := range lb.trs {
		st.Add(tr.WireStats())
		msgs += sumStats(tr.Stats())
	}
	return st, msgs
}
