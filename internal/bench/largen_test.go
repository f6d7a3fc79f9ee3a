package bench

import (
	"testing"
	"time"
)

// largeNWindow is each twin's measured span: about the second the go
// test benchmark harness ran when the figures below were recorded, so
// the floors compare like with like.
const largeNWindow = time.Second

// n128DeltaBytes is the n128 delta twin's wire bytes per critical
// section as recorded when delta token state landed (commit 4fdbed6:
// 708.875 B/op). TestLargeNDeltaSmoke allows 10% above it: bytes per
// critical section is protocol traffic, not wall clock, so it holds
// across machines.
const n128DeltaBytes = 708.875

// n128DeltaRatio is the same record's delta/nodelta byte ratio at n128
// (708.875 / 991.298 B/op). TestLargeNDeltaCutsBytes allows 10% above
// it, measured on twins of one run.
const n128DeltaRatio = 0.715

func measureLargeN(t *testing.T, delta bool) wireCost {
	t.Helper()
	c, err := runLargeN(128, delta, largeNWindow)
	if err != nil {
		t.Fatal(err)
	}
	if c.bytes <= 0 || c.writes <= 0 || c.msgs <= 0 {
		t.Fatalf("delta=%v: no peer wire traffic: %+v", delta, c)
	}
	t.Logf("n128 delta=%v: %.1f B/cs, %.2f writes/cs, %.2f msgs/cs", delta, c.bytes, c.writes, c.msgs)
	return c
}

// TestLargeNDeltaSmoke runs the n128 delta twin over real sockets and
// fails if its wire bytes per critical section exceed the recorded
// figure by more than 10%.
func TestLargeNDeltaSmoke(t *testing.T) {
	if c := measureLargeN(t, true); c.bytes > 1.10*n128DeltaBytes {
		t.Fatalf("wire bytes per cs regressed: %.1f > %.1f (1.10 × recorded %.3f)",
			c.bytes, 1.10*n128DeltaBytes, n128DeltaBytes)
	}
}

// TestLargeNDeltaCutsBytes is the delta token path's twin exhibit: on
// identical workloads in one run, the delta twin must move at most
// 1.10 × the recorded delta/nodelta ratio of the nodelta twin's bytes.
func TestLargeNDeltaCutsBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("two loopback twins in -short mode")
	}
	d, nd := measureLargeN(t, true), measureLargeN(t, false)
	ratio := d.bytes / nd.bytes
	t.Logf("delta/nodelta = %.3f", ratio)
	if bound := 1.10 * n128DeltaRatio; ratio > bound {
		t.Fatalf("delta twin moved %.1f B/cs vs nodelta %.1f: ratio %.3f > %.3f (1.10 × recorded %.3f)",
			d.bytes, nd.bytes, ratio, bound, n128DeltaRatio)
	}
}
