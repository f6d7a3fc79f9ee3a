package bench

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"mralloc/internal/wire"
)

// The backpressure tier: the stalled-peer cell. A coalescing writer
// feeds a deliberately slow sink — the stand-in for a peer that reads
// far slower than we produce — under a byte budget. Pre-budget, the
// queue grew without bound (the one known OOM path); the cell asserts
// the queue stays pinned under budget + one frame while measuring what
// the blocking costs. Budget stalls ride the events column.

// slowSink models a peer draining at a fixed per-write latency.
type slowSink struct {
	delay   time.Duration
	written atomic.Int64
}

func (s *slowSink) Write(p []byte) (int, error) {
	time.Sleep(s.delay)
	s.written.Add(int64(len(p)))
	return len(p), nil
}

// backpressureScenario appends b.N one-KiB frames against the budget.
// One op is one admitted frame; the scenario fails outright if the
// queue ever exceeds the bound the budget promises.
func backpressureScenario(budget int64, delay time.Duration) Scenario {
	const frameLen = 1024
	s := Scenario{Name: fmt.Sprintf("backpressure/stall/b%dk", budget>>10)}
	s.Run = func(b *testing.B) {
		sink := &slowSink{delay: delay}
		co := wire.NewCoalescer(sink, func(error) {})
		co.SetByteBudget(budget)
		payload := make([]byte, frameLen)
		b.ReportAllocs()
		b.ResetTimer()
		var peak int64
		for i := 0; i < b.N; i++ {
			if !co.Append(payload) {
				b.Fatal("append refused")
			}
			if q := co.QueuedBytes(); q > peak {
				peak = q
			}
		}
		b.StopTimer()
		if err := co.Close(); err != nil {
			b.Fatal(err)
		}
		if lim := budget + frameLen + 32; peak > lim {
			b.Fatalf("queued %d bytes exceeds the budget bound %d", peak, lim)
		}
		st := co.Stats()
		n := float64(b.N)
		b.ReportMetric(float64(st.Writes)/n, "writes_per_op")
		b.ReportMetric(float64(st.Bytes)/n, "wire_bytes_per_op")
		if st.Flushes > 0 {
			b.ReportMetric(float64(st.Frames)/float64(st.Flushes), "avg_batch_frames")
		}
		b.ReportMetric(float64(st.Stalls), "events_per_op")
	}
	return s
}

// BackpressureGrid is the stalled-peer cell at the default-shaped
// budget ratio (64 KiB budget, 20µs per sink write — a sink roughly
// 50× slower than loopback).
func BackpressureGrid() []Scenario {
	return []Scenario{backpressureScenario(64<<10, 20*time.Microsecond)}
}
