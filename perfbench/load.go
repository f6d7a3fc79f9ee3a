package main

import (
	"context"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mralloc/internal/core"
	"mralloc/internal/serve"
	"mralloc/internal/transport"
	"mralloc/internal/wire"
)

// acquireTimeout bounds one Client.Acquire; one that runs out counts
// as failed.
const acquireTimeout = 5 * time.Second

// stallAfter is how long requests may be outstanding with no grant
// completing before the watchdog records a stall.
const stallAfter = time.Second

// window is what one closed-loop measurement window saw: the
// generator's own counts, and the deltas of the counters the program
// keeps.
type window struct {
	elapsed                    time.Duration
	attempted, failed, granted atomic.Int64
	violations                 atomic.Int64
	holdSize                   atomic.Int64 // Σ hold × set size, ns
	lat                        hist         // Client.Acquire call → grant
	heapPeak                   uint64       // peak HeapInuse, bytes
	stalls                     int
	stallMax                   time.Duration
	queueMean                  float64 // traced windows only: mean admission queue per node
	counters                           // deltas over the window
}

// counters are the program's own counters, summed over both daemons.
type counters struct {
	msgs     int64         // protocol messages sent
	cpu      time.Duration // process user + system time
	mallocs  uint64
	gcs      uint32
	peerWire wire.CoalescerStats // TCP peer links
	portWire wire.CoalescerStats // client ports, both directions
	rel      transport.RelStats
	dropped  int64 // chaos drops
	protocol core.Counters
}

func (d *deployment) snapshot() counters {
	var s counters
	for _, dm := range d.daemons {
		for _, v := range dm.cluster.Stats() {
			s.msgs += v
		}
		s.peerWire.Add(dm.tcp.WireStats())
		s.portWire.Add(dm.server.WireStats())
		s.portWire.Add(dm.client.WireStats())
		if dm.rel != nil {
			r := dm.rel.RelStats()
			s.rel.Retransmits += r.Retransmits
			s.rel.DupsDropped += r.DupsDropped
			s.rel.AcksSent += r.AcksSent
		}
		if dm.chaos != nil {
			s.dropped += dm.chaos.ChaosStats().Dropped
		}
	}
	s.protocol = d.protocolCounters()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.gcs = ms.Mallocs, ms.NumGC
	return s
}

// minus returns the counts from a to b, for the counters the metrics
// use.
func (b counters) minus(a counters) counters {
	return counters{
		msgs:     b.msgs - a.msgs,
		cpu:      b.cpu - a.cpu,
		mallocs:  b.mallocs - a.mallocs,
		gcs:      b.gcs - a.gcs,
		peerWire: wireDelta(a.peerWire, b.peerWire),
		portWire: wireDelta(a.portWire, b.portWire),
		rel: transport.RelStats{
			Retransmits: b.rel.Retransmits - a.rel.Retransmits,
			DupsDropped: b.rel.DupsDropped - a.rel.DupsDropped,
			AcksSent:    b.rel.AcksSent - a.rel.AcksSent,
		},
		dropped: b.dropped - a.dropped,
		protocol: core.Counters{
			LoansGranted: b.protocol.LoansGranted - a.protocol.LoansGranted,
			Heartbeats:   b.protocol.Heartbeats - a.protocol.Heartbeats,
			Regens:       b.protocol.Regens - a.protocol.Regens,
			Fenced:       b.protocol.Fenced - a.protocol.Fenced,
		},
	}
}

func wireDelta(a, b wire.CoalescerStats) wire.CoalescerStats {
	return wire.CoalescerStats{
		Writes: b.Writes - a.Writes,
		Frames: b.Frames - a.Frames,
		Bytes:  b.Bytes - a.Bytes,
		Stalls: b.Stalls - a.Stalls,
	}
}

// run drives the workload's callers against d for dur, closed-loop:
// each caller draws its next request only after the previous one was
// granted, held and released (or failed). It checks exclusivity from
// the client side as it goes. A non-nil tracer is switched on for the
// window.
func run(d *deployment, seed int64, dur time.Duration, tr *tracer) *window {
	w := d.w
	win := &window{}
	owners := make([]atomic.Int32, w.resources)
	callers := make([]*stream, w.callers)
	for c := range callers {
		callers[c] = newStream(w, seed, c)
	}
	if w.lossy {
		d.armFaults()
	}

	var inflight atomic.Int64
	var progress atomic.Int64 // UnixNano of the last completed grant
	var background sync.WaitGroup
	stop := make(chan struct{})

	before := d.snapshot()
	start := time.Now()
	progress.Store(start.UnixNano())
	if tr != nil {
		tr.on.Store(true)
		background.Add(1)
		go func() {
			defer background.Done()
			win.queueMean = sampleQueues(d, stop)
		}()
	}
	background.Add(2)
	go func() {
		defer background.Done()
		win.heapPeak = sampleHeap(stop)
	}()
	go func() {
		defer background.Done()
		dump := func() { d.dump(os.Stderr) }
		win.stalls, win.stallMax = watchStalls(dump, &inflight, &progress, stop)
	}()

	end := start.Add(dur)
	var wg sync.WaitGroup
	for c, st := range callers {
		wg.Add(1)
		go func(id int32, st *stream, client *serve.Client) {
			defer wg.Done()
			for time.Now().Before(end) {
				req := st.next()
				win.attempted.Add(1)
				var rt *reqTrace
				if tr != nil {
					rt = tr.beginClient(st.node, req.res)
				}
				inflight.Add(1)
				ctx, cancel := context.WithTimeout(context.Background(), acquireTimeout)
				t0 := time.Now()
				release, err := client.Acquire(ctx, st.node, req.res...)
				t1 := time.Now()
				cancel()
				inflight.Add(-1)
				if tr != nil {
					tr.endClient(rt, t0, t1, err == nil)
				}
				if err != nil {
					win.failed.Add(1)
					continue
				}
				progress.Store(t1.UnixNano())
				win.granted.Add(1)
				win.lat.add(t1.Sub(t0))
				for _, r := range req.res {
					if !owners[r].CompareAndSwap(0, id) {
						win.violations.Add(1)
					}
				}
				if req.hold > 0 {
					time.Sleep(req.hold)
				}
				for _, r := range req.res {
					if !owners[r].CompareAndSwap(id, 0) {
						win.violations.Add(1)
					}
				}
				win.holdSize.Add(int64(time.Since(t1)) * int64(len(req.res)))
				release()
			}
		}(int32(c+1), st, d.daemonOf(st.node).client)
	}
	wg.Wait()
	win.elapsed = time.Since(start)
	if tr != nil {
		tr.on.Store(false)
	}
	close(stop)
	background.Wait()
	win.counters = d.snapshot().minus(before)
	return win
}

// sampleHeap tracks peak HeapInuse until stop closes.
func sampleHeap(stop <-chan struct{}) uint64 {
	var peak uint64
	var ms runtime.MemStats
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		runtime.ReadMemStats(&ms)
		peak = max(peak, ms.HeapInuse)
		select {
		case <-stop:
			return peak
		case <-tick.C:
		}
	}
}

// sampleQueues averages the admission queue length per node, read
// through Cluster.QueueLen, until stop closes.
func sampleQueues(d *deployment, stop <-chan struct{}) float64 {
	var total, samples int
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			if samples == 0 {
				return 0
			}
			return float64(total) / float64(samples)
		case <-tick.C:
		}
		for _, dm := range d.daemons {
			for _, id := range dm.local {
				total += dm.cluster.QueueLen(id)
				samples++
			}
		}
	}
}

// watchStalls records every interval of at least stallAfter in which
// acquires were outstanding and none was granted. The first stall
// calls dump, from a goroutine of its own: a wedged loop must not
// wedge the watchdog, and closing the deployment releases the dump.
func watchStalls(dump func(), inflight, progress *atomic.Int64, stop <-chan struct{}) (stalls int, longest time.Duration) {
	var from int64  // UnixNano the current stall began; 0 when none
	var ended int64 // UnixNano the last stall ended
	finish := func(until int64) {
		longest = max(longest, time.Duration(until-from))
		from, ended = 0, until
	}
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			if from != 0 {
				finish(time.Now().UnixNano())
			}
			return stalls, longest
		case now := <-tick.C:
			// A stall starts at the last grant, or at the end of the
			// previous stall if no grant came since.
			last := progress.Load()
			quiet := max(last, ended)
			switch {
			case from == 0 && inflight.Load() > 0 && now.UnixNano()-quiet >= int64(stallAfter):
				from = quiet
				stalls++
				if stalls == 1 {
					os.Stderr.WriteString("perfbench: no grant for 1s with acquires outstanding; per-node state:\n")
					go dump()
				}
			case from != 0 && last > from:
				finish(last) // a grant ended it
			case from != 0 && inflight.Load() == 0:
				finish(now.UnixNano()) // every waiter gave up
			}
		}
	}
}
