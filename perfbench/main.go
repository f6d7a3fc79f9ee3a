package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"
)

// setups is how many times an end-to-end run deploys the workload; the
// median set-up time is reported and the last deployment is measured.
// One set-up takes a few milliseconds, and a shared host's speed can
// swing from one second to the next, so the set-ups are spread setupGap
// apart to sample more than one moment.
const (
	setups   = 21
	setupGap = 50 * time.Millisecond
)

// runLimit bounds a whole run; past it the benchmark gives up without
// a result.
const runLimit = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: contended, local, sharded or lossy")
	seed := flag.Int64("seed", 1, "seed of every caller's request stream")
	seconds := flag.Int("seconds", 10, "length of the measured window, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload contended|local|sharded|lossy --seed n --seconds s --trace 0|1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(3)
	})

	dur := time.Duration(*seconds) * time.Second
	var res result
	var err error
	if *trace == 0 {
		res, err = endToEnd(w, *seed, dur)
	} else {
		res, err = traced(w, *seed, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s is %v\n", n, m.Value)
			res.Correct = false
			res.Metrics[n] = metric{0, m.Unit}
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// endToEnd deploys the workload several times to time set-up, then
// measures the last deployment untraced.
func endToEnd(w workload, seed int64, dur time.Duration) (result, error) {
	var took []float64
	var d *deployment
	for i := 0; i < setups; i++ {
		dep, t, err := deploy(w, nil)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		took = append(took, t.Seconds())
		if i < setups-1 {
			dep.close()
			time.Sleep(setupGap)
		} else {
			d = dep
		}
	}
	win := run(d, seed, dur, nil)
	d.close()

	cs := float64(win.granted.Load())
	secs := win.elapsed.Seconds()
	fmt.Printf("%s seed %d: %d acquires attempted, %d granted, %d failed, %d exclusivity violations, %d stalls over %.3fs\n",
		w.name, seed, win.attempted.Load(), win.granted.Load(), win.failed.Load(), win.violations.Load(), win.stalls, secs)
	fmt.Printf("acquire latency over %d samples\n", win.lat.count())
	return result{
		Correct:   win.violations.Load() == 0,
		Attempted: win.attempted.Load(),
		Failed:    win.failed.Load(),
		Metrics: map[string]metric{
			"cs_per_s":       {cs / secs, "1/s"},
			"acquire_p50_ms": {win.lat.quantile(0.50) / 1e6, "ms"},
			"acquire_p99_ms": {win.lat.quantile(0.99) / 1e6, "ms"},
			"use_rate":       {float64(win.holdSize.Load()) / (float64(w.resources) * float64(win.elapsed)), "ratio"},
			"msgs_per_cs":    {ratio(float64(win.msgs), cs), "msg/cs"},
			"grant_ratio":    {ratio(cs, float64(win.attempted.Load())), "ratio"},
			"cpu_us_per_cs":  {ratio(float64(win.cpu)/1e3, cs), "us/cs"},
			"heap_peak_mb":   {float64(win.heapPeak) / (1 << 20), "MB"},
			"setup_s":        {median(took), "s"},
		},
	}, nil
}

// traced measures half the window on an untraced deployment and half
// on a traced one. The counters the program keeps itself (wire, serve
// port, recovery, protocol and runtime counters) are read from the
// untraced half; spans and the wrappers' counts come from the traced
// half; the difference in throughput is the tracing overhead.
func traced(w workload, seed int64, dur time.Duration) (result, error) {
	half := dur / 2
	d, _, err := deploy(w, nil)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	plain := run(d, seed, half, nil)
	d.close()

	tr := newTracer(w)
	if d, _, err = deploy(w, tr); err != nil {
		return result{}, fmt.Errorf("traced set-up: %w", err)
	}
	win := run(d, seed, half, tr)
	d.close()

	pcs := float64(plain.granted.Load())
	cs := float64(win.granted.Load())
	perCS := func(v int64) float64 { return ratio(float64(v), pcs) }
	perKCS := func(v int64) float64 { return ratio(1000*float64(v), pcs) }
	tcs := func(v int64) float64 { return ratio(float64(v), cs) }
	ms := func(ns float64) float64 { return ns / 1e6 }
	plainRate := pcs / plain.elapsed.Seconds()
	tracedRate := cs / win.elapsed.Seconds()
	p := plain.protocol
	m := map[string]metric{
		"serve.self_ms_p50":              {ms(tr.serveSelf.quantile(0.50)), "ms"},
		"serve.self_ms_p99":              {ms(tr.serveSelf.quantile(0.99)), "ms"},
		"serve.writes_per_cs":            {perCS(plain.portWire.Writes), "write/cs"},
		"serve.frames_per_write":         {ratio(float64(plain.portWire.Frames), float64(plain.portWire.Writes)), "frame/write"},
		"live.acquire_ms_p50":            {ms(tr.liveAcquire.quantile(0.50)), "ms"},
		"live.acquire_ms_p99":            {ms(tr.liveAcquire.quantile(0.99)), "ms"},
		"live.admit_ms_p50":              {ms(tr.liveAdmit.quantile(0.50)), "ms"},
		"live.admit_ms_p99":              {ms(tr.liveAdmit.quantile(0.99)), "ms"},
		"live.queue_depth_mean":          {win.queueMean, "count"},
		"live.cross_ms_p50":              {ms(tr.cross.quantile(0.50)), "ms"},
		"core.sync_ms_p50":               {ms(tr.coreSync.quantile(0.50)), "ms"},
		"core.sync_ms_p99":               {ms(tr.coreSync.quantile(0.99)), "ms"},
		"core.sends_per_cs":              {tcs(tr.sends.Load()), "msg/cs"},
		"core.deliver_us_mean":           {ratio(float64(tr.deliverNS.Load())/1e3, float64(tr.delivers.Load())), "us"},
		"core.delivers_per_cs":           {tcs(tr.delivers.Load()), "count/cs"},
		"core.hold_ms_p50":               {ms(tr.hold.quantile(0.50)), "ms"},
		"core.loans_granted_per_kcs":     {perKCS(int64(p.LoansGranted)), "count/kcs"},
		"core.heartbeats_per_cs":         {perCS(int64(p.Heartbeats)), "msg/cs"},
		"core.regens_per_kcs":            {perKCS(int64(p.Regens)), "count/kcs"},
		"core.fenced_per_kcs":            {perKCS(int64(p.Fenced)), "count/kcs"},
		"transport.send_calls_per_cs":    {tcs(tr.sendCalls.Load()), "call/cs"},
		"transport.msgs_per_send":        {ratio(float64(tr.sendMsgs.Load()), float64(tr.sendCalls.Load())), "msg/call"},
		"transport.send_us_mean":         {ratio(float64(tr.sendNS.Load())/1e3, float64(tr.sendCalls.Load())), "us"},
		"transport.retransmits_per_cs":   {perCS(plain.rel.Retransmits), "msg/cs"},
		"transport.dups_dropped_per_cs":  {perCS(plain.rel.DupsDropped), "msg/cs"},
		"transport.acks_per_cs":          {perCS(plain.rel.AcksSent), "msg/cs"},
		"transport.chaos_dropped_per_cs": {perCS(plain.dropped), "msg/cs"},
		"wire.writes_per_cs":             {perCS(plain.peerWire.Writes), "write/cs"},
		"wire.bytes_per_cs":              {perCS(plain.peerWire.Bytes), "B/cs"},
		"wire.frames_per_write":          {ratio(float64(plain.peerWire.Frames), float64(plain.peerWire.Writes)), "frame/write"},
		"wire.stalls_per_kcs":            {perKCS(plain.peerWire.Stalls), "count/kcs"},
		"proc.allocs_per_cs":             {perCS(int64(plain.mallocs)), "alloc/cs"},
		"proc.gc_cycles_per_kcs":         {perKCS(int64(plain.gcs)), "count/kcs"},
		"gen.stalls":                     {float64(plain.stalls + win.stalls), "count"},
		"gen.stall_s_max":                {max(plain.stallMax, win.stallMax).Seconds(), "s"},
		"trace.overhead_pct":             {100 * ratio(plainRate-tracedRate, plainRate), "%"},
	}
	fmt.Printf("%s seed %d: untraced %d of %d granted, traced %d of %d granted; %d violations\n",
		w.name, seed, plain.granted.Load(), plain.attempted.Load(), win.granted.Load(), win.attempted.Load(),
		plain.violations.Load()+win.violations.Load())
	fmt.Printf("span samples: serve %d, live %d, admit %d, cross %d, sync %d, hold %d\n",
		tr.serveSelf.count(), tr.liveAcquire.count(), tr.liveAdmit.count(), tr.cross.count(),
		tr.coreSync.count(), tr.hold.count())
	return result{
		Correct:   plain.violations.Load()+win.violations.Load() == 0,
		Attempted: plain.attempted.Load() + win.attempted.Load(),
		Failed:    plain.failed.Load() + win.failed.Load(),
		Metrics:   m,
	}, nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 {
	s := slices.Sorted(slices.Values(v))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
