package bench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mralloc/internal/live"
	"mralloc/internal/metrics"
	"mralloc/internal/serve"
)

// The open-loop driver. A closed-loop caller issues its next request
// only after the previous one finishes, so offered load can never
// exceed capacity and queueing collapse is structurally invisible. The
// open-loop driver decouples arrivals from completions: sessions arrive
// at a target RPS (Poisson) whether or not earlier ones have finished,
// like independent users hitting a service. Placing the rate past the
// saturation knee makes the collapse measurable: offered load, goodput
// (grants within the SLO per second), shed rate, and the sojourn-time
// distribution, plus an SLO search (the highest offered RPS a
// configuration sustains within a p99 target).
//
// The fabric is the loopback deployment with client ports: two
// in-process daemons on real 127.0.0.1 sockets, half the nodes each,
// serve.Client sessions over the client wire protocol. Runs differ
// only in admission policy — fixed FIFO with an unbounded queue (the
// collapse exhibit) versus Adaptive, whose self-tuned bound sheds
// (DenyOverloaded) before the knee and switches ordering under
// pressure.

// openLoopM is the resource universe; each arrival takes two
// resources, so conflicts are common but not total.
const openLoopM = 32

// openLoopMaxInFlight caps the driver's concurrently outstanding
// arrivals; beyond it arrivals are dropped and counted as shed without
// a wire round trip, bounding driver memory however far past the knee
// a run goes.
const openLoopMaxInFlight = 8192

// OpenLoopConfig parameterizes one open-loop cell.
type OpenLoopConfig struct {
	// Nodes is the cluster size, split across the two daemons.
	Nodes int
	// Policy is each node's admission policy; serve.Adaptive also
	// wires the cluster's load oracle into the client ports, so the
	// daemons shed at the self-tuned bound.
	Policy serve.Policy
	// AdmitTarget is the Adaptive grant-latency target
	// (serve.DefaultAdmitTarget when zero; ignored by fixed policies).
	AdmitTarget time.Duration

	// RPS is the offered arrival rate; arrivals are Poisson (seeded,
	// exponential inter-arrival times).
	RPS  float64
	Seed int64

	// Warmup arrivals prime the fabric and are excluded from every
	// reported number; Window is the measured span. Defaults: 250ms
	// and 1s.
	Warmup, Window time.Duration
	// SLO is the sojourn objective a grant must meet to count toward
	// goodput (default 50ms). A grant delivered after it is wasted
	// work: the collapse exhibit keeps granting at a high rate, but at
	// sojourns no caller would still be waiting for.
	SLO time.Duration
	// Timeout bounds one acquisition (default 1s). A request still
	// unanswered then is withdrawn and counted as timed out, with its
	// sojourn clamped to Timeout — under collapse the queue outgrows
	// the window, and unclamped sojourns would survivorship-bias p99
	// toward the requests that made it.
	Timeout time.Duration
}

func (cfg *OpenLoopConfig) defaults() error {
	if cfg.Nodes < 2 || cfg.Nodes%2 != 0 {
		return fmt.Errorf("openloop: need an even node count ≥ 2, got %d", cfg.Nodes)
	}
	if cfg.RPS <= 0 {
		return fmt.Errorf("openloop: need a positive rate, got %v", cfg.RPS)
	}
	if cfg.Warmup <= 0 {
		cfg.Warmup = 250 * time.Millisecond
	}
	if cfg.Window <= 0 {
		cfg.Window = time.Second
	}
	if cfg.SLO <= 0 {
		cfg.SLO = openLoopSLOTarget
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = time.Second
	}
	if _, err := serve.ParsePolicy(string(cfg.Policy)); err != nil {
		return err
	}
	return nil
}

// OpenLoopResult is one cell's measurement. All counts and rates cover
// the measurement window only (arrivals whose scheduled instant fell
// inside it).
type OpenLoopResult struct {
	// Offered is the realized arrival rate (arrivals/s, including shed
	// and dropped ones). Throughput is all granted acquisitions/s;
	// Goodput only the grants whose sojourn met the cell's SLO — the
	// distinction is the whole point of the driver: a collapsed FIFO queue
	// keeps granting near capacity, but at sojourns no caller would
	// still be waiting for, so its throughput stays flat while its
	// goodput goes to zero.
	Offered, Throughput, Goodput float64
	// Arrivals = Granted + Shed + TimedOut + Dropped; WithinSLO counts
	// the granted acquisitions that met the SLO.
	Arrivals, Granted, WithinSLO, Shed, TimedOut, Dropped int64
	// ShedRate is the fraction of arrivals not granted:
	// (Shed + TimedOut + Dropped) / Arrivals.
	ShedRate float64
	// Sojourn is the arrival→grant distribution in milliseconds.
	// Timed-out requests contribute their clamped Timeout; shed and
	// dropped ones contribute nothing (they fail in microseconds — the
	// point of shedding — and would mask the survivors' tail).
	Sojourn metrics.Summary
}

// startOpenLoop deploys cfg's loopback cluster with client ports.
func startOpenLoop(cfg OpenLoopConfig) (*loopback, error) {
	return startLoopback(live.Config{
		Nodes:       cfg.Nodes,
		Resources:   openLoopM,
		Policy:      cfg.Policy,
		AdmitTarget: cfg.AdmitTarget,
	}, true)
}

// RunOpenLoop assembles a cell and offers cfg.RPS arrivals to it for
// warmup+window, each arrival one AnyNode acquisition of two
// resources, released the moment it is granted (the protocol's
// acquisition cost dominates; hold time would only shift the knee).
func RunOpenLoop(cfg OpenLoopConfig) (OpenLoopResult, error) {
	if err := cfg.defaults(); err != nil {
		return OpenLoopResult{}, err
	}
	lb, err := startOpenLoop(cfg)
	if err != nil {
		return OpenLoopResult{}, err
	}
	defer lb.close()
	return driveOpenLoop(cfg, lb.clients)
}

func driveOpenLoop(cfg OpenLoopConfig, clients []*serve.Client) (OpenLoopResult, error) {
	var (
		granted, withinSLO, shed, timedOut, dropped, arrivals atomic.Int64

		inflight atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		sojourn  metrics.Accum
		firstErr atomic.Value
	)
	record := func(d time.Duration) {
		mu.Lock()
		sojourn.Add(float64(d) / float64(time.Millisecond))
		mu.Unlock()
	}

	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x6f70656e6c6f6f70)) // "openloop"
	interval := func() time.Duration {
		return time.Duration(rng.ExpFloat64() * float64(time.Second) / cfg.RPS)
	}

	start := time.Now()
	end := cfg.Warmup + cfg.Window
	// Arrivals are scheduled on an absolute timeline and sojourns
	// measured from the *scheduled* instant: if the driver or fabric
	// falls behind, the lateness is queueing delay the user would see,
	// not something to hide.
	var n int64
	for next := interval(); next < end; next += interval() {
		at := start.Add(next)
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		inWindow := next >= cfg.Warmup
		if inWindow {
			arrivals.Add(1)
		}
		if inflight.Add(1) > openLoopMaxInFlight {
			inflight.Add(-1)
			if inWindow {
				dropped.Add(1)
			}
			continue
		}
		n++
		r1 := int(n*7) % openLoopM
		r2 := (r1 + 11) % openLoopM
		cl := clients[n%int64(len(clients))]
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer inflight.Add(-1)
			ctx, cancel := context.WithDeadline(context.Background(), at.Add(cfg.Timeout))
			defer cancel()
			opts := serve.AcquireOpts{Resources: []int{r1, r2}}
			if cfg.AdmitTarget > 0 {
				opts.Deadline = at.Add(cfg.AdmitTarget)
			}
			release, err := cl.AcquireWith(ctx, serve.AnyNode, opts)
			switch {
			case err == nil:
				soj := time.Since(at)
				release()
				if inWindow {
					granted.Add(1)
					if soj <= cfg.SLO {
						withinSLO.Add(1)
					}
					record(soj)
				}
			case errors.Is(err, serve.ErrOverloaded):
				if inWindow {
					shed.Add(1)
				}
			case ctx.Err() != nil:
				if inWindow {
					timedOut.Add(1)
					record(cfg.Timeout)
				}
			default:
				firstErr.CompareAndSwap(nil, err)
			}
		}()
	}
	wg.Wait()

	if v := firstErr.Load(); v != nil {
		return OpenLoopResult{}, v.(error)
	}
	sec := cfg.Window.Seconds()
	res := OpenLoopResult{
		Offered:    float64(arrivals.Load()) / sec,
		Throughput: float64(granted.Load()) / sec,
		Goodput:    float64(withinSLO.Load()) / sec,
		Arrivals:   arrivals.Load(),
		Granted:    granted.Load(),
		WithinSLO:  withinSLO.Load(),
		Shed:       shed.Load(),
		TimedOut:   timedOut.Load(),
		Dropped:    dropped.Load(),
		Sojourn:    sojourn.Summary(),
	}
	if res.Arrivals > 0 {
		res.ShedRate = float64(res.Shed+res.TimedOut+res.Dropped) / float64(res.Arrivals)
	}
	return res, nil
}

// CalibrateOpenLoopCapacity estimates the loopback fabric's closed-
// loop capacity (granted acquisitions/s) by running workers
// back-to-back acquire/release cycles for the given duration on a
// fresh FIFO cell. Tests use it to place open-loop rates relative to
// the machine they run on — "3× capacity" is past the knee on any
// hardware, where a fixed rate would be past it on one machine and
// under it on another.
func CalibrateOpenLoopCapacity(nodes, workers int, d time.Duration) (float64, error) {
	cfg := OpenLoopConfig{Nodes: nodes, Policy: serve.FIFO, RPS: 1}
	if err := cfg.defaults(); err != nil {
		return 0, err
	}
	lb, err := startOpenLoop(cfg)
	if err != nil {
		return 0, err
	}
	defer lb.close()
	ctx := context.Background()
	ops, elapsed, err := closedLoop(workers, d, func(w int, i int64) error {
		r1 := int(i+int64(w*7)) % openLoopM
		release, err := lb.clients[w%len(lb.clients)].Acquire(ctx, serve.AnyNode, r1, (r1+11)%openLoopM)
		if err != nil {
			return err
		}
		release()
		return nil
	})
	if err != nil {
		return 0, err
	}
	return float64(ops) / elapsed.Seconds(), nil
}

// Sustains reports whether the cell met the SLO: survivor p99 within
// the target and at most 10% of arrivals lost (shed, timed out or
// dropped) — a configuration that "holds p99" by refusing a third of
// its traffic is not sustaining the offered rate.
func (r OpenLoopResult) Sustains(sloP99 time.Duration) bool {
	return r.Arrivals > 0 &&
		r.Sojourn.P99 <= float64(sloP99)/float64(time.Millisecond) &&
		r.ShedRate <= 0.1
}

// OpenLoopSLO is the result of FindSLO's knee search.
type OpenLoopSLO struct {
	// MaxRPS is the highest offered rate that sustained the SLO (0 if
	// even the base rate failed); Goodput and P99MS are that cell's.
	MaxRPS  float64
	Goodput float64
	P99MS   float64
	// FailRPS is the lowest rate observed failing (0 if the search hit
	// Cap without failing); Cells counts the cells run.
	FailRPS float64
	Cells   int
}

// FindSLO locates the saturation knee of one configuration: starting
// at base RPS it doubles the offered rate until the SLO fails or cap
// is reached, then bisects twice between the last pass and the first
// failure, reusing one cell definition per step (fresh fabric each —
// no cross-step queue leakage). The knee-finding resolution is about
// ±12% of the knee, which is below run-to-run jitter on a loaded
// machine; the regression gate compares against it with a 10% band on
// top.
func FindSLO(cfg OpenLoopConfig, sloP99 time.Duration, base, cap float64) (OpenLoopSLO, error) {
	if base <= 0 || cap < base {
		return OpenLoopSLO{}, fmt.Errorf("openloop: bad SLO search range [%v, %v]", base, cap)
	}
	out := OpenLoopSLO{}
	run := func(rps float64) (OpenLoopResult, error) {
		c := cfg
		c.RPS = rps
		if c.SLO == 0 {
			c.SLO = sloP99 // goodput counts what the search checks
		}
		out.Cells++
		return RunOpenLoop(c)
	}
	pass, fail := 0.0, 0.0
	for rps := base; ; rps *= 2 {
		if rps > cap {
			rps = cap
		}
		res, err := run(rps)
		if err != nil {
			return out, err
		}
		if res.Sustains(sloP99) {
			pass = rps
			out.MaxRPS, out.Goodput, out.P99MS = rps, res.Goodput, res.Sojourn.P99
			if rps >= cap {
				return out, nil
			}
		} else {
			fail = rps
			out.FailRPS = rps
			break
		}
	}
	if pass == 0 {
		return out, nil // even base failed: MaxRPS 0, FailRPS base
	}
	for i := 0; i < 2; i++ {
		mid := (pass + fail) / 2
		res, err := run(mid)
		if err != nil {
			return out, err
		}
		if res.Sustains(sloP99) {
			pass = mid
			out.MaxRPS, out.Goodput, out.P99MS = mid, res.Goodput, res.Sojourn.P99
		} else {
			fail = mid
			out.FailRPS = mid
		}
	}
	return out, nil
}

// openLoopSLOTarget is the open-loop p99 SLO: well above the fabric's
// uncongested sojourn (hundreds of microseconds) and well below the
// collapse signature (sojourns clamped at the 1s timeout), so the
// pass/fail boundary is the knee, not noise.
const openLoopSLOTarget = 50 * time.Millisecond

// openLoopAdmitTarget is the Adaptive grant-latency target of the
// open-loop runs: a fifth of the SLO. Probing showed deeper targets are
// strictly worse here — a deeper admitted queue both lengthens the
// survivors' sojourns and (by slowing every slot's grant/release round
// trip) lowers the admitted rate, so the rest of the SLO is left for
// wire round trips, fan-out and scheduling noise.
const openLoopAdmitTarget = 10 * time.Millisecond
