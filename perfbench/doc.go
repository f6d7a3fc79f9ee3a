// Command perfbench is the repository's benchmark: closed-loop load
// through the whole client-to-daemon stack, client → serve → live →
// core → transport → wire, run inside one process. From the repository
// root:
//
//	bash perfbench/run.sh --workload contended --seed 1 --seconds 10 --trace 0
//
// run.sh builds this package from the checkout's sources (it is a
// module of its own, so `go test ./...` at the root does not see it;
// run its tests with `cd perfbench && go test ./...`). The last line of
// standard output is one JSON object: correct, attempted, failed, and
// the metrics with their units. --trace 0 prints the end-to-end
// metrics, --trace 1 the per-layer ones.
//
// # Deployment
//
// Two daemons run in the benchmark process. Each is what mrallocd
// builds: a transport.TCP on 127.0.0.1, a live.Cluster running
// counter-loan with FIFO admission and mrallocd's default wire options
// (delta-encoded token state), and a serve.Server client port. The
// daemons host half the nodes each and peer over loopback TCP; each has
// one serve.Client connected to its client port. No delay is injected,
// so a latency here is processor time plus loopback time, not network
// time. GOMAXPROCS is at most 2, so results do not depend on how many
// cores the machine has beyond that.
//
// # Load
//
// The load is closed-loop: every caller is a goroutine that sends its
// next Client.Acquire only after the previous one was granted, held and
// released. That is how lock users behave, since they wait for the
// grant before doing their work, and it means a slower system receives
// less load instead of a growing queue. All callers of a daemon share
// its one client connection. Each caller's request stream comes from
// --seed and its caller number alone; the program only receives the
// requests.
//
// # Workloads
//
//   - contended: N=8 nodes, M=80 resources, one shard, 16 callers (2 per
//     node). A request has a size uniform in [1,16] and that many
//     distinct resources uniform over M, the paper's §5.1 φ=16 and M=80,
//     and is held for a time uniform in [200µs, 1ms]. core's
//     synchronization and the peer transport/wire traffic do most of the
//     work: this is the paper's setting.
//   - local: N=4, M=1024, 16 callers. Each request is one resource of
//     the caller's node's residue class (r mod N = node), released as
//     soon as it is granted. Once each token has moved home (about 1500
//     messages, early in the window) core sends nothing, and serve, the
//     live event loops and the client-port wire do all the work. It is
//     the twin of contended that bypasses the protocol.
//   - sharded: the contended draw on G=4 shards with ordered cross-shard
//     locking. Most requests span two or more shards, so it runs live's
//     cross-shard composition and the per-shard tagged streams of
//     transport and wire. Its G=1 twin, contended, bypasses both, so a
//     change unifying the flat and sharded paths shows on each.
//   - lossy: the contended draw on the stack `mrallocd -reliable
//     -lease-ttl` runs, live → Reliable (retransmit 2–50ms) → Chaos
//     (2% drop, 2% duplication, fixed seeds) → TCP, with a 250ms token
//     lease TTL and a 20ms tick, the recovery tier's settings. It is the
//     only workload that runs transport.Reliable and core's leases. With
//     leases armed, multi-resource requests wedge the whole cluster
//     within seconds (every node has a request in flight and none is
//     granted again), so its figures are not steady and it is left out
//     of the BENCHMARK.json set until that is fixed; the stall watchdog
//     reports the wedge and dumps the node state when it happens.
//
// # End-to-end metrics (--trace 0)
//
//   - cs_per_s: critical sections completed per second of the window.
//   - acquire_p50_ms, acquire_p99_ms: from the Client.Acquire call to
//     the grant's return; the sample count is printed above the JSON.
//   - use_rate: Σ(hold time × set size) / (M × window), the paper's
//     resource use rate. Hold time runs from the grant's return to the
//     release call. On local, where nothing is held, it is only the
//     caller's own bookkeeping between grant and release, reported
//     because every workload reports every metric.
//   - msgs_per_cs: protocol messages sent, from Stats() of both daemons'
//     transport stacks, per critical section: the paper's
//     synchronization cost.
//   - grant_ratio: acquires granted over acquires attempted, that is
//     1 − fail_ratio. An acquire fails when it returns an error or runs
//     out its 5s timeout. It is reported this way round so that the
//     metric is never 0; attempted and failed are in the JSON too.
//   - cpu_us_per_cs: process user plus system CPU time over the window,
//     per critical section, the generator included.
//   - heap_peak_mb: peak HeapInuse over the window, sampled every 20ms.
//   - setup_s: from the start of a deployment until both daemons listen,
//     every node has been granted once and both peer links have
//     negotiated. Each run deploys 21 times, 50ms apart, and reports the
//     median; the last deployment is the one measured.
//
// Every run checks exclusivity from the client side: each resource has
// an owner slot that a grant moves from free to the caller with a
// compare-and-swap and the caller clears before it releases. Any
// failed swap is a violation and makes the run incorrect.
//
// # Per-layer metrics (--trace 1)
//
// A traced run measures half the window on a plain deployment and half
// on one whose layers are wrapped from this package's files (trace.go):
// the client call, ServerConfig.Open for the backend session, an
// alg.Factory for the protocol nodes and their Env, and the transport
// handed to live.Config. The wrappers keep the optional faces of what
// they wrap (alg.Ticker and alg.Drainer; transport.ShapeValidator,
// WireTuner, Sharder, BatchSender, LossRecoverer and ConnKiller), so
// live takes the same path with and without them. Counters the program
// keeps itself are read over the plain half; spans and the wrappers'
// counts over the traced half. Each metric, and the end-to-end metric
// it should move:
//
//   - serve.self_ms_p50/p99: the client Acquire span minus its backend
//     Acquire span (acquire_p50_ms and cpu_us_per_cs on local);
//     serve.writes_per_cs and serve.frames_per_write, from
//     Server.WireStats and Client.WireStats (cpu_us_per_cs, cs_per_s on
//     local).
//   - live.acquire_ms_p50/p99: the backend Session.Acquire span;
//     live.admit_ms_p50/p99: from its start to the request's first
//     alg.Node.Request, the admission queue and mailbox (acquire_p99_ms
//     on local and contended); live.queue_depth_mean, Cluster.QueueLen
//     per node every 20ms; live.cross_ms_p50: for requests spanning
//     shards, the Session.Acquire span minus the union of its per-shard
//     core.sync spans (cs_per_s on sharded; 0 where no request spans
//     shards).
//   - core.sync_ms_p50/p99: Request to Env.Granted, the paper's
//     synchronization wait (acquire_p99_ms, cs_per_s on contended and
//     sharded; near 0 on local); core.sends_per_cs (msgs_per_cs on
//     contended); core.deliver_us_mean and core.delivers_per_cs
//     (cpu_us_per_cs on contended); core.hold_ms_p50, Granted to
//     Release, which checks the drawn hold time arrives;
//     core.loans_granted_per_kcs, core.heartbeats_per_cs,
//     core.regens_per_kcs and core.fenced_per_kcs from core.Counters
//     through Cluster.InspectShard (the lease counters should move
//     grant_ratio and acquire_p99_ms on lossy).
//   - transport.send_calls_per_cs, transport.msgs_per_send and
//     transport.send_us_mean, from the transport wrapper (cs_per_s on
//     contended and sharded); transport.retransmits_per_cs,
//     dups_dropped_per_cs and acks_per_cs from RelStats, and
//     chaos_dropped_per_cs from ChaosStats (acquire_p99_ms on lossy).
//   - wire.writes_per_cs, wire.bytes_per_cs, wire.frames_per_write and
//     wire.stalls_per_kcs: TCP.WireStats of the peer links
//     (cpu_us_per_cs, cs_per_s on contended and sharded; near 0 on
//     local).
//   - proc.allocs_per_cs and proc.gc_cycles_per_kcs (cpu_us_per_cs on
//     local).
//   - gen.stalls and gen.stall_s_max: every interval of at least 1s in
//     which acquires were outstanding and none was granted. The first
//     one dumps each node's queue and protocol counters to standard
//     error.
//   - trace.overhead_pct: how much lower the traced half's cs_per_s is
//     than the plain half's.
//
// Out of reach from outside the program, and left for tracing inside
// it: the coalescer queue plus flush delay, the write syscall, and the
// retransmit wait per message.
//
// # The legacy grid
//
// The BENCH_*.json reports and cmd/bench stay as they are, because CI
// gates read them. Their rows are go test benchmarks of single layers
// on other cluster shapes, several copied forward from older reports;
// they are not comparable with this benchmark's numbers.
package main
