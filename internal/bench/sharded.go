package bench

import (
	"context"
	"errors"
	"time"

	"mralloc/internal/core"
	"mralloc/internal/live"
	"mralloc/internal/metrics"
)

// The sharded twins: the same contended workload on the same cluster
// shape (N nodes, M resources, the in-process fabric with a fixed
// per-link delivery latency), varying only the shard count G or the
// cross-shard strategy. The latency fabric serializes each (shard,
// sender, destination) link — one delivery per 200µs — so a flat
// universe funnels every block's protocol traffic through one link
// pair while G shards pipeline G link pairs; the twins price exactly
// that as critical sections per second.
//
// The workload is identical across G: the M=64 universe is cut into 16
// G16-aligned blocks of 4, every draw stays inside its worker's block
// (single draws) or spans a fixed block pair (cross draws), and the
// resource ids drawn at operation i do not depend on G. Two workers
// per block — one per node — contend for it, so tokens ping-pong over
// the fabric on every critical section and the links stay on the
// critical path; without the contention the loan protocol parks the
// tokens locally and every run collapses to the message-free fast
// path.
const (
	shardedM       = 64
	shardedBlocks  = 16 // one block = one G16 shard
	shardedBlockSz = shardedM / shardedBlocks
	shardedLatency = 200 * time.Microsecond
)

// shardedDraw yields worker w's resource pair at operation i. The
// draw must not depend on G — that is what makes runs comparable.
type shardedDraw func(w int, i int64) (r1, r2 int)

// singleDraw keeps both resources inside worker w's own block, so the
// acquisition is single-shard at every G.
func singleDraw(w int, i int64) (int, int) {
	lo := (w / 2) * shardedBlockSz
	return lo + int(i)%shardedBlockSz, lo + (int(i)+2)%shardedBlockSz
}

// crossDraw spans blocks p and p+8: different shards at G=4 (shards
// p/4 and p/4+2) and at G=16 (shards p and p+8), one part at G=1.
func crossDraw(w int, i int64) (int, int) {
	p := w / 2
	return p*shardedBlockSz + int(i)%shardedBlockSz,
		(p+shardedBlocks/2)*shardedBlockSz + int(i)%shardedBlockSz
}

// shardedResult is one run's throughput, protocol cost and acquire
// wait (Acquire call to grant, milliseconds).
type shardedResult struct {
	csPerSec, msgsPerCS float64
	wait                metrics.Summary
}

// runSharded drives workers callers through acquire/release cycles of
// draw for d on a two-node latency-fabric cluster of g shards.
func runSharded(g int, twoPhase bool, workers int, draw shardedDraw, d time.Duration) (shardedResult, error) {
	c, err := live.New(live.Config{
		Nodes:              2,
		Resources:          shardedM,
		Latency:            shardedLatency,
		Shards:             g,
		CrossShardTwoPhase: twoPhase,
	}, core.NewFactory(core.WithLoan()))
	if err != nil {
		return shardedResult{}, err
	}
	defer c.Close()
	ctx := context.Background()
	msgs0 := sumStats(c.Stats())
	// One accumulator per worker, merged after the run.
	waits := make([]metrics.Accum, workers)
	ops, elapsed, err := closedLoop(workers, d, func(w int, i int64) error {
		r1, r2 := draw(w, i)
		start := time.Now()
		release, err := c.Acquire(ctx, w%2, r1, r2)
		if err != nil {
			return err
		}
		waits[w].Add(float64(time.Since(start)) / float64(time.Millisecond))
		release()
		return nil
	})
	if err != nil {
		return shardedResult{}, err
	}
	if ops == 0 {
		return shardedResult{}, errors.New("sharded: no critical section completed")
	}
	var wait metrics.Accum
	for i := range waits {
		wait.Merge(&waits[i])
	}
	return shardedResult{
		csPerSec:  float64(ops) / elapsed.Seconds(),
		msgsPerCS: float64(sumStats(c.Stats())-msgs0) / float64(ops),
		wait:      wait.Summary(),
	}, nil
}

func sumStats(m map[string]int64) int64 {
	var total int64
	for _, v := range m {
		total += v
	}
	return total
}
