package main

import (
	"math/rand/v2"
	"time"
)

// workload is one traffic mix: the cluster it runs on and the requests
// its callers draw. Why each one exists is in the package doc.
type workload struct {
	name      string
	nodes     int // N, split evenly over the two daemons
	resources int // M
	shards    int // G
	callers   int // closed-loop callers, spread evenly over the nodes
	// phi > 0 draws a size uniform in [1, phi] and that many distinct
	// resources uniform over M. phi == 0 draws one resource from the
	// caller's node's residue class (r mod N == node).
	phi              int
	holdMin, holdMax time.Duration
	// lossy runs the stack `mrallocd -reliable -lease-ttl` runs:
	// live → Reliable → Chaos → TCP with token leases armed.
	lossy bool
}

var contended = workload{
	name: "contended", nodes: 8, resources: 80, shards: 1, callers: 16,
	phi: 16, holdMin: 200 * time.Microsecond, holdMax: time.Millisecond,
}

var workloads = map[string]workload{
	"contended": contended,
	"local": {
		name: "local", nodes: 4, resources: 1024, shards: 1, callers: 16,
	},
	"sharded": func() workload { w := contended; w.name, w.shards = "sharded", 4; return w }(),
	"lossy":   func() workload { w := contended; w.name, w.lossy = "lossy", true; return w }(),
}

// nodeOf maps caller c to the node it acquires through.
func (w workload) nodeOf(c int) int { return c % w.nodes }

// request is one drawn acquisition: the resources, and how long the
// caller holds them once granted.
type request struct {
	res  []int
	hold time.Duration
}

// stream is one caller's request sequence. It depends only on the
// workload, the seed and the caller, never on timing, so a seed fixes
// every request the program receives.
type stream struct {
	w    workload
	node int
	rng  *rand.Rand
	perm []int // partial Fisher–Yates buffer over the M resources
}

func newStream(w workload, seed int64, caller int) *stream {
	s := &stream{
		w:    w,
		node: w.nodeOf(caller),
		rng:  rand.New(rand.NewPCG(uint64(seed), uint64(caller))),
	}
	if w.phi > 0 {
		s.perm = make([]int, w.resources)
		for i := range s.perm {
			s.perm[i] = i
		}
	}
	return s
}

// next draws the caller's next request. The returned slice is reused
// by the following call.
func (s *stream) next() request {
	if s.w.phi == 0 {
		r := s.node + s.w.nodes*s.rng.IntN(s.w.resources/s.w.nodes)
		s.perm = append(s.perm[:0], r)
		return request{res: s.perm}
	}
	k := 1 + s.rng.IntN(s.w.phi)
	for i := 0; i < k; i++ {
		j := i + s.rng.IntN(len(s.perm)-i)
		s.perm[i], s.perm[j] = s.perm[j], s.perm[i]
	}
	span := int64(s.w.holdMax - s.w.holdMin)
	hold := s.w.holdMin + time.Duration(s.rng.Int64N(span+1))
	return request{res: s.perm[:k], hold: hold}
}
