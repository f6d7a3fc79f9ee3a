package main

import (
	"reflect"
	"slices"
	"testing"
)

// draw returns the first n requests of one caller's stream, copied out
// of the stream's reused buffer.
func draw(w workload, seed int64, caller, n int) []request {
	st := newStream(w, seed, caller)
	out := make([]request, n)
	for i := range out {
		r := st.next()
		out[i] = request{res: slices.Clone(r.res), hold: r.hold}
	}
	return out
}

func TestStreamIsFixedBySeed(t *testing.T) {
	for name, w := range workloads {
		for c := 0; c < w.callers; c++ {
			a, b := draw(w, 7, c, 300), draw(w, 7, c, 300)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s caller %d: seed 7 drew two different streams", name, c)
			}
			if reflect.DeepEqual(a, draw(w, 8, c, 300)) {
				t.Fatalf("%s caller %d: seeds 7 and 8 drew the same stream", name, c)
			}
		}
		if reflect.DeepEqual(draw(w, 7, 0, 300), draw(w, 7, 1, 300)) {
			t.Fatalf("%s: callers 0 and 1 drew the same stream", name)
		}
	}
}

func TestStreamShape(t *testing.T) {
	for name, w := range workloads {
		for c := 0; c < w.callers; c++ {
			node := w.nodeOf(c)
			for i, r := range draw(w, 3, c, 500) {
				if w.phi == 0 {
					if len(r.res) != 1 || r.res[0]%w.nodes != node || r.hold != 0 {
						t.Fatalf("%s caller %d request %d: %v, want one resource ≡ %d mod %d held 0",
							name, c, i, r, node, w.nodes)
					}
					continue
				}
				seen := map[int]bool{}
				for _, id := range r.res {
					if id < 0 || id >= w.resources || seen[id] {
						t.Fatalf("%s caller %d request %d: bad or repeated resource in %v", name, c, i, r.res)
					}
					seen[id] = true
				}
				if len(r.res) < 1 || len(r.res) > w.phi || r.hold < w.holdMin || r.hold > w.holdMax {
					t.Fatalf("%s caller %d request %d: %d resources held %v, want [1,%d] held [%v,%v]",
						name, c, i, len(r.res), r.hold, w.phi, w.holdMin, w.holdMax)
				}
			}
		}
	}
}
