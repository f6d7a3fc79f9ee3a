package bench

import (
	"testing"
	"time"

	"mralloc/internal/serve"
)

func TestOpenLoopConfigValidation(t *testing.T) {
	if _, err := RunOpenLoop(OpenLoopConfig{Nodes: 3, Policy: serve.FIFO, RPS: 100}); err == nil {
		t.Error("odd node count accepted")
	}
	if _, err := RunOpenLoop(OpenLoopConfig{Nodes: 4, Policy: serve.FIFO}); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := RunOpenLoop(OpenLoopConfig{Nodes: 4, Policy: "bogus", RPS: 100}); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := FindSLO(OpenLoopConfig{Nodes: 4, Policy: serve.FIFO}, time.Second, 1000, 500); err == nil {
		t.Error("inverted SLO search range accepted")
	}
}

// TestOpenLoopCollapseVsAdaptive is the adaptive policy's twin
// exhibit: offered load strictly past capacity collapses an unbounded
// FIFO queue (p99 at timeout scale) while the Adaptive policy sheds early and holds
// the survivors' p99 inside the SLO — at a goodput (grants within the
// SLO) no worse than FIFO's, whose grants arrive too late to count.
// The rate is placed relative to this machine's measured closed-loop
// capacity, so the cell is past the knee on any hardware.
func TestOpenLoopCollapseVsAdaptive(t *testing.T) {
	if testing.Short() {
		t.Skip("open-loop cells need real wall-clock windows")
	}
	capacity, err := CalibrateOpenLoopCapacity(4, 16, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	rate := 1.1 * capacity
	t.Logf("closed-loop capacity ≈ %.0f/s, offering %.0f/s", capacity, rate)
	run := func(policy serve.Policy) OpenLoopResult {
		cfg := OpenLoopConfig{Nodes: 4, Policy: policy, RPS: rate, Seed: 7,
			Warmup: 200 * time.Millisecond, Window: 600 * time.Millisecond,
			Timeout: 500 * time.Millisecond}
		if policy == serve.Adaptive {
			cfg.AdmitTarget = openLoopAdmitTarget
		}
		res, err := RunOpenLoop(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%-8s offered=%.0f grant=%.0f goodput=%.0f shed=%.3f p50=%.1f p99=%.1fms",
			policy, res.Offered, res.Throughput, res.Goodput, res.ShedRate,
			res.Sojourn.P50, res.Sojourn.P99)
		return res
	}
	fifo := run(serve.FIFO)
	adaptive := run(serve.Adaptive)

	slo := float64(openLoopSLOTarget) / float64(time.Millisecond)
	if fifo.Sojourn.P99 < 3*slo {
		t.Errorf("FIFO past the knee should collapse: p99 = %.1fms, want ≥ %.0fms", fifo.Sojourn.P99, 3*slo)
	}
	if adaptive.Sojourn.P99 > 3*slo {
		t.Errorf("adaptive p99 = %.1fms, want ≤ %.0fms", adaptive.Sojourn.P99, 3*slo)
	}
	if adaptive.Goodput < fifo.Goodput {
		t.Errorf("adaptive goodput %.0f/s below FIFO's %.0f/s", adaptive.Goodput, fifo.Goodput)
	}
	if adaptive.Shed == 0 {
		t.Error("adaptive shed nothing past the knee — it must deny, not queue unboundedly")
	}
	if fifo.Shed != 0 {
		t.Errorf("unbounded FIFO has no shedding edge, yet shed %d", fifo.Shed)
	}
}

const (
	// committedAdaptiveSLO is the adaptive policy's highest offered
	// rate sustained within the SLO, as recorded when the open-loop
	// driver landed (commit b17abee: 24,000 RPS from a 1,000–32,000 RPS
	// search).
	committedAdaptiveSLO = 24000.0
	// sloSearchCap caps TestOpenLoopSmoke's search and its floor, so
	// the gate checks that the fabric still sustains a modest rate
	// within the SLO, not that this machine is as fast as the one that
	// made the record.
	sloSearchCap = 6000.0
)

// TestOpenLoopSmoke is the adaptive capped SLO search: on this machine
// the adaptive policy must sustain at least 90% of min(the recorded
// rate, the search cap) within the SLO.
func TestOpenLoopSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("SLO search needs real wall-clock windows")
	}
	cfg := OpenLoopConfig{Nodes: 4, Policy: serve.Adaptive, AdmitTarget: openLoopAdmitTarget, Seed: 7,
		Warmup: 200 * time.Millisecond, Window: 600 * time.Millisecond, Timeout: 500 * time.Millisecond}
	slo, err := FindSLO(cfg, openLoopSLOTarget, 750, sloSearchCap)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("adaptive sustains %.0f RPS within %v (goodput %.0f/s, p99 %.1fms, %d cells; recorded %.0f)",
		slo.MaxRPS, openLoopSLOTarget, slo.Goodput, slo.P99MS, slo.Cells, committedAdaptiveSLO)
	if want := min(committedAdaptiveSLO, sloSearchCap); slo.MaxRPS < 0.9*want {
		t.Errorf("sustained RPS at SLO regressed: %.0f < 90%% of %.0f", slo.MaxRPS, want)
	}
}
