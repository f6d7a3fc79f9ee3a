// Command sweep runs the extension (E) and ablation (A) experiments
// defined in internal/experiments:
//
//	sweep -exp threshold   # E1: loan threshold (the paper's future work)
//	sweep -exp cloud       # E2: two-zone hierarchical topology
//	sweep -exp markfn      # A1: choice of the scheduling function A
//	sweep -exp opts        # A2: §4.2.2/§4.6 optimization toggles
//	sweep -exp msgs        # message complexity incl. the broadcast baseline
//	sweep -exp fairness    # Jain fairness of per-site service
//	sweep -exp hotspot     # Zipf-skewed resource popularity
//	sweep -exp all
package main

import (
	"flag"
	"fmt"
	"os"

	"mralloc/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment: threshold cloud markfn opts msgs fairness hotspot all")
	scale := flag.String("scale", "std", "simulation scale: quick std full")
	csv := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	flag.Parse()

	sc, ok := map[string]experiments.Scale{
		"quick": experiments.Quick,
		"std":   experiments.Std,
		"full":  experiments.Full,
	}[*scale]
	if !ok {
		fmt.Fprintf(os.Stderr, "sweep: unknown scale %q\n", *scale)
		os.Exit(2)
	}

	type entry struct {
		name string
		run  func(experiments.Scale) (experiments.Table, error)
	}
	entries := []entry{
		{"threshold", experiments.ThresholdSweep},
		{"cloud", experiments.CloudExperiment},
		{"markfn", experiments.MarkSweep},
		{"opts", experiments.OptsSweep},
		{"msgs", experiments.MessageComplexity},
		{"fairness", experiments.FairnessSweep},
		{"hotspot", experiments.HotspotSweep},
	}
	ran := 0
	for _, e := range entries {
		if *exp != "all" && *exp != e.name {
			continue
		}
		ran++
		tab, err := e.run(sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		if *csv {
			fmt.Print(tab.CSV())
		} else {
			fmt.Println(tab.String())
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "sweep: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
