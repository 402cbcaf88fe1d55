// Command pcopt computes optimal (or certified lower-bound) stall times for
// an instance read from standard input.
//
// Usage:
//
//	pcgen -n 12 -blocks 6 -k 3 -f 2 -disks 2 | pcopt -method exhaustive
//	pcgen -n 12 -blocks 6 -k 3 -f 2 -disks 2 | pcopt -full
//	pcgen -n 40 -blocks 16 -k 4 -f 6 -disks 3 | pcopt
//	pcgen -n 40 -blocks 10 -k 4 -f 3 -disks 2 | pcopt -method lp
//
// The exhaustive method runs the A* search of internal/opt (exact but
// exponential in the worst case); -full, -max-states and -dijkstra expose the
// engine's knobs, and the search counters are printed after the result.
// -dijkstra gives the blind reference search.  The lp method runs the
// Theorem 4 pipeline of the paper and reports both the fractional lower
// bound and the extracted schedule's stall time.
package main

import (
	"flag"
	"fmt"
	"os"

	"pfcache/internal/lp"
	"pfcache/internal/lpmodel"
	"pfcache/internal/opt"
	"pfcache/internal/workload"
)

func main() {
	method := flag.String("method", "exhaustive", "method: exhaustive or lp")
	extra := flag.Int("extra-cache", 0, "extra cache locations beyond k (exhaustive method)")
	full := flag.Bool("full", false, "full branching over every missing block and eviction victim (validates the pruned mode on small instances)")
	maxStates := flag.Int("max-states", 0, fmt.Sprintf("state budget of the search (0 = default %d)", opt.DefaultMaxStates))
	dijkstra := flag.Bool("dijkstra", false, "disable the A* heuristic (uniform-cost order: the blind reference search)")
	showSchedule := flag.Bool("schedule", false, "print the optimal schedule")
	flag.Parse()

	in, err := workload.Parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	switch *method {
	case "exhaustive":
		res, err := opt.Optimal(in, opt.Options{
			ExtraCache:  *extra,
			Full:        *full,
			MaxStates:   *maxStates,
			NoHeuristic: *dijkstra,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("instance: %v\n", in)
		fmt.Printf("optimal stall time: %d\n", res.Stall)
		fmt.Printf("optimal elapsed time: %d\n", res.Elapsed)
		fmt.Printf("states expanded: %d\n", res.StatesExpanded)
		fmt.Printf("states generated: %d\n", res.StatesGenerated)
		fmt.Printf("duplicate hits: %d\n", res.DuplicateHits)
		fmt.Printf("peak table size: %d\n", res.PeakTableSize)
		if *showSchedule {
			fmt.Println("schedule:")
			fmt.Println(res.Schedule)
		}
	case "lp":
		res, err := lpmodel.Plan(in, lp.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("instance: %v\n", in)
		fmt.Printf("LP lower bound on stall time: %.3f\n", res.LowerBound)
		fmt.Printf("extracted schedule stall time: %d\n", res.Stall)
		fmt.Printf("extra cache locations used: %d (budget 2(D-1) = %d)\n", res.ExtraCache, 2*(in.Disks-1))
		fmt.Printf("LP size: %d variables, %d constraints, %d pivots\n",
			res.LPVariables, res.LPConstraints, res.LPIterations)
		if *showSchedule {
			fmt.Println("schedule:")
			fmt.Println(res.Schedule)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown method %q\n", *method)
		os.Exit(2)
	}
}
