// Command pliant-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	pliant-bench                 # run every experiment at the fast profile
//	pliant-bench -only fig5      # one experiment
//	pliant-bench -list           # list experiment IDs
//	pliant-bench -full           # paper-scale parameters (hours of CPU)
//	pliant-bench -seed 7 -par 8  # override seed / parallelism
//
// Performance is measured elsewhere: the Benchmark* functions under
// `go test -bench`, and the repo benchmark in perfbench/.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	pliant "github.com/approx-sched/pliant"
)

func main() {
	var (
		only    = flag.String("only", "", "run a single experiment by ID")
		list    = flag.Bool("list", false, "list experiment IDs and exit")
		full    = flag.Bool("full", false, "paper-scale parameters (all 24 apps, real rates, all combinations)")
		seed    = flag.Uint64("seed", 0, "override the root seed")
		par     = flag.Int("par", 0, "parallel scenario workers (default GOMAXPROCS)")
		allApps = flag.Bool("allapps", false, "cover all 24 applications at the fast timescale")
		showVer = flag.Bool("version", false, "print the build identity and exit")
	)
	flag.Parse()

	if *showVer {
		fmt.Println(pliant.Version())
		return
	}

	if *list {
		for _, e := range pliant.Experiments() {
			fmt.Printf("%-11s %s\n", e.ID, e.Title)
		}
		return
	}

	profile := pliant.FastProfile()
	if *full {
		profile = pliant.FullProfile()
	}
	if *seed != 0 {
		profile.Seed = *seed
	}
	if *allApps {
		profile.Apps = nil // nil = the full 24-application catalog
	}
	if *par != 0 {
		profile.Parallelism = *par
	}

	entries := pliant.Experiments()
	if *only != "" {
		filtered := entries[:0]
		for _, e := range entries {
			if e.ID == *only {
				filtered = append(filtered, e)
			}
		}
		if len(filtered) == 0 {
			fmt.Fprintf(os.Stderr, "pliant-bench: unknown experiment %q (try -list)\n", *only)
			os.Exit(1)
		}
		entries = filtered[:1]
	}

	fmt.Printf("pliant-bench: profile=%s timescale=%.0fx seed=%d\n\n",
		profile.Name, profile.TimeScale, profile.Seed)
	for _, e := range entries {
		start := time.Now()
		fmt.Printf("=== %s — %s\n", e.ID, e.Title)
		res, err := e.Run(profile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pliant-bench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Println(res.Render())
		fmt.Printf("--- %s done in %v\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
