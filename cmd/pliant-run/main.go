// Command pliant-run executes one colocation scenario and reports the
// outcome, optionally with the per-interval trace — the workflow of the
// paper's dynamic-behavior studies (Figs. 4 and 6).
//
// Usage:
//
//	pliant-run -service memcached -apps canneal
//	pliant-run -service nginx -apps canneal,Bayesian -runtime pliant -trace
//	pliant-run -service mongodb -apps SNP -runtime precise -load 0.6
//	pliant-run -timescale 16 -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	pliant "github.com/approx-sched/pliant"
	"github.com/approx-sched/pliant/internal/cliprof"
)

func main() {
	var (
		svcName  = flag.String("service", "memcached", "interactive service: nginx, memcached, mongodb")
		apps     = flag.String("apps", "canneal", "comma-separated approximate applications (see -apps list)")
		runtime  = flag.String("runtime", "pliant", "runtime: pliant, precise, static-approx, impact-aware, learner")
		load     = flag.Float64("load", 0.78, "offered load as a fraction of saturation")
		interval = flag.Float64("interval", 1.0, "decision interval in seconds")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		scale    = flag.Float64("timescale", 1, "request-timescale multiplier (16 = fast profile)")
		trace    = flag.Bool("trace", false, "print the per-interval trace")
		jsonOut  = flag.String("json", "", "write the result as JSON to a file ('-' for stdout)")
		csvOut   = flag.String("csv", "", "write the per-interval trace as CSV to a file ('-' for stdout)")
		hints    = flag.String("hints", "", "load an ACCEPT-style hints file; its app becomes available to -apps")
		showVer  = flag.Bool("version", false, "print the build identity and exit")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to a file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile to a file when the run ends")
	)
	flag.Parse()

	if *showVer {
		fmt.Println(pliant.Version())
		return
	}

	if *apps == "list" {
		for _, p := range pliant.Applications() {
			fmt.Printf("%-17s %-10s %4.0fs nominal, %d variants max, %s\n",
				p.Name, p.Suite, p.NominalExecSec, p.MaxVariants, p.QualityMetric)
		}
		return
	}

	stopProf, err := cliprof.Start(*cpuProf, *memProf)
	if err != nil {
		fail(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fail(err)
		}
	}()

	cls, err := parseService(*svcName)
	if err != nil {
		fail(err)
	}
	rt, err := parseRuntime(*runtime)
	if err != nil {
		fail(err)
	}

	var custom []pliant.AppProfile
	if *hints != "" {
		f, err := os.Open(*hints)
		if err != nil {
			fail(err)
		}
		prof, err := pliant.ParseHints(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		custom = append(custom, prof)
	}

	cfg := pliant.ScenarioConfig{
		Seed:             *seed,
		Service:          cls,
		AppNames:         strings.Split(*apps, ","),
		Runtime:          rt,
		LoadFraction:     *load,
		DecisionInterval: pliant.Duration(*interval * float64(pliant.Second)),
		TimeScale:        *scale,
		CustomApps:       custom,
	}
	res, err := pliant.RunScenario(cfg)
	if err != nil {
		fail(err)
	}

	fmt.Printf("service   %s (QoS %v), runtime %s, load %.0f%%\n",
		res.Service, res.QoS, res.Runtime, *load*100)
	fmt.Printf("tail      p99 %v (%.2fx QoS overall, %.2fx steady), max interval %v\n",
		res.OverallP99, res.P99OverQoS(), res.TypicalOverQoS(), res.MaxIntervalP99)
	fmt.Printf("intervals %d total, %.0f%% violating; served %d, dropped %d, duration %v\n",
		res.Intervals, res.ViolationFrac*100, res.Served, res.Dropped, res.Duration)
	for _, a := range res.Apps {
		fmt.Printf("app       %-17s done=%-5v exec %v (%.2fx nominal), inaccuracy %.2f%%, "+
			"switches %d, max cores yielded %d\n",
			a.Name, a.Done, a.ExecTime, a.RelNominal, a.Inaccuracy, a.Switches, a.MaxYielded)
	}

	if *jsonOut != "" {
		if err := writeTo(*jsonOut, func(w *os.File) error { return pliant.WriteResultJSON(w, res) }); err != nil {
			fail(err)
		}
	}
	if *csvOut != "" {
		if err := writeTo(*csvOut, func(w *os.File) error { return pliant.WriteTraceCSV(w, res) }); err != nil {
			fail(err)
		}
	}

	if *trace {
		fmt.Println("\n  t(s)  p99/QoS  svc.cores  per-app (variant,yielded)")
		p99 := res.Trace.Series("p99")
		svcCores := res.Trace.Series("svc.cores")
		for i, pt := range p99.Points {
			fmt.Printf("  %4.0f  %7.2f  %9.0f ", pt.T, pt.V, svcCores.Points[i].V)
			for _, a := range res.Apps {
				v := res.Trace.Series("variant." + a.Name).Points[i].V
				y := res.Trace.Series("yielded." + a.Name).Points[i].V
				fmt.Printf("  %s(%.0f,%.0f)", a.Name, v, y)
			}
			fmt.Println()
		}
	}
}

func parseService(name string) (pliant.ServiceClass, error) {
	switch name {
	case "nginx":
		return pliant.NGINX, nil
	case "memcached":
		return pliant.Memcached, nil
	case "mongodb":
		return pliant.MongoDB, nil
	default:
		return 0, fmt.Errorf("unknown service %q (nginx, memcached, mongodb)", name)
	}
}

func parseRuntime(name string) (pliant.RuntimeKind, error) {
	switch name {
	case "pliant":
		return pliant.RuntimePliant, nil
	case "precise":
		return pliant.RuntimePrecise, nil
	case "static-approx":
		return pliant.RuntimeStaticApprox, nil
	case "impact-aware":
		return pliant.RuntimeImpactAware, nil
	case "learner":
		return pliant.RuntimeLearner, nil
	default:
		return 0, fmt.Errorf("unknown runtime %q", name)
	}
}

// writeTo writes through fn to a path, "-" meaning stdout.
func writeTo(path string, fn func(*os.File) error) error {
	if path == "-" {
		return fn(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "pliant-run: %v\n", err)
	os.Exit(1)
}
