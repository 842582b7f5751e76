// Command perfbench is the repository benchmark: it runs one named workload
// against the pliant packages for a fixed wall-clock budget, checks the
// program's outputs, and prints every metric by name with its unit. The last
// line of standard output is the machine-readable result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The metric names and units come from BENCHMARK.json at the repository root,
// and every workload reports all of them. With -trace 0 the metrics are the
// end-to-end ones, which every workload measures in its own terms; with
// -trace 1 the run records spans around every call into the program and the
// metrics are the per-layer ones, 0 for a layer the workload does not reach
// (the end-to-end figures of the traced run are printed on the report line
// above it, so the tracing overhead can be read against an untraced run).
//
// Run it from the repository root through run.sh, which builds this package:
//
//	bash perfbench/run.sh --workload colocate --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/approx-sched/pliant/internal/app"
	"github.com/approx-sched/pliant/internal/dse"
)

// maxProcs caps the scheduler at two cores so results from larger hosts stay
// comparable with the two-core machines the bounds were fixed on, and so the
// two shards of cluster-day and daemon each have a core.
const maxProcs = 2

// setupSamples is how many cold set-ups setup_s takes the median of.
const setupSamples = 7

// state is a set-up workload ready to be measured.
type state interface {
	run(budget time.Duration, tr *tracer) (*outcome, error)
	close()
}

// setupFunc builds everything a workload's timed loop needs from the seed.
type setupFunc func(seed uint64, tr *tracer) (state, error)

var workloads = map[string]setupFunc{
	"colocate":    setupColocate,
	"cluster-day": setupClusterDay,
	"daemon":      setupDaemon,
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run returns: the result line's fields plus the
// end-to-end and per-layer metrics and any failed output checks.
type outcome struct {
	attempted int
	failed    int
	checks    []string // failed check descriptions
	e2e       map[string]metric
	layer     map[string]metric
	// ops lists wall and CPU seconds per timed operation, for the report.
	opWall, opCPU []float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]metric{}, layer: map[string]metric{}}
}

// fail records a failed output check.
func (o *outcome) fail(format string, args ...interface{}) {
	o.checks = append(o.checks, fmt.Sprintf(format, args...))
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: colocate, cluster-day or daemon")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "measured wall seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	setupOnly := flag.Bool("setup-only", false, "run the set-up, print \"ready\" and the CPU seconds it took, and exit (used to time cold set-ups)")
	flag.Parse()

	if n := runtime.NumCPU(); n < maxProcs {
		runtime.GOMAXPROCS(n)
	} else {
		runtime.GOMAXPROCS(maxProcs)
	}
	setup, ok := workloads[*name]
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if *seconds < 1 {
		fatalf("-seconds must be at least 1")
	}
	if *setupOnly {
		st, err := setup(*seed, newTracer(false))
		if err != nil {
			fatalf("%s set-up: %v", *name, err)
		}
		fmt.Println("ready", cpuSeconds())
		st.close()
		return
	}
	if err := run(*name, setup, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fatalf("%s: %v", *name, err)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

func run(name string, setup setupFunc, seed uint64, budget time.Duration, traced bool) error {
	man, err := loadManifest()
	if err != nil {
		return err
	}
	setupS, setupWall, err := coldSetups(name, seed)
	if err != nil {
		return err
	}
	tr := newTracer(traced)
	st, err := setup(seed, tr)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer st.close()
	setupRSS := peakRSSMB()

	yard0 := yardstick()
	steal0 := readCPUStat()
	wall0, cpu0 := time.Now(), cpuSeconds()
	out, err := st.run(budget, tr)
	if err != nil {
		return err
	}
	wall, cpu := time.Since(wall0).Seconds(), cpuSeconds()-cpu0
	steal := readCPUStat().stealShare(steal0)
	yard1 := yardstick()
	if traced {
		for name, ns := range runProbes(tr) {
			out.layer[name] = metric{ns, "ns"}
		}
	}

	out.e2e["setup_s"] = metric{setupS, "s"}
	out.e2e["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	// JSON has no infinities: a latency that is infinite because requests
	// were refused fails the run and reads 0. Untraced runs leave the
	// per-layer figures unset or undefined and do not print them.
	printed := []map[string]metric{out.e2e}
	if traced {
		printed = append(printed, out.layer)
	}
	for _, ms := range printed {
		for name, m := range ms {
			if !finite(m.Value) {
				out.fail("metric %s is %v", name, m.Value)
				ms[name] = metric{0, m.Unit}
			}
		}
	}

	report := map[string]interface{}{
		"workload": name,
		"seed":     seed,
		"traced":   traced,
		"host": map[string]interface{}{
			"nproc":       runtime.NumCPU(),
			"gomaxprocs":  runtime.GOMAXPROCS(0),
			"go":          runtime.Version(),
			"steal_share": steal,
			// ns per iteration of a fixed loop before and after the run: a
			// host whose speed moved during the run shows it here.
			"yardstick_ns": []float64{yard0, yard1},
		},
		"peak_rss_mb_after_setup": setupRSS,
		"setup_wall_s":            setupWall,
		"run": map[string]interface{}{
			"wall_s":      wall,
			"cpu_s":       cpu,
			"ops":         len(out.opWall),
			"op_wall_s":   summarize(out.opWall),
			"op_cpu_s":    summarize(out.opCPU),
			"cpu_to_wall": cpu / wall,
		},
		"end_to_end":    out.e2e,
		"failed_checks": out.checks,
	}
	if traced {
		path, err := tr.write(name, seed)
		if err != nil {
			return err
		}
		report["spans_file"] = path
		report["layers"] = tr.selfTimes()
		report["tracing_overhead"] = tr.overhead(wall)
	}
	line, err := json.Marshal(report)
	if err != nil {
		return err
	}
	fmt.Printf("report %s\n", line)

	metrics, err := manifestMetrics(out.e2e, man.EndToEnd, false)
	if traced {
		metrics, err = manifestMetrics(out.layer, man.PerLayer, true)
	}
	if err != nil {
		return err
	}
	res := result{
		Correct:   len(out.checks) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metrics,
	}
	for _, c := range out.checks {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", c)
	}
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d output check(s) failed", len(out.checks)+out.failed)
	}
	return nil
}

// manifestPath is the benchmark manifest, relative to the repository root the
// benchmark runs from.
const manifestPath = "BENCHMARK.json"

// manifestMetric is one metric entry of the manifest.
type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type manifest struct {
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

func loadManifest() (manifest, error) {
	var m manifest
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("%s: %w", manifestPath, err)
	}
	return m, nil
}

// manifestMetrics returns exactly the manifest's metrics from what a workload
// measured. A metric the manifest does not name, or one in another unit, is
// an error in the benchmark. A missing end-to-end metric is too; a missing
// per-layer metric is a layer the workload does not reach and reads 0.
func manifestMetrics(got map[string]metric, want []manifestMetric, layer bool) (map[string]metric, error) {
	units := map[string]string{}
	for _, w := range want {
		units[w.Name] = w.Unit
	}
	for name, m := range got {
		if u, ok := units[name]; !ok || u != m.Unit {
			return nil, fmt.Errorf("metric %s (%s) is not in %s with that unit", name, m.Unit, manifestPath)
		}
	}
	out := map[string]metric{}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok && !layer {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", w.Name)
		}
		if !ok {
			m = metric{0, w.Unit}
		}
		out[w.Name] = m
	}
	return out, nil
}

// coldSetups runs setupSamples set-ups, each in a fresh copy of this
// process, until the child reports it could start timing, and returns the
// median CPU seconds the child had spent by then (setup_s) and the median
// wall seconds from exec to that report. A fresh process is the honest
// reading: process-wide caches a set-up fills (design-space exploration
// memos, histogram bucket tables) start empty each time, as they do for a
// user. setup_s is CPU time because a set-up is short, CPU-bound work: work
// moved into it shows all the same, while the wall time of a 50 ms process
// start moved by two fifths between sets of runs on a shared host as other
// tenants came and went.
func coldSetups(name string, seed uint64) (cpu, wall float64, err error) {
	self, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	var cpus, walls []float64
	for i := 0; i < setupSamples; i++ {
		cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(seed, 10), "-setup-only")
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, 0, err
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		dt := time.Since(t0).Seconds()
		werr := cmd.Wait()
		word, rest, _ := strings.Cut(strings.TrimSpace(line), " ")
		c, perr := strconv.ParseFloat(rest, 64)
		if rerr != nil || word != "ready" || perr != nil {
			return 0, 0, fmt.Errorf("cold set-up %d: no ready line (%v, %v)", i, rerr, werr)
		}
		if werr != nil {
			return 0, 0, fmt.Errorf("cold set-up %d: %w", i, werr)
		}
		cpus = append(cpus, c)
		walls = append(walls, dt)
	}
	return median(cpus), median(walls), nil
}

// yardstickSink keeps the yardstick loop's result alive.
var yardstickSink uint64

// yardstick times a fixed integer and floating-point loop that touches no
// program code, and returns nanoseconds per iteration: the same figure on two
// runs means the host ran at the same speed.
func yardstick() float64 {
	const n = 1 << 22
	x, f := uint64(88172645463325252), 1.0
	t0 := time.Now()
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		f = f*0.999999 + float64(x>>40)*1e-9
	}
	d := time.Since(t0)
	yardstickSink += x + uint64(f)
	return float64(d.Nanoseconds()) / n
}

// warmVariants explores every catalog application's variant table, a
// one-time cost the paper pays offline, so no timed operation pays it.
func warmVariants() error {
	for _, name := range app.Names() {
		prof, err := app.ByName(name)
		if err != nil {
			return err
		}
		if _, err := dse.VariantsFor(prof); err != nil {
			return err
		}
	}
	return nil
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB is the process's peak resident set in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuStat is the aggregate "cpu" line of /proc/stat.
type cpuStat struct{ total, steal uint64 }

func readCPUStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	var st cpuStat
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			continue
		}
		// guest and guest_nice (fields 9 and 10) are already counted in user.
		if i < 8 {
			st.total += v
		}
		if i == 7 {
			st.steal = v
		}
	}
	return st
}

// stealShare is the share of all CPU time the hypervisor stole between two
// readings.
func (s cpuStat) stealShare(before cpuStat) float64 {
	if s.total <= before.total {
		return 0
	}
	return float64(s.steal-before.steal) / float64(s.total-before.total)
}

// median returns the middle of xs (mean of the middle two for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it, and that percentile; with fewer than eleven samples it
// is the maximum.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := len(s) - 11
	if i < 0 {
		return s[len(s)-1], 100
	}
	return s[i], 100 * float64(i+1) / float64(len(s))
}

// summarize gives the median, tail and count of a sample set for the report.
func summarize(xs []float64) map[string]float64 {
	if len(xs) == 0 {
		return nil
	}
	t, pct := tail(xs)
	out := map[string]float64{"n": float64(len(xs)), "p50": median(xs), "tail": t, "tail_pct": pct}
	for k, v := range out {
		if !finite(v) {
			out[k] = -1 // refused or unanswered requests
		}
	}
	return out
}

// sum adds xs.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
