package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/approx-sched/pliant/internal/autoscale"
	"github.com/approx-sched/pliant/internal/cluster"
	"github.com/approx-sched/pliant/internal/energy"
	"github.com/approx-sched/pliant/internal/export"
	"github.com/approx-sched/pliant/internal/obs"
	"github.com/approx-sched/pliant/internal/platform"
	"github.com/approx-sched/pliant/internal/sched"
	"github.com/approx-sched/pliant/internal/service"
	"github.com/approx-sched/pliant/internal/sim"
	"github.com/approx-sched/pliant/internal/workload"
)

// The cluster-day workload runs simulated diurnal days back to back on a
// mixed-service cluster: telemetry-aware placement, the Table 1 energy
// model, the approx-for-watts autoscaler and two shards. It exercises the
// sched coordinator, the shard barrier, cluster telemetry and
// energy/autoscale, and inside them hundreds of one-window colocate episodes
// per day that reuse their shard's Scratch: the colocate layer as many short
// episodes, where per-episode set-up cost shows.
const (
	dayNodes   = 24
	dayShards  = 2
	dayHorizon = 120 * sim.Second
	dayEpoch   = 10 * sim.Second
	// dayRate keeps about the energy experiment's jobs per slot (0.10 jobs/s
	// on five nodes), so consolidation has nodes to park.
	dayRate = 0.10 * dayNodes / 5
	// daySeeds is how many distinct days a run cycles through: about as
	// many as 30 s holds, so the median day is taken over many different
	// days. The modeled metrics are the mean over them, so they are exact
	// for a seed; a later pass repeats a day and must reproduce it.
	daySeeds = 16
)

// dayConfig is the cluster-day scheduler configuration for one day seed.
func dayConfig(seed uint64) (sched.Config, error) {
	shape, err := workload.NewDiurnal(0.25, dayHorizon.Seconds())
	if err != nil {
		return sched.Config{}, err
	}
	classes := []service.Class{service.Memcached, service.NGINX, service.MongoDB}
	nodes := make([]cluster.Node, dayNodes)
	for i := range nodes {
		cls := classes[i%len(classes)]
		nodes[i] = cluster.Node{Name: fmt.Sprintf("%s-%d", service.Preset(cls).Name, i), Service: cls, MaxApps: 3}
	}
	model := energy.ModelFor(platform.TablePlatform())
	return sched.Config{
		Seed:    seed,
		Nodes:   nodes,
		Policy:  sched.TelemetryAware{},
		Horizon: dayHorizon,
		Epoch:   dayEpoch,
		// Evenly spaced arrivals give every day the same number of jobs
		// (about 58); Poisson arrivals would vary that count, and with it
		// a day's cost, by about an eighth from one day seed to the next.
		// The seed still orders the jobs and drives every episode.
		Arrivals:  workload.Uniform{QPS: dayRate},
		BaseLoad:  0.65,
		Shape:     shape,
		TimeScale: 16,
		Shards:    dayShards,
		Energy:    &model,
		Autoscaler: autoscale.ApproxForWatts{
			Consolidate: autoscale.Consolidate{ReserveSlots: 6},
			LowWater:    0.6,
		},
	}, nil
}

type clusterDayState struct {
	seeds []uint64
	cfgs  []sched.Config
}

func setupClusterDay(seed uint64, tr *tracer) (state, error) {
	id, prev := tr.enter("setup.cluster-day")
	defer tr.leave(id, prev)
	if err := warmVariants(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	st := &clusterDayState{}
	for i := 0; i < daySeeds; i++ {
		cfg, err := dayConfig(rng.Uint64())
		if err != nil {
			return nil, err
		}
		st.seeds = append(st.seeds, cfg.Seed)
		st.cfgs = append(st.cfgs, cfg)
	}
	// Building a runner starts the shard goroutines and arms the arrival
	// stream; a user pays it before the first window can run.
	r, err := sched.NewRunner(st.cfgs[0])
	if err != nil {
		return nil, err
	}
	r.Close()
	return st, nil
}

func (c *clusterDayState) close() {}

// tracedPolicy times every placement decision. It forwards Name, so results
// and exports are unchanged.
type tracedPolicy struct {
	sched.Policy
	tr    *tracer
	calls int
	ns    int64
}

func (p *tracedPolicy) Place(job sched.Job, nodes []sched.NodeState) int {
	id := p.tr.begin("sched.Policy.Place", p.tr.current)
	t0 := time.Now()
	n := p.Policy.Place(job, nodes)
	p.ns += int64(time.Since(t0))
	p.calls++
	p.tr.end(id)
	return n
}

// tracedController times every autoscaler decision.
type tracedController struct {
	autoscale.Controller
	tr    *tracer
	calls int
	ns    int64
}

func (c *tracedController) Decide(v autoscale.View) []autoscale.Action {
	id := c.tr.begin("autoscale.Controller.Decide", c.tr.current)
	t0 := time.Now()
	acts := c.Controller.Decide(v)
	c.ns += int64(time.Since(t0))
	c.calls++
	c.tr.end(id)
	return acts
}

// dayRun is one simulated day's measurements.
type dayRun struct {
	res                     sched.Result
	digest                  [32]byte // of the JSON export: every modeled output
	wall, cpu               float64
	newRunner, finalize     float64
	steps                   []float64
	exportJSON, exportCSV   float64
	mallocs                 uint64
	placeCalls, decideCalls int
	placeNs, decideNs       int64
	episodeNs, barrierNs    int64
}

// runDay simulates one day through the step-driven runner and exports it.
// With tracing on, the policy and autoscaler are wrapped in timing
// decorators and an observer collects the shard profiles.
func runDay(cfg sched.Config, tr *tracer) (dayRun, error) {
	var d dayRun
	var pol *tracedPolicy
	var ctl *tracedController
	if tr.on {
		pol = &tracedPolicy{Policy: cfg.Policy, tr: tr}
		ctl = &tracedController{Controller: cfg.Autoscaler, tr: tr}
		cfg.Policy, cfg.Autoscaler = pol, ctl
		cfg.Obs = obs.New(obs.Options{})
	}
	var ms0, ms1 runtime.MemStats
	if tr.on {
		runtime.ReadMemStats(&ms0)
	}
	dayID, prev := tr.enter("sched.day")
	defer tr.leave(dayID, prev)

	w0, c0 := time.Now(), cpuSeconds()
	id, p := tr.enter("sched.NewRunner")
	r, err := sched.NewRunner(cfg)
	tr.leave(id, p)
	if err != nil {
		return d, err
	}
	d.newRunner = time.Since(w0).Seconds()
	for more := true; more; {
		t := time.Now()
		id, p := tr.enter("sched.StepWindow")
		more, err = r.StepWindow()
		tr.leave(id, p)
		d.steps = append(d.steps, time.Since(t).Seconds())
		if err != nil {
			r.Close()
			return d, err
		}
	}
	t := time.Now()
	id, p = tr.enter("sched.Finalize")
	d.res, err = r.Finalize()
	tr.leave(id, p)
	d.finalize = time.Since(t).Seconds()
	d.wall, d.cpu = time.Since(w0).Seconds(), cpuSeconds()-c0
	if err != nil {
		return d, err
	}

	var buf bytes.Buffer
	t = time.Now()
	id, p = tr.enter("export.WriteSchedResultJSON")
	err = export.WriteSchedResultJSON(&buf, d.res)
	tr.leave(id, p)
	d.exportJSON = time.Since(t).Seconds()
	if err != nil {
		return d, err
	}
	d.digest = sha256.Sum256(buf.Bytes())
	buf.Reset()
	t = time.Now()
	id, p = tr.enter("export.WriteSchedTraceCSV")
	err = export.WriteSchedTraceCSV(&buf, d.res)
	tr.leave(id, p)
	d.exportCSV = time.Since(t).Seconds()
	if err != nil {
		return d, err
	}

	if tr.on {
		runtime.ReadMemStats(&ms1)
		d.mallocs = ms1.Mallocs - ms0.Mallocs
		d.placeCalls, d.placeNs = pol.calls, pol.ns
		d.decideCalls, d.decideNs = ctl.calls, ctl.ns
		for _, sp := range d.res.ShardProfiles {
			d.episodeNs += sp.EpisodeNs
			d.barrierNs += sp.BarrierWaitNs
		}
	}
	return d, nil
}

// checkDay returns why a day's result is inconsistent, or "".
func checkDay(res sched.Result) string {
	switch {
	case !finite(res.Joules) || res.Joules <= 0:
		return fmt.Sprintf("joules %v", res.Joules)
	case res.Truncated:
		return "day truncated"
	}
	return checkSchedResult(res)
}

// checkSchedResult returns why a scheduler result is inconsistent, or "".
func checkSchedResult(res sched.Result) string {
	switch {
	case res.Arrived != res.Placed+res.Pending+res.JobsLost:
		return fmt.Sprintf("ledger: arrived %d != placed %d + pending %d + lost %d",
			res.Arrived, res.Placed, res.Pending, res.JobsLost)
	case res.Completed == 0:
		return "no job completed"
	case res.Episodes == 0:
		return "no episode ran"
	case !finite(res.QoSMetFrac) || res.QoSMetFrac < 0 || res.QoSMetFrac > 1:
		return fmt.Sprintf("QoS-met fraction %v", res.QoSMetFrac)
	case !finite(res.MeanInaccuracy) || res.MeanInaccuracy < 0:
		return fmt.Sprintf("mean inaccuracy %v", res.MeanInaccuracy)
	}
	return ""
}

func (c *clusterDayState) run(budget time.Duration, tr *tracer) (*outcome, error) {
	out := newOutcome()
	var (
		seen                                      [daySeeds]bool
		digests                                   [daySeeds][32]byte
		days                                      []dayRun
		qos, inacc, kj                            float64
		episodes, placed, requeued, parked, wakes int
		placeCalls, decideCalls                   int
	)
	start := time.Now()
	for i := 0; i < daySeeds || time.Since(start) < budget; i++ {
		k := i % daySeeds
		d, err := runDay(c.cfgs[k], tr)
		out.attempted++
		if err != nil {
			out.failed++
			out.fail("day %d (seed %d): %v", i, c.seeds[k], err)
			continue
		}
		days = append(days, d)
		out.opWall = append(out.opWall, d.wall)
		out.opCPU = append(out.opCPU, d.cpu)
		if msg := checkDay(d.res); msg != "" {
			out.failed++
			out.fail("day %d (seed %d): %s", i, c.seeds[k], msg)
		}
		if !seen[k] {
			seen[k], digests[k] = true, d.digest
			qos += d.res.QoSMetFrac / daySeeds
			inacc += d.res.MeanInaccuracy / daySeeds
			kj += d.res.Joules / 1e3 / daySeeds
			episodes += d.res.Episodes
			placed += d.res.Placed
			requeued += d.res.Requeued
			parked += d.res.ParkedNodeWindows
			wakes += d.res.Wakes
			placeCalls += d.placeCalls
			decideCalls += d.decideCalls
		} else if d.digest != digests[k] {
			out.failed++
			out.fail("day %d repeats seed %d but its export differs", i, c.seeds[k])
		}
	}
	for k, ok := range seen {
		if !ok {
			out.fail("day seed %d never completed", c.seeds[k])
		}
	}

	// An untraced re-run of the first day must export the same bytes: a
	// repeated day reproduces itself even when the timed loop ended before
	// repeating one, and traced days, which ran with decorated policy and
	// autoscaler and an observer attached, match their untraced run.
	plain, err := runDay(c.cfgs[0], newTracer(false))
	if err != nil {
		out.fail("untraced re-run: %v", err)
	} else if plain.digest != digests[0] {
		out.fail("day seed %d differs from its untraced re-run", c.seeds[0])
	}

	out.e2e["latency_ms"] = metric{1e3 * median(out.opWall), "ms"}
	out.e2e["qos_met_frac"] = metric{qos, "fraction"}
	out.e2e["inaccuracy_pct"] = metric{inacc, "%"}
	out.layer["kj_per_day"] = metric{kj, "kJ"}

	var newRunner, finalize, steps, exportJSON, exportCSV []float64
	var mallocs uint64
	var placeNs, decideNs, episodeNs, barrierNs int64
	var place, decide, windows, dayEpisodes int
	var shardWall float64
	for _, d := range days {
		newRunner = append(newRunner, d.newRunner)
		finalize = append(finalize, d.finalize)
		steps = append(steps, d.steps...)
		exportJSON = append(exportJSON, d.exportJSON)
		exportCSV = append(exportCSV, d.exportCSV)
		mallocs += d.mallocs
		windows += len(d.steps)
		placeNs += d.placeNs
		decideNs += d.decideNs
		place += d.placeCalls
		decide += d.decideCalls
		episodeNs += d.episodeNs
		dayEpisodes += d.res.Episodes
		barrierNs += d.barrierNs
		shardWall += d.wall * dayShards
	}
	stepTail, _ := tail(steps)
	out.layer["sched.new_runner_ms"] = metric{1e3 * median(newRunner), "ms"}
	out.layer["sched.step_ms"] = metric{1e3 * median(steps), "ms"}
	out.layer["sched.step_tail_ms"] = metric{1e3 * stepTail, "ms"}
	out.layer["sched.finalize_ms"] = metric{1e3 * median(finalize), "ms"}
	out.layer["sched.cpu_s_per_day"] = metric{median(out.opCPU), "s"}
	out.layer["sched.mallocs_per_window"] = metric{float64(mallocs) / float64(windows), "count"}
	out.layer["sched.place_us"] = metric{float64(placeNs) / 1e3 / float64(place), "us"}
	out.layer["sched.place_calls"] = metric{float64(placeCalls), "count"}
	out.layer["autoscale.decide_us"] = metric{float64(decideNs) / 1e3 / float64(decide), "us"}
	out.layer["autoscale.calls"] = metric{float64(decideCalls), "count"}
	out.layer["sched.episodes"] = metric{float64(episodes), "count"}
	out.layer["sched.placed"] = metric{float64(placed), "count"}
	out.layer["sched.requeued"] = metric{float64(requeued), "count"}
	out.layer["sched.parked_node_windows"] = metric{float64(parked), "count"}
	out.layer["sched.wakes"] = metric{float64(wakes), "count"}
	// The colocate layer as many one-window episodes: the program's own
	// profiler times each, set-up included.
	out.layer["colocate.episode_ms"] = metric{float64(episodeNs) / 1e6 / float64(dayEpisodes), "ms"}
	out.layer["obs.episode_share"] = metric{float64(episodeNs) / 1e9 / shardWall, "fraction"}
	out.layer["obs.barrier_wait_share"] = metric{float64(barrierNs) / float64(episodeNs+barrierNs), "fraction"}
	out.layer["export.json_ms"] = metric{1e3 * median(exportJSON), "ms"}
	out.layer["export.csv_ms"] = metric{1e3 * median(exportCSV), "ms"}
	return out, nil
}
