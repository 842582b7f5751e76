package main

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"github.com/approx-sched/pliant/internal/app"
	"github.com/approx-sched/pliant/internal/colocate"
	"github.com/approx-sched/pliant/internal/monitor"
	"github.com/approx-sched/pliant/internal/service"
)

// The colocate workload is the paper's core loop (Figs. 5-6): managed
// colocations run back to back on one goroutine, each one interactive
// service sharing a server with one to three approximate applications under
// the Pliant runtime. Nearly all of its time is the per-request path (sim,
// sim.RNG, workload samplers, client, service, monitor, stats, core), and
// episodes run until their applications finish, so building an episode
// hardly shows.
const (
	colocateLoad      = 0.78
	colocateTimeScale = 16
	// colocateModeled is how many episodes the modeled metrics cover: a fixed
	// prefix of the seeded episode stream, so qos_met_frac and
	// inaccuracy_pct are exact for a seed whatever the host's speed. It is a
	// whole number of mix blocks. The timed loop runs on past it for as long
	// as the budget allows.
	colocateModeled = 4 * mixBlock
	// mixBlock is how many episodes cover every pairing of service and app
	// count once (three services, one to three apps).
	mixBlock = 9
)

// episodeSpec is one seeded colocation.
type episodeSpec struct {
	seed    uint64
	service service.Class
	apps    []string
	scale   []float64 // AppWorkScale: every app carries the same nominal work
}

func (e episodeSpec) config(sc *colocate.Scratch) colocate.Config {
	return colocate.Config{
		Seed:         e.seed,
		Service:      e.service,
		AppNames:     e.apps,
		AppWorkScale: e.scale,
		Runtime:      colocate.Pliant,
		LoadFraction: colocateLoad,
		TimeScale:    colocateTimeScale,
		Scratch:      sc,
	}
}

// episodeStream draws episodes from the seed. Every block of mixBlock
// episodes pairs each of memcached, nginx and mongodb with one, two and
// three apps once, and each service is dealt its apps from its own seeded
// shuffle of the whole catalog, so runs on different seeds give every
// service nearly the same applications and differ in how they are grouped
// and in their random streams. Every app's work is scaled to that of the
// shortest catalog app, so an episode's length, and with it its cost, does
// not hinge on which apps it drew.
type episodeStream struct {
	rng   *rand.Rand
	names []string
	work  map[string]float64 // app name -> AppWorkScale
	decks map[service.Class]*deck
	n     int
}

// deck deals catalog applications in a seeded order, reshuffling when spent.
type deck struct {
	cards []string
	pos   int
}

func (s *episodeStream) next() episodeSpec {
	services := service.Classes()
	e := episodeSpec{
		seed:    s.rng.Uint64(),
		service: services[s.n%len(services)],
	}
	apps := 1 + s.n/len(services)%3
	s.n++
	d := s.decks[e.service]
	if d == nil {
		d = &deck{cards: append([]string(nil), s.names...), pos: len(s.names)}
		s.decks[e.service] = d
	}
	// Reshuffle before an episode would straddle two rounds of the deck,
	// so its apps stay distinct.
	if d.pos+apps > len(d.cards) {
		s.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.pos = 0
	}
	e.apps = append(e.apps, d.cards[d.pos:d.pos+apps]...)
	for _, a := range e.apps {
		e.scale = append(e.scale, s.work[a])
	}
	d.pos += apps
	return e
}

type colocateState struct {
	stream  *episodeStream
	scratch *colocate.Scratch
}

func setupColocate(seed uint64, tr *tracer) (state, error) {
	id, prev := tr.enter("setup.colocate")
	defer tr.leave(id, prev)
	names := app.Names()
	if err := warmVariants(); err != nil {
		return nil, err
	}
	shortest := math.Inf(1)
	for _, p := range app.Catalog() {
		shortest = math.Min(shortest, p.NominalExecSec)
	}
	work := map[string]float64{}
	for _, p := range app.Catalog() {
		work[p.Name] = shortest / p.NominalExecSec
	}
	return &colocateState{
		stream: &episodeStream{
			rng:   rand.New(rand.NewSource(int64(seed))),
			names: names,
			work:  work,
			decks: map[service.Class]*deck{},
		},
		scratch: &colocate.Scratch{},
	}, nil
}

func (c *colocateState) close() {}

func (c *colocateState) run(budget time.Duration, tr *tracer) (*outcome, error) {
	out := newOutcome()
	var (
		served, dropped, switches uint64
		intervals, violations     float64
		inacc                     []float64
		reqTotal                  uint64
		gaps                      []float64
		sample                    episodeSpec
		sampleRes                 colocate.Result
		ms0, ms1                  runtime.MemStats
	)
	sampleAt := int(c.stream.rng.Int63n(colocateModeled))
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; i < colocateModeled || time.Since(start) < budget; i++ {
		spec := c.stream.next()
		cfg := spec.config(c.scratch)
		id, prev := tr.enter("colocate.Run")
		if tr.on {
			last := time.Now()
			cfg.OnReport = func(monitor.Report) {
				now := time.Now()
				gaps = append(gaps, now.Sub(last).Seconds())
				tr.endAt(tr.beginAt("colocate.interval", id, last), now)
				last = now
			}
		}
		w0, c0 := time.Now(), cpuSeconds()
		res, err := colocate.Run(cfg)
		wall, cpu := time.Since(w0).Seconds(), cpuSeconds()-c0
		tr.leave(id, prev)
		out.attempted++
		if err != nil {
			out.failed++
			out.fail("episode %d (%v %v): %v", i, spec.service, spec.apps, err)
			continue
		}
		out.opWall = append(out.opWall, wall)
		out.opCPU = append(out.opCPU, cpu)
		reqTotal += res.Served
		if msg := checkEpisode(res); msg != "" {
			out.failed++
			out.fail("episode %d (%v %v): %s", i, spec.service, spec.apps, msg)
		}
		if i < colocateModeled {
			served += res.Served
			dropped += res.Dropped
			intervals += float64(res.Intervals)
			violations += res.ViolationFrac * float64(res.Intervals)
			for _, a := range res.Apps {
				inacc = append(inacc, a.Inaccuracy)
				switches += a.Switches
			}
		}
		if i == sampleAt {
			sample, sampleRes = spec, res
		}
	}
	runtime.ReadMemStats(&ms1)

	// One sampled episode re-runs, without the scratch and without the
	// tracing hook, to an identical Result: reuse and tracing are both
	// invisible to what the runtime computes.
	again, err := colocate.Run(sample.config(nil))
	if err != nil {
		out.fail("re-run of episode %d: %v", sampleAt, err)
	} else if !reflect.DeepEqual(again, sampleRes) {
		out.fail("re-run of episode %d (%v %v) differs", sampleAt, sample.service, sample.apps)
	}

	wallSum := sum(out.opWall)
	out.e2e["latency_ms"] = metric{1e3 * blockMedian(out.opWall), "ms"}
	out.e2e["qos_met_frac"] = metric{1 - violations/intervals, "fraction"}
	out.e2e["inaccuracy_pct"] = metric{sum(inacc) / float64(len(inacc)), "%"}

	n := float64(len(out.opWall))
	out.layer["sim_req_per_s"] = metric{float64(reqTotal) / wallSum, "1/s"}
	out.layer["colocate.episode_ms"] = metric{1e3 * wallSum / n, "ms"}
	out.layer["colocate.cpu_ms"] = metric{1e3 * sum(out.opCPU) / n, "ms"}
	out.layer["colocate.interval_ms"] = metric{1e3 * median(gaps), "ms"}
	out.layer["colocate.ns_per_req"] = metric{1e9 * wallSum / float64(reqTotal), "ns"}
	out.layer["colocate.mallocs"] = metric{float64(ms1.Mallocs-ms0.Mallocs) / n, "count"}
	out.layer["colocate.alloc_bytes"] = metric{float64(ms1.TotalAlloc-ms0.TotalAlloc) / n, "B"}
	out.layer["service.served"] = metric{float64(served), "count"}
	out.layer["service.dropped"] = metric{float64(dropped), "count"}
	out.layer["core.switches"] = metric{float64(switches), "count"}
	return out, nil
}

// blockMedian is the mean episode wall time of the median block: episodes
// differ in cost with their service and app count, but every block of
// mixBlock episodes has the same mix, so blocks are like units of work, and
// their median shrugs off a burst of host contention that a mean would
// carry. Only whole blocks count; a run always holds colocateModeled
// episodes, so at least four.
func blockMedian(walls []float64) float64 {
	var blocks []float64
	for i := 0; i+mixBlock <= len(walls); i += mixBlock {
		blocks = append(blocks, sum(walls[i:i+mixBlock])/mixBlock)
	}
	return median(blocks)
}

// checkEpisode returns why an episode's outputs are implausible, or "".
func checkEpisode(res colocate.Result) string {
	switch {
	case res.Served == 0:
		return "served no requests"
	case res.Intervals == 0:
		return "ran no decision interval"
	case !finite(res.ViolationFrac) || res.ViolationFrac < 0 || res.ViolationFrac > 1:
		return fmt.Sprintf("violation fraction %v", res.ViolationFrac)
	case res.TypicalP99 <= 0:
		return fmt.Sprintf("typical p99 %v", res.TypicalP99)
	}
	for _, a := range res.Apps {
		if !a.Done {
			return a.Name + " did not finish"
		}
		if !finite(a.Inaccuracy) || a.Inaccuracy < 0 {
			return fmt.Sprintf("%s inaccuracy %v", a.Name, a.Inaccuracy)
		}
	}
	return ""
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
