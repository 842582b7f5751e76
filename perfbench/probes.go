package main

import (
	"math"
	"time"

	"github.com/approx-sched/pliant/internal/cluster"
	"github.com/approx-sched/pliant/internal/monitor"
	"github.com/approx-sched/pliant/internal/sim"
	"github.com/approx-sched/pliant/internal/stats"
	"github.com/approx-sched/pliant/internal/workload"
)

// The layer probes time fixed counts of calls into the per-request
// primitives every workload's simulation rests on. They do not depend on the
// workload, so every traced run takes them after its timed loop.

// probeCalls is the fixed number of calls each layer probe makes.
const probeCalls = 1 << 21

// probeSink keeps probe results alive so the compiler cannot drop the calls.
var probeSink float64

// probeHandler re-arms itself, so one engine dispatches probeCalls typed
// events back to back.
type probeHandler struct {
	eng  *sim.Engine
	left int
}

func (h *probeHandler) OnEvent(now sim.Time, arg uint64) {
	if h.left > 0 {
		h.left--
		h.eng.AfterTyped(sim.Microsecond, h, arg+1)
	}
}

// runProbes times a fixed count of calls into each per-request primitive and
// returns nanoseconds per call by metric name.
func runProbes(tr *tracer) map[string]float64 {
	out := map[string]float64{}
	probe := func(name string, f func()) {
		id, prev := tr.enter("probe." + name)
		t0 := time.Now()
		f()
		out[name] = float64(time.Since(t0).Nanoseconds()) / probeCalls
		tr.leave(id, prev)
	}
	probe("sim.event_ns", func() {
		eng := sim.NewEngine()
		h := &probeHandler{eng: eng, left: probeCalls - 1}
		eng.AfterTyped(sim.Microsecond, h, 0)
		eng.Run(sim.Time(math.MaxInt64))
		probeSink += float64(eng.Fired())
	})
	probe("sim.rng_norm_ns", func() {
		rng := sim.NewRNG(1)
		var s float64
		for i := 0; i < probeCalls; i++ {
			s += rng.Norm(0, 1)
		}
		probeSink += s
	})
	probe("sim.rng_exp_ns", func() {
		rng := sim.NewRNG(2)
		var s float64
		for i := 0; i < probeCalls; i++ {
			s += rng.Exp(1)
		}
		probeSink += s
	})
	probe("workload.lognormal_ns", func() {
		rng := sim.NewRNG(3)
		d := workload.Compile(workload.LogNormal{Median: 1e5, Sigma: 0.6})
		var s float64
		for i := 0; i < probeCalls; i++ {
			s += d.Sample(rng)
		}
		probeSink += s
	})
	probe("stats.record_ns", func() {
		h := stats.NewLatencyHistogram()
		for i := 0; i < probeCalls; i++ {
			h.Record(float64(1e4 + (i*7919)%(1<<20)))
		}
		probeSink += h.Mean()
	})
	probe("cluster.observe_ns", func() {
		var t cluster.Telemetry
		r := monitor.Report{Interval: sim.Second, P99: 800 * sim.Microsecond, QoS: sim.Millisecond, Seen: 1000, Watts: 100, Joules: 100}
		for i := 0; i < probeCalls; i++ {
			r.Violation = i%17 == 0
			t.Observe(r)
		}
		probeSink += t.P99OverQoS
	})
	return out
}
