package service

import (
	"testing"

	"github.com/approx-sched/pliant/internal/sim"
	"github.com/approx-sched/pliant/internal/stats"
)

// benchInstance assembles a memcached-preset service fed by a self-rearming
// typed arrival source — the exact shape of the scenario hot path, minus the
// controller.
type benchArrivals struct {
	eng *sim.Engine
	rng *sim.RNG
	svc *Instance
	gap sim.Duration
}

func (a *benchArrivals) OnEvent(sim.Time, uint64) {
	a.svc.Arrive()
	a.eng.AfterTyped(a.gap, a, 0)
}

func newBenchInstance(tb testing.TB) (*sim.Engine, *benchArrivals) {
	tb.Helper()
	eng := sim.NewEngine()
	rng := sim.NewRNG(11)
	hist := stats.NewLatencyHistogram()
	cfg := Preset(Memcached).Scaled(16)
	svc := newInstance(tb, eng, rng.Split(1), cfg, 8, func(d sim.Duration) { hist.Record(float64(d)) })
	qps := cfg.SaturationQPS(8) * 0.78
	arr := &benchArrivals{eng: eng, rng: rng.Split(2), svc: svc, gap: sim.DurationOf(1 / qps)}
	eng.ScheduleTyped(0, arr, 0)
	return eng, arr
}

// TestRequestPathAllocFree pins the tentpole invariant at the service layer:
// once warm, the full arrival→start→complete→drain→record cycle performs
// zero heap allocations.
func TestRequestPathAllocFree(t *testing.T) {
	eng, arr := newBenchInstance(t)
	eng.Run(eng.Now() + sim.Time(2*sim.Second)) // warm arenas, ring, histogram
	avg := testing.AllocsPerRun(50, func() {
		eng.Run(eng.Now() + sim.Time(100*sim.Millisecond))
	})
	if avg != 0 {
		t.Fatalf("request path allocates %v allocs/op in steady state, want 0", avg)
	}
	if arr.svc.Served() == 0 {
		t.Fatal("no requests served")
	}
}

// BenchmarkRequestPath measures the per-request cost of the service layer:
// one arrival event, one demand sample, one completion event, one histogram
// record.
func BenchmarkRequestPath(b *testing.B) {
	eng, arr := newBenchInstance(b)
	eng.Run(eng.Now() + sim.Time(2*sim.Second))
	b.ReportAllocs()
	b.ResetTimer()
	start := arr.svc.Served()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
	b.ReportMetric(float64(arr.svc.Served()-start)/float64(b.N), "served/op")
}

// BenchmarkSetCores measures the control-plane recalc path, which the
// per-request path must not pay for.
func BenchmarkSetCores(b *testing.B) {
	eng, arr := newBenchInstance(b)
	eng.Run(eng.Now() + sim.Time(sim.Second))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arr.svc.SetCores(7 + i&1)
	}
}
