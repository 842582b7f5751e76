package client

import (
	"math"
	"testing"

	"github.com/approx-sched/pliant/internal/service"
	"github.com/approx-sched/pliant/internal/sim"
	"github.com/approx-sched/pliant/internal/workload"
)

func testService(t *testing.T, eng *sim.Engine, onLat func(sim.Duration)) *service.Instance {
	cfg := service.Config{
		Name:            "t",
		QoS:             sim.Millisecond,
		Demand:          workload.Constant(10e-6),
		WorkersPerCore:  1,
		ContentionShare: 1,
		MaxBacklog:      sim.Second,
	}
	svc, err := service.New(eng, sim.NewRNG(2), cfg, 4, onLat, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

// testGenerator builds a generator that is closed when the test ends.
func testGenerator(t *testing.T, eng *sim.Engine, rng *sim.RNG, svc *service.Instance, arrival workload.ArrivalProcess) *Generator {
	gen, err := New(eng, rng, svc, arrival, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gen.Close)
	return gen
}

func TestNewValidation(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(1)
	svc := testService(t, eng, nil)
	if _, err := New(nil, rng, svc, workload.Uniform{QPS: 10}, nil); err == nil {
		t.Fatal("nil engine accepted")
	}
	if _, err := New(eng, nil, svc, workload.Uniform{QPS: 10}, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
	if _, err := New(eng, rng, nil, workload.Uniform{QPS: 10}, nil); err == nil {
		t.Fatal("nil service accepted")
	}
	if _, err := New(eng, rng, svc, nil, nil); err == nil {
		t.Fatal("nil arrival accepted")
	}
	if _, err := New(eng, rng, svc, workload.Uniform{QPS: 0}, nil); err == nil {
		t.Fatal("zero-rate arrival accepted")
	}
}

func TestGeneratorOffersConfiguredLoad(t *testing.T) {
	eng := sim.NewEngine()
	served := 0
	svc := testService(t, eng, func(sim.Duration) { served++ })
	gen := testGenerator(t, eng, sim.NewRNG(3), svc, workload.Uniform{QPS: 1000})
	gen.Start()
	eng.Run(sim.Time(2 * sim.Second))
	// Uniform 1000 QPS for 2 seconds: 2000 arrivals (±1 boundary effect).
	if math.Abs(float64(gen.Sent())-2000) > 2 {
		t.Fatalf("sent = %d, want ~2000", gen.Sent())
	}
	if served < 1990 {
		t.Fatalf("served = %d, want ~2000", served)
	}
	if gen.Rate() != 1000 {
		t.Fatalf("Rate = %v", gen.Rate())
	}
}

func TestPoissonLoadApproximatesRate(t *testing.T) {
	eng := sim.NewEngine()
	svc := testService(t, eng, nil)
	arr, _ := workload.NewPoisson(5000)
	gen := testGenerator(t, eng, sim.NewRNG(4), svc, arr)
	gen.Start()
	eng.Run(sim.Time(4 * sim.Second))
	want := 20000.0
	got := float64(gen.Sent())
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("sent = %v, want ~%v", got, want)
	}
}

func TestStopHaltsArrivals(t *testing.T) {
	eng := sim.NewEngine()
	svc := testService(t, eng, nil)
	gen := testGenerator(t, eng, sim.NewRNG(5), svc, workload.Uniform{QPS: 1000})
	gen.Start()
	eng.Schedule(sim.Time(sim.Second), func() { gen.Stop() })
	eng.Run(sim.Time(5 * sim.Second))
	if math.Abs(float64(gen.Sent())-1000) > 2 {
		t.Fatalf("sent = %d after stop at 1s, want ~1000", gen.Sent())
	}
}

func TestStartIsIdempotent(t *testing.T) {
	eng := sim.NewEngine()
	svc := testService(t, eng, nil)
	gen := testGenerator(t, eng, sim.NewRNG(6), svc, workload.Uniform{QPS: 100})
	gen.Start()
	gen.Start() // must not double the offered load
	eng.Run(sim.Time(sim.Second))
	if math.Abs(float64(gen.Sent())-100) > 2 {
		t.Fatalf("sent = %d, want ~100 (double-start doubled load?)", gen.Sent())
	}
}

func TestSetRate(t *testing.T) {
	eng := sim.NewEngine()
	svc := testService(t, eng, nil)
	gen := testGenerator(t, eng, sim.NewRNG(7), svc, workload.Uniform{QPS: 100})
	gen.Start()
	eng.Schedule(sim.Time(sim.Second), func() {
		if err := gen.SetRate(10000); err != nil {
			t.Errorf("SetRate: %v", err)
		}
	})
	eng.Run(sim.Time(2 * sim.Second))
	// ~100 in first second, ~10000 in the second.
	got := float64(gen.Sent())
	if got < 8000 || got > 12000 {
		t.Fatalf("sent = %v, want ~10100", got)
	}
	if err := gen.SetRate(-1); err == nil {
		t.Fatal("SetRate(-1) accepted")
	}
}
