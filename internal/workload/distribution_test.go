package workload

import (
	"math"
	"sort"
	"testing"

	"github.com/approx-sched/pliant/internal/sim"
)

// Distribution checks for the samplers every simulated request draws from:
// a one-sample Kolmogorov–Smirnov test against the analytic CDF, plus the
// sample mean and variance against their analytic values. Seeds and sample
// sizes are fixed, so each check is deterministic; the bounds are what a
// correct sampler passes at these sizes with overwhelming probability, so a
// failure means the sampler changed shape, not bad luck.
const (
	distN = 20000
	// ksCrit is the KS critical value at significance 0.001 for distN
	// samples: sqrt(-ln(0.001/2)/2)/sqrt(n) = 1.9495/sqrt(20000) ≈ 0.0138.
	ksCritCoef = 1.9495
	// momentZ bounds the mean and variance errors in standard errors.
	momentZ = 5
)

// moments are a distribution's analytic mean, variance and fourth central
// moment (the last sets the standard error of the sample variance).
type moments struct{ mean, variance, mu4 float64 }

// normalCDF is Φ((x-mu)/sigma).
func normalCDF(x, mu, sigma float64) float64 {
	return 0.5 * math.Erfc(-(x-mu)/(sigma*math.Sqrt2))
}

// expCDF is 1-exp(-x/mean) on x ≥ 0.
func expCDF(x, mean float64) float64 {
	if x <= 0 {
		return 0
	}
	return 1 - math.Exp(-x/mean)
}

// lognormalMoments derives the moments of exp(N(mu, sigma²)) from its raw
// moments E[X^k] = exp(k·mu + k²·sigma²/2).
func lognormalMoments(mu, sigma float64) moments {
	raw := func(k float64) float64 { return math.Exp(k*mu + k*k*sigma*sigma/2) }
	m := raw(1)
	return moments{
		mean:     m,
		variance: raw(2) - m*m,
		mu4:      raw(4) - 4*m*raw(3) + 6*m*m*raw(2) - 3*m*m*m*m,
	}
}

// checkDistribution runs the KS, mean and variance checks on xs.
func checkDistribution(t *testing.T, xs []float64, cdf func(float64) float64, want moments) {
	t.Helper()
	n := float64(len(xs))
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / n
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	variance := ss / (n - 1)

	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	d := 0.0
	for i, x := range sorted {
		f := cdf(x)
		d = math.Max(d, math.Max(f-float64(i)/n, float64(i+1)/n-f))
	}
	if crit := ksCritCoef / math.Sqrt(n); d > crit {
		t.Errorf("KS statistic %.4f exceeds critical value %.4f", d, crit)
	}
	if se := math.Sqrt(want.variance / n); math.Abs(mean-want.mean) > momentZ*se {
		t.Errorf("mean %.6g, want %.6g ± %.3g", mean, want.mean, momentZ*se)
	}
	if se := math.Sqrt((want.mu4 - want.variance*want.variance) / n); math.Abs(variance-want.variance) > momentZ*se {
		t.Errorf("variance %.6g, want %.6g ± %.3g", variance, want.variance, momentZ*se)
	}
}

// draw collects distN values of f.
func draw(f func() float64) []float64 {
	xs := make([]float64, distN)
	for i := range xs {
		xs[i] = f()
	}
	return xs
}

func TestRNGNormDistribution(t *testing.T) {
	const mu, sigma = 1.5, 2.0
	rng := sim.NewRNG(11)
	xs := draw(func() float64 { return rng.Norm(mu, sigma) })
	checkDistribution(t, xs, func(x float64) float64 { return normalCDF(x, mu, sigma) },
		moments{mu, sigma * sigma, 3 * math.Pow(sigma, 4)})
}

func TestRNGExpDistribution(t *testing.T) {
	const mean = 0.25
	rng := sim.NewRNG(12)
	xs := draw(func() float64 { return rng.Exp(mean) })
	checkDistribution(t, xs, func(x float64) float64 { return expCDF(x, mean) },
		moments{mean, mean * mean, 9 * math.Pow(mean, 4)})
}

func TestRNGLogNormalDistribution(t *testing.T) {
	// The memcached preset's shape: a 0.7-sigma log-normal.
	const mu, sigma = -9.0, 0.7
	rng := sim.NewRNG(13)
	xs := draw(func() float64 { return rng.LogNormal(mu, sigma) })
	checkDistribution(t, xs, func(x float64) float64 {
		if x <= 0 {
			return 0
		}
		return normalCDF(math.Log(x), mu, sigma)
	}, lognormalMoments(mu, sigma))
}

// expGapMoments are the moments of an exponential gap at rate qps, in
// seconds.
func expGapMoments(qps float64) moments {
	m := 1 / qps
	return moments{m, m * m, 9 * math.Pow(m, 4)}
}

func TestPoissonGapDistribution(t *testing.T) {
	const qps = 2000.0
	p, err := NewPoisson(qps)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(14)
	xs := draw(func() float64 { return p.Next(rng).Seconds() })
	checkDistribution(t, xs, func(x float64) float64 { return expCDF(x, 1/qps) }, expGapMoments(qps))
}

func TestShapedPoissonGapDistribution(t *testing.T) {
	d, err := NewDiurnal(0.4, 100)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewShapedPoisson(1000, d)
	if err != nil {
		t.Fatal(err)
	}
	// At a fixed instant the gap is exponential at the rate in force then.
	for i, at := range []float64{0, 25, 75} {
		now := sim.Time(sim.DurationOf(at))
		rate := 1000 * ClampMultiplier(d.Multiplier(at))
		rng := sim.NewRNG(uint64(15 + i))
		xs := draw(func() float64 { return p.NextAt(rng, now).Seconds() })
		checkDistribution(t, xs, func(x float64) float64 { return expCDF(x, 1/rate) }, expGapMoments(rate))
	}
}

// countingUnits is a UnitSource over an RNG that counts what it hands out.
type countingUnits struct {
	rng *sim.RNG
	n   int
}

func (c *countingUnits) Next() float64 { c.n++; return c.rng.LogComplement() }

// TestGapFromMatchesInlineDraws pins ExpArrival's contract: gaps built from
// prefetched unit values equal the inline draws, and a degenerate rate
// takes no value.
func TestGapFromMatchesInlineDraws(t *testing.T) {
	flash, err := NewFlash(1, 3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	procs := map[string]ExpArrival{
		"poisson": Poisson{QPS: 1500},
		"shaped":  ShapedPoisson{BaseQPS: 1500, Shape: flash},
		// A zero-rate literal bypassing the constructor: every gap is the cap.
		"dead": ShapedPoisson{BaseQPS: 0, Shape: Steady{Level: 1}},
	}
	for name, p := range procs {
		inline := sim.NewRNG(21)
		units := &countingUnits{rng: sim.NewRNG(21)}
		var now sim.Time
		for i := 0; i < 5000; i++ {
			var want sim.Duration
			if ta, ok := p.(TimedArrival); ok {
				want = ta.NextAt(inline, now)
			} else {
				want = p.Next(inline)
			}
			if got := p.GapFrom(units, now); got != want {
				t.Fatalf("%s gap %d: GapFrom %v, inline %v", name, i, got, want)
			}
			now += sim.Time(want) % sim.Time(sim.Second)
		}
		if name == "dead" && units.n != 0 {
			t.Fatalf("degenerate rate took %d unit values, want 0", units.n)
		}
	}
}
