package workload

import (
	"fmt"

	"github.com/approx-sched/pliant/internal/sim"
)

// ArrivalProcess generates the inter-arrival gap before the next request.
type ArrivalProcess interface {
	// Next returns the gap to the next arrival. Implementations must return
	// strictly positive durations.
	Next(rng *sim.RNG) sim.Duration
	// Rate returns the mean arrival rate in requests/second.
	Rate() float64
}

// Poisson is the open-loop arrival process used by the paper's workload
// generators: exponential inter-arrival gaps, arrivals independent of
// completions, so a slow server accumulates queueing rather than throttling
// the offered load.
type Poisson struct {
	QPS float64
}

// NewPoisson returns a Poisson process at the given queries per second.
func NewPoisson(qps float64) (Poisson, error) {
	if qps <= 0 {
		return Poisson{}, fmt.Errorf("workload: poisson needs positive qps, got %v", qps)
	}
	return Poisson{QPS: qps}, nil
}

// ExpArrival is an arrival process whose every gap is one exponential draw,
// scaled by the rate in force when it is taken: Poisson and ShapedPoisson.
// GapFrom takes that draw as a prefetched unit value from src — log(1-u), as
// sim.RNG.LogComplement returns it — and returns exactly the gap Next (or
// NextAt, for a timed process) would have drawn from the RNG that produced
// the value. A gap that needs no draw takes nothing from src.
type ExpArrival interface {
	ArrivalProcess
	GapFrom(src UnitSource, now sim.Time) sim.Duration
}

// UnitSource yields successive unit values log(1-u), such as a
// sim.Lookahead drawing sim.RNG.LogComplement.
type UnitSource interface {
	Next() float64
}

// Next draws an exponential gap.
func (p Poisson) Next(rng *sim.RNG) sim.Duration { return p.gap(rng.LogComplement()) }

// GapFrom implements ExpArrival.
func (p Poisson) GapFrom(src UnitSource, _ sim.Time) sim.Duration { return p.gap(src.Next()) }

// gap scales the unit value lc = log(1-u) into a gap, with the float
// operations of sim.RNG.Exp.
func (p Poisson) gap(lc float64) sim.Duration {
	mean := 1 / p.QPS // seconds
	d := sim.DurationOf(-mean * lc)
	if d <= 0 {
		d = 1 // clamp to 1ns: zero gaps would starve the event loop ordering
	}
	return d
}

// Rate returns the configured QPS.
func (p Poisson) Rate() float64 { return p.QPS }

// Uniform emits arrivals at a fixed spacing — a deterministic process useful
// for tests, since queues behave predictably under it.
type Uniform struct {
	QPS float64
}

// Next returns the fixed gap 1/QPS.
func (u Uniform) Next(*sim.RNG) sim.Duration {
	d := sim.DurationOf(1 / u.QPS)
	if d <= 0 {
		d = 1
	}
	return d
}

// Rate returns the configured QPS.
func (u Uniform) Rate() float64 { return u.QPS }
