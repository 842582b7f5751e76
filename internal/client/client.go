// Package client implements the open-loop workload generators that drive the
// interactive services, mirroring the paper's client machines: arrivals are
// generated independently of completions (so an overloaded server accumulates
// queueing rather than throttling the offered load), and end-to-end latency
// is observed on the client side where the paper's performance monitor lives.
package client

import (
	"fmt"

	"github.com/approx-sched/pliant/internal/service"
	"github.com/approx-sched/pliant/internal/sim"
	"github.com/approx-sched/pliant/internal/workload"
)

// Generator drives one service instance with an arrival process.
type Generator struct {
	eng     *sim.Engine
	svc     *service.Instance
	arrival workload.ArrivalProcess

	// An exponential-gap process (workload.ExpArrival) takes its draws from
	// units, which owns the generator's RNG from then on and draws ahead of
	// use; any other process draws inline from rng.
	rng   *sim.RNG
	exp   workload.ExpArrival
	units *sim.Lookahead
	buf   *sim.LookaheadBuf

	running bool
	stopped bool
	sent    uint64
}

// New creates a generator. Call Start to begin offering load, and Close to
// release it. buf, when non-nil, supplies the block storage of the gap
// draws (sim.Lookahead).
func New(eng *sim.Engine, rng *sim.RNG, svc *service.Instance, arrival workload.ArrivalProcess, buf *sim.LookaheadBuf) (*Generator, error) {
	if eng == nil || rng == nil || svc == nil || arrival == nil {
		return nil, fmt.Errorf("client: nil dependency")
	}
	if arrival.Rate() <= 0 {
		return nil, fmt.Errorf("client: arrival rate must be positive")
	}
	g := &Generator{eng: eng, rng: rng, svc: svc, buf: buf}
	g.setArrival(arrival)
	return g, nil
}

// setArrival installs an arrival process. The first exponential-gap process
// hands the RNG to the lookahead; the unit values it draws serve every later
// one, so the stream is the same one an inline RNG would give.
func (g *Generator) setArrival(arrival workload.ArrivalProcess) {
	g.arrival = arrival
	g.exp, _ = arrival.(workload.ExpArrival)
	if g.exp != nil && g.units == nil {
		g.units = sim.NewLookahead(g.rng, (*sim.RNG).LogComplement, g.buf)
		g.rng = nil
	}
}

// Close stops the generator's gap draws; it is idempotent.
func (g *Generator) Close() {
	if g.units != nil {
		g.units.Close()
	}
}

// Start begins generating arrivals at the current simulation time.
func (g *Generator) Start() {
	if g.running {
		return
	}
	g.running = true
	g.stopped = false
	g.scheduleNext()
}

// Stop halts generation after any already-scheduled arrival.
func (g *Generator) Stop() {
	g.stopped = true
	g.running = false
}

// Sent reports how many requests have been offered so far.
func (g *Generator) Sent() uint64 { return g.sent }

// Rate returns the offered load in requests/second.
func (g *Generator) Rate() float64 { return g.arrival.Rate() }

// nextGap draws the next inter-arrival gap, letting time-varying processes
// (workload.TimedArrival) see the current virtual time.
func (g *Generator) nextGap() sim.Duration {
	if g.exp != nil {
		return g.exp.GapFrom(g.units, g.eng.Now())
	}
	if ta, ok := g.arrival.(workload.TimedArrival); ok {
		return ta.NextAt(g.rng, g.eng.Now())
	}
	return g.arrival.Next(g.rng)
}

// scheduleNext arms the next arrival through the typed-event path: the
// generator itself is the handler, so the open-loop tick allocates nothing.
// Arrival timestamps never decrease (each is scheduled from the previous
// arrival), so they take the engine's sift-free monotone lane.
func (g *Generator) scheduleNext() {
	g.eng.AfterMonotoneTyped(g.nextGap(), g, 0)
}

// OnEvent implements sim.EventHandler: one arrival tick.
func (g *Generator) OnEvent(sim.Time, uint64) {
	if g.stopped {
		return
	}
	g.sent++
	g.svc.Arrive()
	g.scheduleNext()
}

// SetRate replaces the arrival process with a Poisson process at the given
// QPS, effective from the next arrival. Used by load sweeps.
func (g *Generator) SetRate(qps float64) error {
	p, err := workload.NewPoisson(qps)
	if err != nil {
		return err
	}
	g.setArrival(p)
	return nil
}
