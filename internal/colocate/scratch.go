package colocate

import (
	"github.com/approx-sched/pliant/internal/sim"
	"github.com/approx-sched/pliant/internal/stats"
)

// Scratch is reusable per-episode simulation state: the event engine (heap
// and slot arenas), the whole-run latency histogram, the monitor's interval
// histogram, the per-interval p99 buffer, and the block storage of the
// service-demand and arrival-gap lookaheads. An online scheduler runs
// thousands of short colocation episodes; threading one Scratch per worker
// through Config.Scratch lets every episode after the first reuse these
// buffers instead of reallocating them.
//
// A Scratch is owned by one sequential stream of episodes — it is not safe
// for concurrent use. Reuse is invisible to results: every component resets
// to its initial state, so runs are bit-identical with and without a Scratch.
type Scratch struct {
	eng     *sim.Engine
	hist    *stats.Histogram
	monHist *stats.Histogram
	p99s    []float64
	demand  sim.LookaheadBuf
	gaps    sim.LookaheadBuf
}

// engine returns the scratch engine reset to t=0, creating it on first use.
func (sc *Scratch) engine() *sim.Engine {
	if sc.eng == nil {
		sc.eng = sim.NewEngine()
	} else {
		sc.eng.Reset()
	}
	return sc.eng
}

// latencyHist returns the scratch whole-run histogram, cleared.
func (sc *Scratch) latencyHist() *stats.Histogram {
	if sc.hist == nil {
		sc.hist = stats.NewLatencyHistogram()
	} else {
		sc.hist.Reset()
	}
	return sc.hist
}

// monitorHist returns the scratch monitor histogram, cleared.
func (sc *Scratch) monitorHist() *stats.Histogram {
	if sc.monHist == nil {
		sc.monHist = stats.NewLatencyHistogram()
	} else {
		sc.monHist.Reset()
	}
	return sc.monHist
}

// intervalBuf returns the reusable per-interval p99 buffer, emptied.
func (sc *Scratch) intervalBuf() []float64 { return sc.p99s[:0] }

// keepIntervalBuf hands the (possibly grown) buffer back for the next
// episode.
func (sc *Scratch) keepIntervalBuf(buf []float64) { sc.p99s = buf }
