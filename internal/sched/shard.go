// Sharded runtime: the scheduler's one parallel executor.
//
// Every run partitions its nodes round-robin into S shards (Config.Shards,
// default GOMAXPROCS), each owning a colocate.Scratch and, when S > 1, a
// persistent goroutine. Every scheduling window, all shards run their owned
// busy nodes' episodes concurrently, in ascending node order within a
// shard, and each fold touches only shard-owned node and job state. With
// one shard the window runs inline on the coordinator and no goroutine
// starts.
//
// At the window boundary the coordinator imposes a deterministic barrier:
// per-shard telemetry roll-ups merge in fixed shard order (order-insensitive
// by construction, see cluster.WindowStats), and the energy ledger,
// lifecycle machine, autoscaler verdicts, and pending-job placement all run
// serially over the merged snapshot in global node order. Sharding
// therefore changes where episode work executes, never what is computed:
// results are byte-identical for any shard count, which the golden tests
// pin.
package sched

import (
	"sync"
	"time"

	"github.com/approx-sched/pliant/internal/cluster"
	"github.com/approx-sched/pliant/internal/colocate"
	"github.com/approx-sched/pliant/internal/obs"
	"github.com/approx-sched/pliant/internal/sim"
)

// shardGroup coordinates the shards of one run.
type shardGroup struct {
	s      *run
	shards []*shardRT
	wg     sync.WaitGroup

	// prof is the run's wall-clock profiler (nil with obs off). Shards
	// charge their own episode time concurrently; barrier waits are charged
	// by the coordinator after the merge. Wall-clock numbers never feed
	// back into simulation state.
	prof *obs.Profiler
}

// shardRT is one shard: a partition of the cluster's nodes whose episodes
// run on one goroutine (the coordinator's, for a one-shard run).
type shardRT struct {
	g       *shardGroup
	id      int
	scratch *colocate.Scratch

	// Per-window request and outputs. winStart and busy are set by the
	// coordinator before the window broadcast; ws accumulates the shard's
	// fold roll-up and is read by the coordinator after the barrier.
	winStart float64
	busy     []int
	ws       cluster.WindowStats

	// busyNs is the shard's wall time running this window's episodes,
	// written by the shard goroutine and read by the coordinator after the
	// barrier (ordered by the WaitGroup). Only maintained when profiling.
	busyNs int64

	req chan struct{} // one send per window; closed on shutdown (nil inline)
}

// newShardGroup partitions the run's nodes into shards (node i belongs to
// shard i mod shards) and, for more than one shard, starts one goroutine
// per shard.
func newShardGroup(s *run, shards int) *shardGroup {
	g := &shardGroup{s: s}
	if s.cfg.Obs != nil {
		g.prof = s.cfg.Obs.Profile
	}
	for i := 0; i < shards; i++ {
		sh := &shardRT{g: g, id: i, scratch: &colocate.Scratch{}}
		g.shards = append(g.shards, sh)
		if shards > 1 {
			sh.req = make(chan struct{})
			go sh.loop()
		}
	}
	return g
}

// close shuts the shard goroutines down. The group must not be advanced
// afterwards.
func (g *shardGroup) close() {
	for _, sh := range g.shards {
		if sh.req != nil {
			close(sh.req)
		}
	}
}

// advance runs the window ending at now on every shard concurrently and
// merges the per-shard roll-ups in fixed shard order. busyIdx lists the
// occupied nodes in ascending global order; episode outcomes land in the
// run's results slice (disjoint per-node slots), and per-node folds happen
// inside the owning shard. Callers must scan results for episode errors
// after the merge.
func (g *shardGroup) advance(now sim.Time, busyIdx []int) cluster.WindowStats {
	winStart := now.Seconds() - g.s.cfg.Epoch.Seconds()
	for _, sh := range g.shards {
		sh.winStart = winStart
		sh.busy = sh.busy[:0]
	}
	for _, i := range busyIdx {
		sh := g.shards[i%len(g.shards)]
		sh.busy = append(sh.busy, i)
	}
	var t0 time.Time
	if g.prof != nil {
		t0 = time.Now() //pliant:allow wallclock — profiler measures the real barrier span for obs; never feeds sim state
	}
	if len(g.shards) == 1 {
		g.shards[0].window()
	} else {
		g.wg.Add(len(g.shards))
		for _, sh := range g.shards {
			sh.req <- struct{}{}
		}
		g.wg.Wait()
	}
	if g.prof != nil {
		// The barrier spans the slowest shard; every other shard's idle
		// share of that span is its barrier wait — the imbalance measure.
		//pliant:allow wallclock — closes the profiler span opened above; obs-only measurement
		span := time.Since(t0).Nanoseconds()
		for _, sh := range g.shards {
			g.prof.AddBarrierWait(sh.id, span-sh.busyNs)
		}
	}

	var ws cluster.WindowStats
	for _, sh := range g.shards {
		ws.Merge(sh.ws)
	}
	return ws
}

// loop is the shard goroutine: one window per request.
func (sh *shardRT) loop() {
	for range sh.req {
		sh.window()
		sh.g.wg.Done()
	}
}

// window runs and folds every owned busy node's episode for the current
// window, in ascending node order. Episode errors are left in the results
// slot for the coordinator's in-node-order scan.
func (sh *shardRT) window() {
	prof := sh.g.prof
	var t0 time.Time
	if prof != nil {
		t0 = time.Now() //pliant:allow wallclock — profiler measures real shard-window runtime for obs; never feeds sim state
	}
	sh.ws = cluster.WindowStats{}
	s := sh.g.s
	for _, i := range sh.busy {
		s.results[i] = s.runEpisode(i, sh.winStart, sh.scratch)
		if ep := &s.results[i]; ep.err == nil {
			s.foldEpisode(i, ep, sh.winStart, &sh.ws)
		}
	}
	if prof != nil {
		//pliant:allow wallclock — closes the profiler span opened above; obs-only measurement
		sh.busyNs = time.Since(t0).Nanoseconds()
		prof.AddEpisode(sh.id, len(sh.busy), sh.busyNs)
	}
}
