package sched

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/approx-sched/pliant/internal/sim"
	"github.com/approx-sched/pliant/internal/trace"
)

// TestShardInvariance is the sharded runtime's core contract: any shard
// count produces results deeply equal to the one-shard inline path — every
// job outcome, every trace point.
func TestShardInvariance(t *testing.T) {
	base := fastConfig(TelemetryAware{})
	base.Shards = 1
	single, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 3, 8 /* clamped to the 3 nodes */} {
		cfg := base
		cfg.Shards = shards
		sharded, err := Run(cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(single, sharded) {
			t.Fatalf("shards=%d diverged from the inline path", shards)
		}
	}
}

// TestShardInvarianceWithEnergy covers the merge barrier's full surface:
// lifecycle transitions, autoscaler verdicts, frequency states, and the
// per-node energy ledger must all be bit-identical across shard counts.
func TestShardInvarianceWithEnergy(t *testing.T) {
	if testing.Short() {
		t.Skip("three full energy runs; skipped in -short")
	}
	base := energyConfig(7, TelemetryAware{}, approxForWatts())
	base.Shards = 1
	single, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 5} {
		cfg := base
		cfg.Shards = shards
		sharded, err := Run(cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(single, sharded) {
			t.Fatalf("shards=%d perturbed the energy-managed run", shards)
		}
	}
}

// TestShardConfigEdges pins the defaulting rules: negative counts run
// inline, zero takes GOMAXPROCS, counts above the node count clamp, and a
// four-shard run on a one-node cluster degenerates cleanly.
func TestShardConfigEdges(t *testing.T) {
	cfg := fastConfig(FirstFit{})
	cfg.Horizon = 20 * sim.Second
	cfg.Shards = -3
	if _, err := Run(cfg); err != nil {
		t.Fatalf("negative shards: %v", err)
	}
	cfg = fastConfig(FirstFit{})
	cfg.Horizon = 20 * sim.Second
	cfg.Nodes = cfg.Nodes[:1]
	cfg.Shards = 4
	if _, err := Run(cfg); err != nil {
		t.Fatalf("shards above node count: %v", err)
	}
	if got := (Config{Shards: 9, Nodes: testCluster()}).withDefaults().Shards; got != 3 {
		t.Fatalf("shards clamped to %d, want 3", got)
	}
	want := runtime.GOMAXPROCS(0)
	if want > 3 {
		want = 3
	}
	if got := (Config{Nodes: testCluster()}).withDefaults().Shards; got != want {
		t.Fatalf("default shards %d, want %d", got, want)
	}
}

// TestShardErrorReporting keeps error behavior aligned across shard counts:
// a policy that overfills a node fails the run identically whether its
// episodes ran inline or on shard goroutines.
func TestShardErrorReporting(t *testing.T) {
	bad := fastConfig(overfillPolicy{})
	bad.Shards = 1
	_, errSingle := Run(bad)
	bad.Shards = 3
	_, errSharded := Run(bad)
	if errSingle == nil || errSharded == nil {
		t.Fatalf("overfilling policy accepted: single=%v sharded=%v", errSingle, errSharded)
	}
	if errSingle.Error() != errSharded.Error() {
		t.Fatalf("error diverged:\nsingle:  %v\nsharded: %v", errSingle, errSharded)
	}
}

// overfillPolicy always picks node 0, ignoring capacity.
type overfillPolicy struct{}

func (overfillPolicy) Name() string               { return "overfill" }
func (overfillPolicy) Place(Job, []NodeState) int { return 0 }

// TestShardGoroutinesReleased checks that every way a run ends stops its
// shard goroutines: a completed Run, a Runner closed after a partial step,
// and a NewRunner error raised after the shard group is built. Each case
// runs at the default shard count (GOMAXPROCS, which starts no goroutine on
// one core) and at three shards, which always starts them.
func TestShardGoroutinesReleased(t *testing.T) {
	base := runtime.NumGoroutine()
	settled := func(what string, shards int) {
		t.Helper()
		// Closed shards exit asynchronously; allow them a moment to return.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s (shards=%d): %d goroutines, baseline %d",
					what, shards, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for _, shards := range []int{0, 3} {
		cfg := fastConfig(FirstFit{})
		cfg.Horizon = 20 * sim.Second
		cfg.Shards = shards
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		settled("Run", shards)

		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.StepWindow(); err != nil {
			t.Fatal(err)
		}
		r.Close()
		settled("Runner.Close after one step", shards)

		// Decreasing arrival instants pass Config.Validate and fail only
		// when NewRunner builds the trace stream, after the shard group.
		bad := cfg
		bad.JobsPerSec = 0
		bad.Trace = &trace.Trace{Jobs: []trace.Job{{ArrivalSec: 5}, {ArrivalSec: 1}}}
		if _, err := NewRunner(bad); err == nil || !strings.Contains(err.Error(), "must not decrease") {
			t.Fatalf("shards=%d: want the trace-stream error, got %v", shards, err)
		}
		settled("NewRunner error", shards)
	}
}
