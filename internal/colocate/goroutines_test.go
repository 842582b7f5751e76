package colocate

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/approx-sched/pliant/internal/service"
	"github.com/approx-sched/pliant/internal/sim"
)

// TestRunReleasesGoroutines is the colocation counterpart of the shard
// runtime's TestShardGoroutinesReleased: the service's demand draws and the
// client's gap draws each run on a helper goroutine, and however Run
// returns — apps finished, horizon reached, or a build error after both
// exist — those helpers are gone.
func TestRunReleasesGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	settled := func(what string) {
		t.Helper()
		// A closed helper has signalled its exit but may not have returned.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, baseline %d", what, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
	sc := &Scratch{}
	for _, scratch := range []*Scratch{nil, sc, sc} {
		done := fastCfg(service.Memcached, "canneal")
		done.AppWorkScale = []float64{0.05}
		done.Scratch = scratch
		res, err := Run(done)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Apps[0].Done {
			t.Fatal("the shortened app did not finish")
		}
		settled("finished run")

		cut := fastCfg(service.Memcached, "canneal")
		cut.MaxDuration = 2 * sim.Second
		cut.Scratch = scratch
		if res, err = Run(cut); err != nil {
			t.Fatal(err)
		}
		if res.Apps[0].Done || res.Duration != cut.MaxDuration {
			t.Fatalf("run was not cut at MaxDuration: done=%v duration=%v", res.Apps[0].Done, res.Duration)
		}
		settled("MaxDuration-truncated run")

		// App names pass Validate and resolve only after the service and
		// its client are built.
		bad := fastCfg(service.Memcached, "canneal", "no-such-app")
		bad.Scratch = scratch
		if _, err := Run(bad); err == nil || !strings.Contains(err.Error(), "no-such-app") {
			t.Fatalf("want the unknown-app error, got %v", err)
		}
		settled("build error")
	}
}
