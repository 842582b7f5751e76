// Package serve is the shadow-scheduler daemon: the long-running serving
// layer over the online scheduler (DESIGN.md §16). A Server holds named
// sessions, each one or more step-driven sched.Runner instances advanced
// faster-than-real-time on a session goroutine; an HTTP API (cmd/pliant-served,
// stdlib net/http only) creates sessions from a JSON Spec, submits jobs into
// bounded ingest queues with 429 backpressure, streams decisions and window
// telemetry over Server-Sent Events, and serves Prometheus metrics. A session
// with K candidate policies is a shadow replay: one arrival feed fanned out
// to K engines in lockstep with per-window verdict diffs. Determinism
// survives serving: a session replayed through the daemon produces
// byte-identical JSON/CSV exports to the same config under batch sched.Run
// (golden-pinned at shards 1 and 4).
package serve

import (
	"fmt"
	"strings"

	"github.com/approx-sched/pliant/internal/autoscale"
	"github.com/approx-sched/pliant/internal/cluster"
	"github.com/approx-sched/pliant/internal/energy"
	"github.com/approx-sched/pliant/internal/fault"
	"github.com/approx-sched/pliant/internal/platform"
	"github.com/approx-sched/pliant/internal/sched"
	"github.com/approx-sched/pliant/internal/service"
	"github.com/approx-sched/pliant/internal/sim"
	"github.com/approx-sched/pliant/internal/trace"
	"github.com/approx-sched/pliant/internal/workload"
)

// Spec is the JSON form of one session's configuration — the same surface the
// pliant-sched flags expose, field for field (the CLI builds a Spec from its
// flags and resolves it through the same code), so a daemon session and a
// batch run cannot drift semantically. Zero values take the CLI's defaults.
type Spec struct {
	// Name labels the session (default: the server assigns "s<N>").
	Name string `json:"name,omitempty"`

	// Seed drives all randomness (default 1, as -seed).
	Seed uint64 `json:"seed,omitempty"`

	// Nodes lists the cluster's services, one node per entry: nginx,
	// memcached, mongodb (default memcached,nginx,mongodb, as -nodes).
	// MaxApps is the per-node slot count (default 3, as -maxapps).
	Nodes   []string `json:"nodes,omitempty"`
	MaxApps int      `json:"max_apps,omitempty"`

	// Policies are the candidate placement policies: first-fit, best-fit,
	// spread, telemetry, or all (expanded). One policy is a plain session;
	// two or more make it a shadow replay with per-window verdict diffs.
	// Default: telemetry.
	Policies []string `json:"policies,omitempty"`

	// HorizonSec / EpochSec bound the run (defaults 240 / 12, as
	// -horizon/-epoch).
	HorizonSec float64 `json:"horizon_sec,omitempty"`
	EpochSec   float64 `json:"epoch_sec,omitempty"`

	// Rate is the Poisson job arrival rate per second (0 = sized to
	// capacity, as -rate). SubmitOnly silences the synthetic stream
	// entirely: jobs enter only through the submission API.
	Rate       float64 `json:"rate,omitempty"`
	SubmitOnly bool    `json:"submit_only,omitempty"`

	// Load / Shape / Amp / PeriodSec / Peak set the service-load shape
	// (defaults 0.65 / diurnal / 0.25 / one day across the horizon / 1.6,
	// as -load/-shape/-amp/-period/-peak).
	Load      float64 `json:"load,omitempty"`
	Shape     string  `json:"shape,omitempty"`
	Amp       float64 `json:"amp,omitempty"`
	PeriodSec float64 `json:"period_sec,omitempty"`
	Peak      float64 `json:"peak,omitempty"`

	// TimeScale, Shards as the flags of the same names.
	TimeScale float64 `json:"timescale,omitempty"`
	Shards    int     `json:"shards,omitempty"`

	// Jobs cycles the catalog apps jobs draw from (default: seed-shuffled
	// catalog; with a trace, the candidate set), as -jobs.
	Jobs []string `json:"jobs,omitempty"`

	// Energy attaches the Table 1 power model; Autoscale selects the node
	// lifecycle controller (none, consolidate, approx-for-watts,
	// degrade-under-loss) and implies Energy, as -energy/-autoscale.
	Energy    bool   `json:"energy,omitempty"`
	Autoscale string `json:"autoscale,omitempty"`

	// Fault knobs, as -mttf/-mttr/-fault-domain/-outage/-retries/
	// -trace-faults.
	MTTFSec     float64      `json:"mttf_sec,omitempty"`
	MTTRSec     float64      `json:"mttr_sec,omitempty"`
	FaultDomain int          `json:"fault_domain,omitempty"`
	Outages     []OutageSpec `json:"outages,omitempty"`
	Retries     int          `json:"retries,omitempty"`
	TraceFaults bool         `json:"trace_faults,omitempty"`

	// Trace replays an uploaded production trace as the arrival feed.
	Trace *TraceSpec `json:"trace,omitempty"`

	// QueueCap bounds the session's ingest queue (default 64, at most
	// MaxQueueCap); a full queue answers 429 + Retry-After instead of
	// buffering unboundedly.
	QueueCap int `json:"queue_cap,omitempty"`

	// PaceMS throttles the session to one scheduling window per this many
	// wall-clock milliseconds. 0 advances flat-out (faster-than-real-time is
	// the point); a positive pace keeps a session alive long enough for
	// interactive submission and SSE tailing. Virtual-time results are
	// byte-identical at any pace — only when jobs are injected relative to
	// the virtual clock can differ, never how a given injection unfolds.
	PaceMS int `json:"pace_ms,omitempty"`
}

// OutageSpec is one scripted rack outage — the at:domain:duration triple of
// the -outage flag as JSON.
type OutageSpec struct {
	AtSec       float64 `json:"at_sec"`
	Domain      int     `json:"domain"`
	DurationSec float64 `json:"duration_sec"`
}

// TraceSpec carries a production trace in the session body: the CSV text
// inline (an upload), plus the normalization knobs of the -trace-* flags.
type TraceSpec struct {
	// Format is the schema: google or azure (default google).
	Format string `json:"format,omitempty"`

	// CSV is the raw trace text.
	CSV string `json:"csv,omitempty"`

	// RateScale compresses the time axis (0 = rescale so the last arrival
	// lands at 90% of the horizon, as -trace-scale); MaxJobs down-samples
	// (0 = twice the cluster's slots, as -trace-jobs).
	RateScale float64 `json:"rate_scale,omitempty"`
	MaxJobs   int     `json:"max_jobs,omitempty"`
}

// Resolved is a Spec lowered onto the scheduler's native config: everything
// a session (or the CLI) needs to run. Cfg.Policy is left nil — the caller
// sets it per candidate policy.
type Resolved struct {
	Name     string
	Cfg      sched.Config
	Policies []sched.Policy

	// Trace is the parsed, normalized trace when the spec carried one
	// (already attached to Cfg.Trace); surfaced so callers can print its
	// ingest summary.
	Trace *trace.Trace

	// QueueCap is the session ingest bound (defaulted); PaceMS the
	// wall-clock window pace (0 = flat-out).
	QueueCap int
	PaceMS   int
}

// Resolve lowers the spec exactly as the pliant-sched flags would.
func (sp Spec) Resolve() (Resolved, error) {
	nodeNames := sp.Nodes
	if len(nodeNames) == 0 {
		nodeNames = []string{"memcached", "nginx", "mongodb"}
	}
	maxApps := sp.MaxApps
	if maxApps == 0 {
		maxApps = 3
	}
	nodes, err := NodesFor(nodeNames, maxApps)
	if err != nil {
		return Resolved{}, err
	}

	horizon := sp.HorizonSec
	if horizon == 0 {
		horizon = 240
	}
	epoch := sp.EpochSec
	if epoch == 0 {
		epoch = 12
	}

	var tr *trace.Trace
	if sp.Trace != nil {
		if sp.SubmitOnly {
			return Resolved{}, fmt.Errorf("serve: submit_only and trace are mutually exclusive")
		}
		slots := 0
		for _, n := range nodes {
			slots += n.MaxApps
		}
		tr, err = sp.Trace.load(horizon, slots)
		if err != nil {
			return Resolved{}, err
		}
	}

	shapeKind := sp.Shape
	if shapeKind == "" {
		shapeKind = "diurnal"
	}
	amp := sp.Amp
	if amp == 0 {
		amp = 0.25
	}
	peak := sp.Peak
	if peak == 0 {
		peak = 1.6
	}
	ls, err := ShapeFor(shapeKind, amp, sp.PeriodSec, peak, horizon, tr)
	if err != nil {
		return Resolved{}, err
	}

	seed := sp.Seed
	if seed == 0 {
		seed = 1
	}
	load := sp.Load
	if load == 0 {
		load = 0.65
	}
	scale := sp.TimeScale
	if scale == 0 {
		scale = 1
	}
	cfg := sched.Config{
		Seed:       seed,
		Nodes:      nodes,
		Horizon:    sim.Duration(horizon * float64(sim.Second)),
		Epoch:      sim.Duration(epoch * float64(sim.Second)),
		JobsPerSec: sp.Rate,
		BaseLoad:   load,
		Shape:      ls,
		TimeScale:  scale,
		Shards:     sp.Shards,
		JobNames:   sp.Jobs,
	}
	if tr != nil {
		cfg.Trace = tr
		cfg.JobsPerSec = 0
	}
	if sp.SubmitOnly {
		// Submission-only sessions silence the synthetic stream: the one
		// scheduled arrival lands far past any horizon, and every job enters
		// through Runner.Inject.
		cfg.Arrivals = silentArrivals{}
	}

	auto := sp.Autoscale
	if auto == "" {
		auto = "none"
	}
	if sp.Energy || auto != "none" {
		model := energy.ModelFor(platform.TablePlatform())
		cfg.Energy = &model
	}
	switch auto {
	case "none":
	case "consolidate":
		cfg.Autoscaler = autoscale.Consolidate{}
	case "approx-for-watts":
		cfg.Autoscaler = autoscale.ApproxForWatts{}
	case "degrade-under-loss":
		cfg.Autoscaler = fault.DegradeUnderLoss{}
	default:
		return Resolved{}, fmt.Errorf("unknown autoscaler %q (none, consolidate, approx-for-watts, degrade-under-loss)", auto)
	}

	var outages []fault.Outage
	for _, o := range sp.Outages {
		outages = append(outages, fault.Outage{AtSec: o.AtSec, Domain: o.Domain, DurationSec: o.DurationSec})
	}
	plan, err := FaultPlanFor(sp.TraceFaults, tr, horizon, sp.MTTFSec, sp.MTTRSec, sp.FaultDomain, outages, sp.Retries)
	if err != nil {
		return Resolved{}, err
	}
	cfg.Faults = plan

	polNames := sp.Policies
	if len(polNames) == 0 {
		polNames = []string{"telemetry"}
	}
	policies, err := PoliciesFor(polNames)
	if err != nil {
		return Resolved{}, err
	}

	qcap := sp.QueueCap
	if qcap == 0 {
		qcap = DefaultQueueCap
	}
	if qcap < 1 || qcap > MaxQueueCap {
		return Resolved{}, fmt.Errorf("serve: queue_cap must be in [1, %d] (got %d)", MaxQueueCap, qcap)
	}

	if sp.PaceMS < 0 {
		return Resolved{}, fmt.Errorf("serve: pace_ms must be non-negative (got %d)", sp.PaceMS)
	}
	return Resolved{
		Name:     sp.Name,
		Cfg:      cfg,
		Policies: policies,
		Trace:    tr,
		QueueCap: qcap,
		PaceMS:   sp.PaceMS,
	}, nil
}

// DefaultQueueCap bounds a session's ingest queue when the spec doesn't;
// MaxQueueCap is the largest queue_cap a spec may ask for. The queue is
// allocated up front, so an unchecked value from a request body would size
// that allocation.
const (
	DefaultQueueCap = 64
	MaxQueueCap     = 4096
)

// silentArrivals is the never-firing job stream of submission-only sessions.
type silentArrivals struct{}

func (silentArrivals) Next(*sim.RNG) sim.Duration { return sim.Duration(1) << 62 }
func (silentArrivals) Rate() float64              { return 0 }

// NodesFor expands service names into named cluster nodes exactly as the
// -nodes flag does: cache-N / web-N / db-N per service class.
func NodesFor(names []string, maxApps int) ([]cluster.Node, error) {
	counts := map[string]int{}
	var nodes []cluster.Node
	for _, name := range names {
		var cls service.Class
		var prefix string
		switch name {
		case "nginx":
			cls, prefix = service.NGINX, "web"
		case "memcached":
			cls, prefix = service.Memcached, "cache"
		case "mongodb":
			cls, prefix = service.MongoDB, "db"
		default:
			return nil, fmt.Errorf("unknown service %q (nginx, memcached, mongodb)", name)
		}
		counts[prefix]++
		nodes = append(nodes, cluster.Node{
			Name:    fmt.Sprintf("%s-%d", prefix, counts[prefix]),
			Service: cls,
			MaxApps: maxApps,
		})
	}
	return nodes, nil
}

// ShapeFor builds the load shape exactly as the -shape flag does.
func ShapeFor(kind string, amp, periodSec, peak, horizonSec float64, tr *trace.Trace) (workload.Shape, error) {
	switch kind {
	case "steady":
		return workload.Steady{}, nil
	case "diurnal":
		if periodSec == 0 {
			periodSec = horizonSec // one "day" compressed into the horizon
		}
		return workload.NewDiurnal(amp, periodSec)
	case "flash":
		return workload.NewFlash(1, peak, horizonSec/3, horizonSec/6)
	case "trace":
		// The services ride the replayed trace's own rate curve.
		if tr == nil {
			return nil, fmt.Errorf("shape trace needs a trace")
		}
		times, mult, err := tr.RateShape(12)
		if err != nil {
			return nil, err
		}
		return workload.NewReplay(times, mult)
	default:
		return nil, fmt.Errorf("unknown shape %q (steady, diurnal, flash, trace)", kind)
	}
}

// PoliciesFor resolves policy names exactly as the -policy flag does, with
// "all" expanding to the full set. Duplicates are rejected: a shadow
// session's verdicts are keyed by policy name.
func PoliciesFor(names []string) ([]sched.Policy, error) {
	var out []sched.Policy
	seen := map[string]bool{}
	add := func(p sched.Policy) error {
		if seen[p.Name()] {
			return fmt.Errorf("duplicate policy %q", p.Name())
		}
		seen[p.Name()] = true
		out = append(out, p)
		return nil
	}
	for _, name := range names {
		switch name {
		case "first-fit":
			if err := add(sched.FirstFit{}); err != nil {
				return nil, err
			}
		case "best-fit":
			if err := add(sched.BestFit{}); err != nil {
				return nil, err
			}
		case "spread":
			if err := add(sched.Spread{}); err != nil {
				return nil, err
			}
		case "telemetry":
			if err := add(sched.TelemetryAware{}); err != nil {
				return nil, err
			}
		case "all":
			for _, p := range []sched.Policy{sched.FirstFit{}, sched.BestFit{}, sched.Spread{}, sched.TelemetryAware{}} {
				if err := add(p); err != nil {
					return nil, err
				}
			}
		default:
			return nil, fmt.Errorf("unknown policy %q (first-fit, best-fit, spread, telemetry, all)", name)
		}
	}
	return out, nil
}

// FaultPlanFor assembles a fault plan exactly as the fault flags do: nil when
// no knob was touched, a trace-derived MTTF/MTTR base for trace faults, with
// the explicit knobs layered on top either way.
func FaultPlanFor(fromTrace bool, tr *trace.Trace, horizonSec, mttf, mttr float64,
	domain int, outages []fault.Outage, retries int) (*fault.Plan, error) {
	var plan fault.Plan
	armed := false
	if mttf < 0 || mttr < 0 {
		return nil, fmt.Errorf("mttf/mttr must be non-negative virtual seconds (0 = off/default)")
	}
	if fromTrace {
		if tr == nil {
			return nil, fmt.Errorf("trace faults need a trace")
		}
		derived, err := fault.FromTrace(tr, horizonSec)
		if err != nil {
			return nil, err
		}
		plan = derived
		armed = true
	}
	if mttf > 0 {
		plan.MTTFSec = mttf
		armed = true
	}
	if mttr > 0 {
		plan.MTTRSec = mttr
	}
	if domain > 0 {
		plan.DomainSize = domain
	}
	if retries != 0 {
		plan.RetryBudget = retries
	}
	if len(outages) > 0 {
		plan.Outages = outages
		armed = true
	}
	if !armed {
		return nil, nil
	}
	return &plan, nil
}

// load parses and normalizes the trace spec for replay over the horizon,
// mirroring the CLI's loadTrace.
func (ts *TraceSpec) load(horizonSec float64, slots int) (*trace.Trace, error) {
	format := ts.Format
	if format == "" {
		format = "google"
	}
	f, err := trace.FormatByName(format)
	if err != nil {
		return nil, err
	}
	if ts.CSV == "" {
		return nil, fmt.Errorf("serve: trace needs csv text")
	}
	tr, err := trace.Parse(strings.NewReader(ts.CSV), f)
	if err != nil {
		return nil, err
	}
	opts := trace.Options{RateScale: ts.RateScale}
	if ts.RateScale == 0 {
		opts.TargetSpanSec = 0.9 * horizonSec
	}
	if ts.MaxJobs > 0 {
		opts.MaxJobs = ts.MaxJobs
	} else {
		opts.MaxJobs = 2 * slots
	}
	return tr.Normalize(opts)
}
