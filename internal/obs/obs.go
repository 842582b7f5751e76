// Package obs is the observability layer of the online scheduler: a
// deterministic, alloc-free-on-the-hot-path subsystem that makes every
// placement, frequency-downscale, park/wake, and admission decision auditable
// back to the telemetry window that triggered it. Pliant's core claim — that
// approximation reclaims QoS headroom without violating SLAs — is only
// checkable if those decisions stop vanishing into aggregate Result fields.
//
// The package carries three channels, with sharply different determinism
// contracts:
//
//   - The virtual-time event tracer (Tracer): ring-buffered typed records
//     emitted from the scheduler's serial coordinator sections, timestamped
//     in simulated time. Because every record is emitted from code that runs
//     in global node order regardless of the shard count, the trace bytes
//     are identical for shards=1/2/4 — golden tests pin them. Exportable as
//     Chrome trace-event JSON (WriteChromeTrace), loadable in Perfetto as a
//     timeline of the simulated day with one lane per node.
//
//   - The metrics registry (Registry): counters, gauges, and histograms with
//     fixed label sets, snapshotted at scheduling-window boundaries and
//     written as Prometheus text format (WriteMetricsProm) and CSV
//     (WriteMetricsCSV). Values derive from virtual-time quantities only, so
//     these bytes are deterministic too.
//
//   - The wall-clock profiler (Profiler): per-shard episode runtime and
//     barrier-wait accounting in real nanoseconds. Wall time is inherently
//     non-deterministic, so this channel never feeds the tracer, the
//     registry, or any simulation decision; it surfaces only through
//     Result.ShardProfiles and never reaches the export writers.
//
// A nil *Observer keeps everything off: the scheduler's hot path sees one
// pointer test and runs byte-identical to an obs-free build.
package obs

// Options sizes an Observer.
type Options struct {
	// TraceCapacity bounds the tracer ring (records kept; the newest win on
	// overflow). 0 means DefaultTraceCapacity.
	TraceCapacity int
}

// DefaultTraceCapacity holds a full diurnal day of a mid-size cluster's
// decision records with comfortable headroom.
const DefaultTraceCapacity = 1 << 16

// Observer bundles the three observability channels one scheduling run
// feeds. All fields are non-nil after New; consumers that want only one
// channel still pay nothing for the others (emission is guarded per call
// site, and unused channels just stay empty).
type Observer struct {
	Tracer  *Tracer
	Metrics *Registry
	Profile *Profiler
}

// New returns an Observer with all three channels ready.
func New(opts Options) *Observer {
	capacity := opts.TraceCapacity
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Observer{
		Tracer:  NewTracer(capacity),
		Metrics: NewRegistry(),
		Profile: &Profiler{},
	}
}
