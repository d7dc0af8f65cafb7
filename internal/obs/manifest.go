package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
)

// Manifest is the JSON run document a cmd binary emits with -metrics: the
// run's identity (command, toolchain, host shape), its inputs (graph
// size, options, seed, workers), and its observed behaviour (span tree,
// counters, gauges, memory deltas, selected runtime metrics). Written by
// -metrics, it makes each run an artifact cmd/obsdiff can compare.
type Manifest struct {
	// Command is the emitting binary's name (e.g. "shed").
	Command string `json:"command"`
	// GoVersion is runtime.Version() of the emitting binary.
	GoVersion string `json:"go_version"`
	// GOOS and GOARCH identify the platform.
	GOOS string `json:"goos"`
	// GOARCH is the architecture half of the platform pair.
	GOARCH string `json:"goarch"`
	// CPUs is runtime.NumCPU at start.
	CPUs int `json:"cpus"`
	// GoMaxProcs is runtime.GOMAXPROCS at start.
	GoMaxProcs int `json:"gomaxprocs"`
	// StartUTC is the run's wall-clock start in RFC 3339 form with
	// nanoseconds, the order cmd/obsdiff puts runs in.
	StartUTC string `json:"start_utc"`
	// WallNs is the run's total wall-clock duration.
	WallNs int64 `json:"wall_ns"`
	// Seed is the run's random seed, when the command has one.
	Seed int64 `json:"seed"`
	// Workers is the requested worker count, when the command has one
	// (0 = GOMAXPROCS, matching the -workers flag convention).
	Workers int `json:"workers"`
	// Graph records the input graph's size, when the command loads or
	// generates one.
	Graph *GraphInfo `json:"graph,omitempty"`
	// Options maps every flag of the run to its final value, so a manifest
	// fully identifies how to reproduce the run.
	Options map[string]string `json:"options,omitempty"`
	// Spans is the run's phase-span tree.
	Spans *SpanNode `json:"spans,omitempty"`
	// Counters holds every counter's merged final value.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Gauges holds every gauge's final value.
	Gauges map[string]int64 `json:"gauges,omitempty"`
	// Histograms holds every histogram's merged bucket snapshot, reported
	// by cmd/obsdiff as p50/p99.
	Histograms map[string]*HistogramSnapshot `json:"histograms,omitempty"`
	// FlightEvents is the flight recorder's tail — the last few thousand
	// structured events in timestamp order (DESIGN.md §11). Present whenever
	// a Recorder was live, and the payload of a panic dump.
	FlightEvents []Event `json:"flight_events,omitempty"`
	// Panic carries the panic value's rendering when the manifest was dumped
	// by Run's recover hook rather than a clean Session.Close.
	Panic string `json:"panic,omitempty"`
	// PanicStack is the panicking goroutine's stack, alongside Panic.
	PanicStack string `json:"panic_stack,omitempty"`
	// Mem is the before/after memory accounting of the run.
	Mem *MemSnapshot `json:"mem,omitempty"`
	// RuntimeMetrics holds a curated set of runtime/metrics samples taken
	// at the end of the run, keyed by metric name.
	RuntimeMetrics map[string]float64 `json:"runtime_metrics,omitempty"`
	// Timeline is the background runtime sampler's timestamped series of
	// heap/GC/goroutine observations (-sample-interval); absent when the
	// sampler was off. Where Mem says how much a run allocated, the timeline
	// says when.
	Timeline []RuntimeSample `json:"runtime_timeline,omitempty"`
	// Quality is the run's quality-probe timeline (DESIGN.md §12): every
	// Probe recording in offset order; each (metric, ratio) pair's last
	// point is the series cmd/obsdiff gates. Absent when no probe recorded.
	Quality []QualityPoint `json:"quality_timeline,omitempty"`
	// GitCommit is the repository HEAD the emitting binary ran from, with a
	// "-dirty" suffix when the worktree was modified; empty outside a git
	// checkout.
	GitCommit string `json:"git_commit,omitempty"`
}

// Env returns the machine identity the manifest was recorded on, in the
// vocabulary benchmark baselines use, or nil when it records none.
func (m *Manifest) Env() *Env {
	if m.GoVersion == "" && m.GOOS == "" {
		return nil
	}
	return &Env{GoVersion: m.GoVersion, GOOS: m.GOOS, GOARCH: m.GOARCH,
		CPUs: m.CPUs, GitCommit: m.GitCommit}
}

// GraphInfo is the input graph's size as recorded in a Manifest.
type GraphInfo struct {
	// Nodes is |V|.
	Nodes int `json:"nodes"`
	// Edges is |E|.
	Edges int `json:"edges"`
}

// MemSnapshot is the before/after GC-level memory accounting of one run,
// taken from runtime.ReadMemStats at session start and close.
type MemSnapshot struct {
	// HeapAllocStartBytes is the live heap at session start.
	HeapAllocStartBytes uint64 `json:"heap_alloc_start_bytes"`
	// HeapAllocEndBytes is the live heap at session close.
	HeapAllocEndBytes uint64 `json:"heap_alloc_end_bytes"`
	// PeakHeapSysBytes is the high-water heap reservation (MemStats.HeapSys
	// at close; the runtime never shrinks it, so it is the run's peak).
	PeakHeapSysBytes uint64 `json:"peak_heap_sys_bytes"`
	// TotalAllocBytes is the bytes allocated during the session (delta of
	// MemStats.TotalAlloc).
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	// Mallocs is the heap objects allocated during the session.
	Mallocs uint64 `json:"mallocs"`
	// GCCycles is the completed GC cycles during the session.
	GCCycles uint32 `json:"gc_cycles"`
	// GCPauseTotalNs is the stop-the-world pause time accumulated during
	// the session.
	GCPauseTotalNs uint64 `json:"gc_pause_total_ns"`
}

// memDelta builds the snapshot from the session's start and end MemStats.
func memDelta(before, after *runtime.MemStats) *MemSnapshot {
	return &MemSnapshot{
		HeapAllocStartBytes: before.HeapAlloc,
		HeapAllocEndBytes:   after.HeapAlloc,
		PeakHeapSysBytes:    after.HeapSys,
		TotalAllocBytes:     after.TotalAlloc - before.TotalAlloc,
		Mallocs:             after.Mallocs - before.Mallocs,
		GCCycles:            after.NumGC - before.NumGC,
		GCPauseTotalNs:      after.PauseTotalNs - before.PauseTotalNs,
	}
}

// runtimeMetricNames is the curated runtime/metrics set recorded in
// manifests: heap shape, allocation volume, GC effort and scheduler
// width. Metrics a toolchain does not expose are silently skipped, so the
// list can name newer metrics without breaking older toolchains.
var runtimeMetricNames = []string{
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/total:bytes",
	"/gc/heap/allocs:bytes",
	"/gc/heap/goal:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/gomaxprocs:threads",
	"/sched/goroutines:goroutines",
}

// captureRuntimeMetrics samples the curated metric set, converting uint64
// and float64 kinds to float64; unsupported kinds and absent metrics are
// skipped.
func captureRuntimeMetrics() map[string]float64 {
	samples := make([]metrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	out := make(map[string]float64, len(samples))
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[s.Name] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[s.Name] = s.Value.Float64()
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// WriteFile marshals the manifest with indentation, verifies the result
// parses back (so a malformed manifest fails the producing run instead of
// a later consumer), and writes it to path.
func (m *Manifest) WriteFile(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshaling manifest: %w", err)
	}
	data = append(data, '\n')
	var check Manifest
	if err := json.Unmarshal(data, &check); err != nil {
		return fmt.Errorf("obs: manifest does not round-trip: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// ReadManifest parses a manifest file, the consumer-side counterpart of
// WriteFile used by tests and the CI smoke check.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("obs: manifest %s is empty", path)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("obs: parsing manifest %s: %w", path, err)
	}
	if m.Command == "" {
		return nil, fmt.Errorf("obs: manifest %s has no command", path)
	}
	return &m, nil
}
