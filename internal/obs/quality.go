package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// The quality plane is the fourth obs tier (DESIGN.md §12): where spans
// and counters make a run legible in *time*, quality probes make it
// legible in *quality* — the paper's actual claims. A Probe is a named,
// direction-tagged gauge of an algorithm-quality signal (the CRR Phase 2
// objective Δ, theorem-bound headroom, BM2 matching weight, per-epoch
// stream swap rates, tasks.Suite scores) whose recordings land on two
// surfaces at once:
//
//   - the latest value as a float gauge family on /metrics
//     (edgeshed_quality_*), so a live scrape sees quality converging;
//   - a timestamped QualityPoint in the manifest's quality_timeline array,
//     the series cmd/obsdiff compares and gates across runs.
//
// The discipline is the same as every other tier: kernels accumulate in
// plain per-worker locals on the hot path and fold into a Probe only at
// the existing coarse flush points (CRR's 2^20-attempt rewire flush, BM2's
// pop-loop chunks, the stream shedder's insert epochs) and at span ends —
// so Record may take a mutex, the hot loops never do. A nil Probe (from a
// nil Recorder or Span) no-ops without allocating, pinned by
// TestDisabledPathAllocatesNothing, and recording never reads back into
// algorithm state, so kernel outputs stay bit-identical with quality
// probes on or off (pinned by the obs on/off determinism regressions).

// QualityDir tags which direction of a quality metric is good, so trend
// consumers (cmd/obsdiff's gate) know what counts as a regression.
type QualityDir uint8

const (
	// DirInfo marks a tracked-but-ungated metric (edge counts, bounds,
	// rates that shift legitimately with inputs). The zero value.
	DirInfo QualityDir = iota
	// DirLower marks a metric where lower is better (Δ, degree errors).
	DirLower
	// DirHigher marks a metric where higher is better (bound headroom,
	// task utilities, matching weight).
	DirHigher
)

// String returns the direction's manifest spelling ("info", "lower",
// "higher"), the vocabulary of QualityPoint.Better.
func (d QualityDir) String() string {
	switch d {
	case DirLower:
		return "lower"
	case DirHigher:
		return "higher"
	}
	return "info"
}

// QualityPoint is one recorded quality observation, as serialized in the
// manifest's quality_timeline array.
type QualityPoint struct {
	// OffsetNs is the recording's offset from the run's start.
	OffsetNs int64 `json:"offset_ns"`
	// Metric is the probe name (e.g. "crr.headroom.theorem1").
	Metric string `json:"metric"`
	// Ratio is the edge-preservation ratio the observation belongs to; 0
	// (omitted) for metrics without a ratio notion (suite scores).
	Ratio float64 `json:"ratio,omitempty"`
	// Value is the observed quality value.
	Value float64 `json:"value"`
	// Better is the good direction: "lower", "higher" or "info" (see
	// QualityDir); consumers gate only lower/higher metrics.
	Better string `json:"better,omitempty"`
}

// Probe is one named quality gauge: the latest value as float bits for
// /metrics, plus an append into the Recorder's quality timeline per
// recording. Fetch the handle once (the
// registry lookup takes the Recorder mutex) and Record at flush points
// only. A nil Probe is the disabled state: Record no-ops without
// allocating.
type Probe struct {
	rec  *Recorder
	name string
	dir  QualityDir

	latest   atomic.Uint64 // math.Float64bits of the last recorded value
	recorded atomic.Bool
}

// Quality returns the named probe, creating it on first use with the given
// direction (the first registration's direction wins). Nil-safe: a nil
// Recorder returns a nil Probe.
func (r *Recorder) Quality(name string, dir QualityDir) *Probe {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.probes[name]
	if !ok {
		p = &Probe{rec: r, name: name, dir: dir}
		r.probes[name] = p
	}
	return p
}

// Quality returns the named probe of the span's Recorder. Nil-safe: a nil
// Span returns a nil Probe.
func (s *Span) Quality(name string, dir QualityDir) *Probe {
	if s == nil {
		return nil
	}
	return s.rec.Quality(name, dir)
}

// Record records one observation of the metric at the given preservation
// ratio (0 for ratio-less metrics). Takes the timeline mutex — call at
// coarse flush points and span ends, never per item. Nil-safe.
func (p *Probe) Record(ratio, v float64) {
	if p == nil {
		return
	}
	p.latest.Store(math.Float64bits(v))
	p.recorded.Store(true)
	pt := QualityPoint{
		OffsetNs: time.Since(p.rec.start).Nanoseconds(),
		Metric:   p.name,
		Ratio:    ratio,
		Value:    v,
		Better:   p.dir.String(),
	}
	p.rec.qmu.Lock()
	p.rec.quality = append(p.rec.quality, pt)
	p.rec.qmu.Unlock()
}

// Value returns the probe's latest recorded value and whether anything has
// been recorded yet. A nil Probe reads (0, false).
func (p *Probe) Value() (float64, bool) {
	if p == nil {
		return 0, false
	}
	if !p.recorded.Load() {
		return 0, false
	}
	return math.Float64frombits(p.latest.Load()), true
}

// QualityValues snapshots the latest value of every probe that has
// recorded at least once, as a name → value map — the /metrics gauge view.
// A nil or probe-less Recorder returns nil.
func (r *Recorder) QualityValues() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out map[string]float64
	for name, p := range r.probes {
		if v, ok := p.Value(); ok {
			if out == nil {
				out = make(map[string]float64, len(r.probes))
			}
			out[name] = v
		}
	}
	return out
}

// QualityPoints snapshots the quality timeline in recording order (stable-
// sorted by offset, so concurrent ratio sweeps serialize deterministically
// enough to diff). A nil Recorder or an empty timeline returns nil.
func (r *Recorder) QualityPoints() []QualityPoint {
	if r == nil {
		return nil
	}
	r.qmu.Lock()
	out := append([]QualityPoint(nil), r.quality...)
	r.qmu.Unlock()
	if len(out) == 0 {
		return nil
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].OffsetNs < out[j].OffsetNs })
	return out
}
