package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edgeshed/internal/benchfmt"
	"edgeshed/internal/obs"
)

func writeJSON(t *testing.T, dir, name string, v any) string {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// compare runs the command over args and fails the test on unusable input.
func compare(t *testing.T, maxRegress string, args ...string) (int, string) {
	t.Helper()
	var out bytes.Buffer
	code, err := run(&out, args, maxRegress, nil)
	if err != nil {
		t.Fatalf("run(%v, %q): %v\n%s", args, maxRegress, err, out.String())
	}
	return code, out.String()
}

// requireContains fails the test for every want missing from out.
func requireContains(t *testing.T, out string, wants ...string) {
	t.Helper()
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func benchReport(nsPerOp float64, allocs int64) *benchfmt.Report {
	return &benchfmt.Report{
		Env: &obs.Env{GoVersion: "go1.99", GOOS: "linux", GOARCH: "amd64", CPUs: 8},
		Benchmarks: []benchfmt.Benchmark{
			{Name: "CRRSweep", Procs: 8, Iterations: 10, NsPerOp: nsPerOp, AllocsPerOp: allocs},
		},
	}
}

// TestSyntheticRegressionGate is the benchmark gate end to end: a ≥25%
// ns/op or allocs/op regression under -max-regress 25% exits 1, a smaller
// one, an identical pair and an improvement exit 0.
func TestSyntheticRegressionGate(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", benchReport(100_000_000, 40))
	for _, tc := range []struct {
		name string
		cur  *benchfmt.Report
		want int
	}{
		{"regressed-30pct", benchReport(130_000_000, 40), 1},
		{"regressed-10pct", benchReport(110_000_000, 40), 0},
		{"identical", benchReport(100_000_000, 40), 0},
		{"improved", benchReport(70_000_000, 40), 0},
		{"allocs-regressed", benchReport(100_000_000, 60), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cur := writeJSON(t, t.TempDir(), "cur.json", tc.cur)
			if code, out := compare(t, "25%", base, cur); code != tc.want {
				t.Errorf("exit code = %d, want %d\n%s", code, tc.want, out)
			}
		})
	}
}

// TestReportOnlyWithoutGate pins that an empty -max-regress never breaches,
// even on a huge regression, and that the move is reported.
func TestReportOnlyWithoutGate(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", benchReport(100, 0))
	cur := writeJSON(t, dir, "cur.json", benchReport(1000, 0))
	code, out := compare(t, "", base, cur)
	if code != 0 {
		t.Fatalf("report-only exit code = %d, want 0\n%s", code, out)
	}
	requireContains(t, out, "| CRRSweep ns/op | lower | 100 | 1000 | +900.0% |")
}

// TestEnvRefusal pins the machine-identity rule: runs from different
// machines land in separate groups, which reports fine but refuses a gate
// (exit 2), and an artifact without machine identity is unusable input.
func TestEnvRefusal(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", benchReport(100, 0))
	other := benchReport(100, 0)
	other.Env.GOARCH = "arm64"
	cur := writeJSON(t, dir, "cur.json", other)

	if _, err := run(&bytes.Buffer{}, []string{base, cur}, "25%", nil); err == nil {
		t.Error("cross-machine comparison accepted under a gate")
	}
	code, out := compare(t, "", base, cur)
	if code != 0 {
		t.Errorf("cross-machine report exit code = %d, want 0", code)
	}
	requireContains(t, out, "## benchmarks — linux/amd64, 8 CPUs", "## benchmarks — linux/arm64, 8 CPUs")

	noEnv := benchReport(100, 0)
	noEnv.Env = nil
	curNoEnv := writeJSON(t, dir, "noenv.json", noEnv)
	if _, err := run(&bytes.Buffer{}, []string{base, curNoEnv}, "", nil); err == nil ||
		!strings.Contains(err.Error(), "no machine identity") {
		t.Errorf("env-less baseline: err = %v, want a missing-identity error", err)
	}
	m := manifest(80_000_000, 1000)
	m.GoVersion, m.GOOS = "", ""
	if _, err := run(&bytes.Buffer{}, []string{writeJSON(t, dir, "m.json", manifest(80_000_000, 1000)),
		writeJSON(t, dir, "mnoenv.json", m)}, "", nil); err == nil {
		t.Error("env-less manifest accepted")
	}
}

// TestToolchainDiffSharesGroup pins that a Go toolchain bump is a warning,
// not a new machine: the two runs share a group, and the gate compares them.
func TestToolchainDiffSharesGroup(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", benchReport(100, 0))
	bumped := benchReport(200, 0)
	bumped.Env.GoVersion = "go2.0"
	code, out := compare(t, "25%", base, writeJSON(t, dir, "cur.json", bumped))
	if code != 1 {
		t.Errorf("exit code = %d, want 1 (the bumped run is gated)\n%s", code, out)
	}
	if n := strings.Count(out, "## benchmarks"); n != 1 {
		t.Errorf("%d groups, want 1\n%s", n, out)
	}
	requireContains(t, out, "warning: go toolchain differs: go1.99 vs go2.0")
}

func manifest(sweepNs int64, attempts int64) *obs.Manifest {
	return &obs.Manifest{
		Command: "shed", GoVersion: "go1.99", GOOS: "linux", GOARCH: "amd64", CPUs: 8,
		StartUTC: "2026-01-01T10:00:00Z",
		WallNs:   sweepNs + 5_000_000,
		Counters: map[string]int64{"crr.rewire.attempts": attempts},
		Spans: &obs.SpanNode{
			Name: "shed", DurNs: sweepNs + 5_000_000, Ended: true,
			Children: []*obs.SpanNode{
				{Name: "crr.sweep", DurNs: sweepNs, Ended: true},
				{Name: "load", DurNs: 200_000, Ended: true},
			},
		},
	}
}

// TestManifestDiff pins the manifest side: counter deltas and span walls
// keyed by slash-joined path are reported, and wall times never gate —
// they are too noisy on one box (DESIGN.md §8.4).
func TestManifestDiff(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", manifest(80_000_000, 1000))
	code, out := compare(t, "25%", base, writeJSON(t, dir, "same.json", manifest(80_000_000, 1000)))
	if code != 0 {
		t.Fatalf("identical manifests exit code = %d, want 0\n%s", code, out)
	}
	requireContains(t, out, "| counter crr.rewire.attempts | info | 1000 | 1000 | +0.0% |")

	slow := manifest(120_000_000, 1500)
	slow.Spans.Children[1].DurNs = 2_000_000
	code, out = compare(t, "25%", base, writeJSON(t, dir, "slow.json", slow))
	if code != 0 {
		t.Fatalf("slower walls exit code = %d, want 0 (walls are info)\n%s", code, out)
	}
	requireContains(t, out,
		"| span shed/crr.sweep wall_ns | info | 80000000 | 120000000 | +50.0% |",
		"| span shed/load wall_ns | info | 200000 | 2000000 | +900.0% |",
		"| wall_ns | info | 85000000 | 125000000 | +47.1% |",
		"| counter crr.rewire.attempts | info | 1000 | 1500 | +50.0% |")
}

// TestMixedKindsRefused pins that a manifest cannot be diffed against a
// benchmark baseline: no two artifacts share a command.
func TestMixedKindsRefused(t *testing.T) {
	dir := t.TempDir()
	b := writeJSON(t, dir, "bench.json", benchReport(100, 0))
	m := writeJSON(t, dir, "manifest.json", manifest(1_000_000, 1))
	if _, err := run(&bytes.Buffer{}, []string{b, m}, "", nil); err == nil {
		t.Error("mixed kinds accepted")
	}
}

func TestParseMaxRegress(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want float64
		bad  bool
	}{
		{"", -1, false},
		{"25%", 0.25, false},
		{"0.25", 0.25, false},
		{"100%", 1, false},
		{"-5%", 0, true},
		{"nope", 0, true},
	} {
		got, err := parseMaxRegress(tc.in)
		if tc.bad != (err != nil) {
			t.Errorf("parseMaxRegress(%q) err = %v, want bad=%v", tc.in, err, tc.bad)
		}
		if err == nil && got != tc.want {
			t.Errorf("parseMaxRegress(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestDetectKindErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := readArtifact(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("absent file accepted")
	}
	other := filepath.Join(dir, "other.json")
	if err := os.WriteFile(other, []byte(`{"hello": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readArtifact(other); err == nil {
		t.Error("unrecognized document accepted")
	}
	// Named on the command line, an unrecognized file is unusable input.
	base := writeJSON(t, dir, "base.json", benchReport(100, 0))
	if _, err := run(&bytes.Buffer{}, []string{base, base, other}, "", nil); err == nil {
		t.Error("unrecognized file argument accepted")
	}
}

// histSnap builds a snapshot whose observations all sit in one power-of-two
// bucket, so quantiles land predictably near that bucket's range.
func histSnap(value int64, n int64) *obs.HistogramSnapshot {
	b := 0
	for v := value; v > 0; v >>= 1 {
		b++
	}
	buckets := make([]int64, b+1)
	buckets[b] = n
	return &obs.HistogramSnapshot{Count: n, Sum: value * n, Buckets: buckets}
}

// TestManifestDiffHistograms pins the histogram side of a manifest diff:
// p50/p99 are reported for every family, a family present in one run only
// shows "—" in the other, and no family gates, whatever its unit — a
// higher bm2.gain_micros is a better BM2 run, not a regression.
func TestManifestDiffHistograms(t *testing.T) {
	dir := t.TempDir()
	withHists := func(sweepNs, gain int64) *obs.Manifest {
		m := manifest(80_000_000, 1000)
		m.Histograms = map[string]*obs.HistogramSnapshot{
			"crr.sweep.ratio_ns":    histSnap(sweepNs, 3),
			"bm2.gain_micros":       histSnap(gain, 10),
			"msbfs.batch_occupancy": histSnap(64, 100),
		}
		return m
	}
	base := writeJSON(t, dir, "hbase.json", withHists(40_000_000, 100_000))
	code, out := compare(t, "25%", base, writeJSON(t, dir, "hsame.json", withHists(40_000_000, 100_000)))
	if code != 0 {
		t.Fatalf("identical histograms exit code = %d, want 0\n%s", code, out)
	}
	requireContains(t, out,
		"| histogram crr.sweep.ratio_ns p50 | info |",
		"| histogram crr.sweep.ratio_ns p99 | info |",
		"| histogram msbfs.batch_occupancy p50 | info |")

	moved := withHists(160_000_000, 400_000)
	moved.Histograms["msbfs.batch_occupancy"] = histSnap(1, 100)
	moved.Histograms["crr.delta_abs_micros"] = histSnap(500, 42)
	code, out = compare(t, "25%", base, writeJSON(t, dir, "hmoved.json", moved))
	if code != 0 {
		t.Fatalf("moved histograms exit code = %d, want 0 (histograms are info)\n%s", code, out)
	}
	requireContains(t, out, "| histogram crr.delta_abs_micros p50 | info | — |")
}

// TestDirtyCommitWarnings pins that artifacts stamped with a "-dirty"
// commit are flagged in any position, and clean ones are not.
func TestDirtyCommitWarnings(t *testing.T) {
	dir := t.TempDir()

	dirty := benchReport(100, 0)
	dirty.Env.GitCommit = "abc1234-dirty"
	base := writeJSON(t, dir, "dirty.json", dirty)
	cur := writeJSON(t, dir, "clean.json", benchReport(100, 0))
	_, out := compare(t, "", base, cur)
	requireContains(t, out, "dirty.json was measured on a dirty worktree (abc1234-dirty)")

	dm := manifest(80_000_000, 1000)
	dm.GitCommit = "def5678-dirty"
	dm.StartUTC = "2026-01-02T10:00:00Z"
	mbase := writeJSON(t, dir, "m.json", manifest(80_000_000, 1000))
	_, out = compare(t, "", mbase, writeJSON(t, dir, "mdirty.json", dm))
	requireContains(t, out, "- run 2: mdirty.json (2026-01-02T10:00:00Z) go1.99 @def5678-dirty",
		"mdirty.json was measured on a dirty worktree (def5678-dirty)")

	_, out = compare(t, "", mbase, writeJSON(t, dir, "mclean.json", manifest(80_000_000, 1000)))
	if strings.Contains(out, "dirty worktree") {
		t.Errorf("clean manifests flagged as dirty:\n%s", out)
	}
}

// qmanifest builds a minimal shed run manifest with the given start stamp,
// commit and quality timeline, on a fixed machine identity.
func qmanifest(start, commit string, quality ...obs.QualityPoint) *obs.Manifest {
	return &obs.Manifest{
		Command: "shed", GoVersion: "go1.23.0", GOOS: "linux", GOARCH: "amd64", CPUs: 8,
		StartUTC: start, GitCommit: commit, Quality: quality,
	}
}

// qp is a quality-point literal helper.
func qp(metric string, ratio, value float64, better string) obs.QualityPoint {
	return obs.QualityPoint{Metric: metric, Ratio: ratio, Value: value, Better: better}
}

// TestDirtyCommitWarning pins that the trend report over a directory
// flags the manifest stamped with a "-dirty" commit and not its clean
// neighbour.
func TestDirtyCommitWarning(t *testing.T) {
	dir := t.TempDir()
	writeJSON(t, dir, "run1.json", qmanifest("2026-01-01T10:00:00Z", "abc1234-dirty",
		qp("crr.delta", 0.5, 24.5, "lower")))
	writeJSON(t, dir, "run2.json", qmanifest("2026-01-02T10:00:00Z", "bbb2222",
		qp("crr.delta", 0.5, 24.5, "lower")))
	code, out := compare(t, "", dir)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\n%s", code, out)
	}
	requireContains(t, out, "run1.json was measured on a dirty worktree (abc1234-dirty)")
	if strings.Contains(out, "run2.json was measured on a dirty worktree") {
		t.Errorf("clean run flagged as dirty:\n%s", out)
	}
}

func TestReportTrendTable(t *testing.T) {
	dir := t.TempDir()
	writeJSON(t, dir, "run1.json", qmanifest("2026-01-01T10:00:00Z", "aaa1111",
		qp("crr.delta", 0.5, 30, "lower"),
		qp("crr.delta", 0.5, 24.5, "lower"), // later point wins the column
		qp("crr.headroom.theorem1", 0.5, 2.5, "higher")))
	writeJSON(t, dir, "run2.json", qmanifest("2026-01-02T10:00:00Z", "bbb2222",
		qp("crr.delta", 0.5, 24.5, "lower"),
		qp("crr.kept_edges", 0.5, 117, "info"))) // only in run 2
	writeJSON(t, dir, "run3.json", qmanifest("2026-01-03T10:00:00Z", "ccc3333",
		qp("crr.delta", 0.5, 20, "lower")))
	code, out := compare(t, "", dir)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	requireContains(t, out,
		"## shed — linux/amd64, 8 CPUs",
		"- run 1: run1.json (2026-01-01T10:00:00Z) go1.23.0 @aaa1111",
		"- run 2: run2.json (2026-01-02T10:00:00Z) go1.23.0 @bbb2222",
		"| series | better | run 1 | run 2 | run 3 | latest vs previous |",
		"| crr.delta@p=0.5 | lower | 24.5 | 24.5 | 20 | -18.4% |",
		"| crr.headroom.theorem1@p=0.5 | higher | 2.5 | — | — | — |",
		"| crr.kept_edges@p=0.5 | info | — | 117 | — | — |")
}

// TestStartTimeOrder pins that runs are ordered by their parsed start
// time: of two runs in the same second, the one stamped on the whole
// second started first, although both its file name and its stamp sort
// after the other's as strings. Second-resolution stamps still read.
func TestStartTimeOrder(t *testing.T) {
	dir := t.TempDir()
	writeJSON(t, dir, "a_later.json", qmanifest("2026-01-01T10:00:00.5Z", "",
		qp("crr.delta", 0.5, 40, "lower")))
	writeJSON(t, dir, "b_earlier.json", qmanifest("2026-01-01T10:00:00Z", "",
		qp("crr.delta", 0.5, 20, "lower")))
	code, out := compare(t, "10%", dir)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (20 -> 40 in start order)\n%s", code, out)
	}
	requireContains(t, out,
		"- run 1: b_earlier.json (2026-01-01T10:00:00Z)",
		"- run 2: a_later.json (2026-01-01T10:00:00.5Z)",
		"shed crr.delta@p=0.5: 20 -> 40")
}

func TestGateCatchesRegression(t *testing.T) {
	dir := t.TempDir()
	writeJSON(t, dir, "run1.json", qmanifest("2026-01-01T10:00:00Z", "",
		qp("crr.delta", 0.5, 20, "lower"),
		qp("suite.top-10% query", 0, 0.9, "higher")))
	writeJSON(t, dir, "run2.json", qmanifest("2026-01-02T10:00:00Z", "",
		qp("crr.delta", 0.5, 20, "lower"),            // unchanged: ok
		qp("suite.top-10% query", 0, 0.4, "higher"))) // utility halved: breach
	code, out := compare(t, "10%", dir)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (gate breach)\n%s", code, out)
	}
	requireContains(t, out, "BREACH: 1 series", "shed suite.top-10% query: 0.9 -> 0.4")
	if strings.Contains(out, "shed crr.delta@") {
		t.Errorf("unchanged series reported as breach:\n%s", out)
	}
}

func TestGatePassesOnIdenticalAndSkipsInfo(t *testing.T) {
	dir := t.TempDir()
	pts := func(bound float64) []obs.QualityPoint {
		return []obs.QualityPoint{
			qp("crr.delta", 0.5, 24.5, "lower"),
			qp("crr.headroom.theorem1", 0.5, 2.5, "higher"),
			qp("crr.bound.theorem1", 0.5, bound, "info"), // info: moves freely
		}
	}
	writeJSON(t, dir, "run1.json", qmanifest("2026-01-01T10:00:00Z", "", pts(2.8)...))
	writeJSON(t, dir, "run2.json", qmanifest("2026-01-02T10:00:00Z", "", pts(99)...))
	code, out := compare(t, "10%", dir)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\n%s", code, out)
	}
	requireContains(t, out, "ok: no directional series regressed beyond 10%")
}

// TestEnvGroupsSeparate pins that manifests from different machines never
// share a trend line: without a gate they report as two groups.
func TestEnvGroupsSeparate(t *testing.T) {
	dir := t.TempDir()
	m2 := qmanifest("2026-01-02T10:00:00Z", "", qp("crr.delta", 0.5, 100, "lower"))
	m2.CPUs = 64 // different machine
	writeJSON(t, dir, "run1.json", qmanifest("2026-01-01T10:00:00Z", "", qp("crr.delta", 0.5, 10, "lower")))
	writeJSON(t, dir, "run2.json", m2)
	code, out := compare(t, "", dir)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\n%s", code, out)
	}
	if n := strings.Count(out, "## shed —"); n != 2 {
		t.Errorf("%d shed groups, want 2 (one per machine):\n%s", n, out)
	}
}

// TestBenchBaselinesTrend pins the baseline side of an N-run report: one
// row per benchmark, runs in argument order, dirty stamps flagged, and
// ns/op gated on its latest move.
func TestBenchBaselinesTrend(t *testing.T) {
	dir := t.TempDir()
	env := &obs.Env{GoVersion: "go1.23.0", GOOS: "linux", GOARCH: "amd64", CPUs: 8, GitCommit: "ccc3333-dirty"}
	report := func(ns float64) *benchfmt.Report {
		return &benchfmt.Report{Env: env, Benchmarks: []benchfmt.Benchmark{
			{Name: "CRRReduce", Procs: 8, Iterations: 10, NsPerOp: ns},
		}}
	}
	b := writeJSON(t, dir, "BENCH_b.json", report(1200))
	a := writeJSON(t, dir, "BENCH_a.json", report(1000))
	code, out := compare(t, "10%", a, b)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (ns/op +20%%)\n%s", code, out)
	}
	requireContains(t, out,
		"## benchmarks — linux/amd64, 8 CPUs",
		"| CRRReduce ns/op | lower | 1000 | 1200 | +20.0% |",
		"dirty worktree")
	// Argument order, not file name order, decides which run is latest.
	if code, out := compare(t, "10%", b, a); code != 0 {
		t.Errorf("improvement exit code = %d, want 0\n%s", code, out)
	}
}

func TestSkipsUnrecognizedFiles(t *testing.T) {
	dir := t.TempDir()
	writeJSON(t, dir, "run1.json", qmanifest("2026-01-01T10:00:00Z", "", qp("crr.delta", 0.5, 24.5, "lower")))
	writeJSON(t, dir, "run2.json", qmanifest("2026-01-02T10:00:00Z", "", qp("crr.delta", 0.5, 24.5, "lower")))
	if err := os.WriteFile(filepath.Join(dir, "stray.json"), []byte(`{"neither": true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "broken.json"), []byte(`not json`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out := compare(t, "", dir); code != 0 {
		t.Fatalf("stray files broke the report: exit code %d\n%s", code, out)
	}
}

func TestErrors(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name       string
		args       []string
		maxRegress string
	}{
		{"missing path", []string{filepath.Join(dir, "nope")}, ""},
		{"empty directory", []string{t.TempDir()}, ""},
		{"malformed -max-regress", []string{dir}, "banana"},
		{"one artifact", []string{writeJSON(t, dir, "run1.json", qmanifest("2026-01-01T10:00:00Z", ""))}, ""},
		{"bad start_utc", []string{dir, writeJSON(t, t.TempDir(), "run2.json", qmanifest("yesterday", ""))}, ""},
	} {
		if _, err := run(&bytes.Buffer{}, tc.args, tc.maxRegress, nil); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}
