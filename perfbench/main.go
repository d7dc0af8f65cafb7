// Command perfbench is the repository's end-to-end benchmark. It runs the
// real cmd/shed binary, built from the same checkout, on com-LiveJournal
// stand-ins generated from a seed, checks every output, and reports how
// long one shed takes at all cores and at one worker, its peak memory, the
// set-up time and the degree discrepancy it gives up; times are stated at
// a fixed reference speed of the machine (calibrate.go). A traced run
// replays the same pipeline in process and charges its time and memory to
// the graph, centrality, core, matching and par layers.
//
// Build and run it from the repository root with perfbench/run.sh:
//
//	bash perfbench/run.sh --workload crr-single --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is the result as one JSON object; the
// full record, stamped with the machine's identity, is written under
// .bench_build/results. Compare two sets of records with
//
//	.bench_build/bin/perfbench compare -base <dir> -head <dir>
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// buildDir holds everything the benchmark builds and writes, relative to
// the repository root it runs from.
const buildDir = ".bench_build"

// childTimeout bounds one shed or replay process, so a hung program fails
// the run instead of outliving it.
const childTimeout = 120 * time.Second

// maxErrors caps the failure messages kept in a record.
const maxErrors = 20

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "replay":
			os.Exit(replayMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "spawn":
			os.Exit(spawnMain(os.Args[2:]))
		}
	}
	os.Exit(benchMain(os.Args[1:]))
}

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a --trace 0 run reports: what a user of shed
// sees. Failures are reported as the result's attempted and failed
// counts, not as a metric, because a metric must never read 0.
var endToEnd = []metricDef{
	{"shed_s", "s", "lower"},         // median wall time of one shed at -workers nproc, at reference speed
	{"shed_1w_s", "s", "lower"},      // the same at -workers 1
	{"peak_rss_mb", "MB", "lower"},   // median ru_maxrss of the -workers 1 shed, mapped pages included
	{"avg_dis", "dis/node", "lower"}, // mean over the ratios of Δ/|V|, recomputed from the outputs
	{"setup_s", "s", "lower"},        // median time to generate, write and pack the input, at reference speed
}

// perLayer are the metrics a --trace 1 run reports, taken in the traced
// replay at -workers nproc (medians over its repetitions); workloads.go
// maps each to the end-to-end metric it should move.
var perLayer = []metricDef{
	{"graph.load_s", "s", "lower"},
	{"graph.load_minflt", "count", "lower"},
	{"graph.load_alloc_mb", "MB", "lower"},
	{"graph.csr_s", "s", "lower"},
	{"graph.bytes_per_edge", "B/edge", "lower"},
	{"graph.write_s", "s", "lower"},
	{"graph.write_mb", "MB", "lower"},
	{"graph.pack_s", "s", "lower"},
	{"graph.esc_bytes_per_edge", "B/edge", "lower"},
	{"centrality.betweenness_s", "s", "lower"},
	{"centrality.minflt", "count", "lower"},
	{"centrality.alloc_mb", "MB", "lower"},
	{"centrality.batch_fill", "fraction", "higher"},
	{"centrality.edge_folds", "count", "lower"},
	{"centrality.words_scanned", "count", "lower"},
	{"core.crr_rank_s", "s", "lower"},
	{"core.crr_rewire_s", "s", "lower"},
	{"core.crr_rewire_ns_per_attempt", "ns", "lower"},
	{"core.crr_accept_frac", "fraction", "higher"},
	{"core.bm2_bipartite_s", "s", "lower"},
	{"core.reduce_other_s", "s", "lower"},
	{"matching.bmatching_s", "s", "lower"},
	{"matching.pq_ops", "count", "lower"},
	{"par.sweep_busy_frac", "fraction", "higher"},
	{"trace.total_s", "s", "lower"},
	{"trace.other_s", "s", "lower"},
	{"trace.overhead_s", "s", "lower"},
}

// bench is one benchmark run: a workload at a seed, measured for a fixed
// time, traced or not.
type bench struct {
	w       workload
	seed    int64
	seconds int
	trace   bool
	shedBin string // cmd/shed built from this checkout
	selfBin string // this binary, for the replay child
	work    string // scratch directory of this run
	nproc   int
	cal     *calibrator

	in    inputs
	input *inputGraph
	ref   map[string]string // hashes of the first checked run's outputs and stats

	attempted, failed int
	errs              []string
	samples           map[string][]float64 // per-repetition values by metric
	avgDis            float64
}

// result is the record of one run, written under buildDir/results.
type result struct {
	Machine   machine              `json:"machine"`
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Seconds   int                  `json:"seconds"`
	Trace     bool                 `json:"trace"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Errors    []string             `json:"errors,omitempty"`
	Metrics   map[string]float64   `json:"metrics"`
	Samples   map[string][]float64 `json:"samples"`
}

// benchMain runs one benchmark run and prints its result.
func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: crr-single, crr-sweep or bm2-text")
	seed := fs.Int64("seed", 1, "workload seed; the generated input is a function of it")
	seconds := fs.Int("seconds", 30, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced replay")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// run is benchMain after flag parsing.
func run(name string, seed int64, seconds, trace int) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d: want at least 1", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	root, err := filepath.Abs(buildDir)
	if err != nil {
		return err
	}
	b := &bench{
		w: w, seed: seed, seconds: seconds, trace: trace == 1,
		shedBin: filepath.Join(root, "bin", "shed"),
		work:    filepath.Join(root, "work", fmt.Sprintf("%s-%d-%d", w.name, seed, os.Getpid())),
		nproc:   runtime.NumCPU(),
		cal:     newCalibrator(),
		samples: make(map[string][]float64),
	}
	if _, err := os.Stat(b.shedBin); err != nil {
		return fmt.Errorf("cmd/shed binary: %w (build it with perfbench/run.sh)", err)
	}
	if b.selfBin, err = os.Executable(); err != nil {
		return err
	}
	mach := captureMachine()
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(b.work)

	if err := b.prepare(); err != nil {
		return err
	}
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	var last time.Duration
	for i := 0; i == 0 || time.Now().Add(last).Before(deadline); i++ {
		t := time.Now()
		if b.trace {
			b.traceRep(i)
		} else {
			b.rep(i)
		}
		last = time.Since(t)
	}

	res := &result{
		Machine: mach, Workload: w.name, Seed: seed, Seconds: seconds, Trace: b.trace,
		Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Errors: b.errs,
		Metrics: b.metrics(), Samples: b.samples,
	}
	path, err := writeResult(filepath.Join(root, "results"), res)
	if err != nil {
		return err
	}
	for _, e := range b.errs {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", e)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d on %s (%s, LLC %d B, commit %q): %d attempted, %d failed; record %s\n",
		w.name, seed, mach.CPUModel, mach.Env.GoVersion, mach.LLCBytes, mach.Env.GitCommit, b.attempted, b.failed, path)
	return printResult(res, b.defs())
}

// defs is the metric list this run reports.
func (b *bench) defs() []metricDef {
	if b.trace {
		return perLayer
	}
	return endToEnd
}

// prepare generates the input setupRuns times, each after a pass of the
// calibration kernel, timing each and checking
// that every preparation writes the same bytes, then parses it for the
// checker.
func (b *bench) prepare() error {
	var want map[string]string
	for i := 0; i < setupRuns; i++ {
		b.calibrate()
		in, t, err := setup(b.w, b.seed, filepath.Join(b.work, fmt.Sprintf("input%d", i)))
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		b.samples["setup_wall_s"] = append(b.samples["setup_wall_s"], t.total)
		if in.esc != "" {
			b.samples["graph.pack_s"] = append(b.samples["graph.pack_s"], t.pack)
		}
		h, err := hashFiles(in.files())
		if err != nil {
			return err
		}
		if i == 0 {
			b.in, want = in, h
			continue
		}
		if err := diffHashes(want, h); err != nil {
			return fmt.Errorf("set-up is not a function of the seed: %w", err)
		}
		if err := os.RemoveAll(filepath.Dir(in.text)); err != nil {
			return err
		}
	}
	keys, err := readEdgeFile(b.in.text)
	if err != nil {
		return err
	}
	b.input, err = newInputGraph(keys)
	return err
}

// rep is one end-to-end repetition: shed at -workers nproc, then at
// -workers 1, each right after a pass of the calibration kernel. Each
// invocation counts as attempted; one that exits nonzero or whose outputs
// fail a check counts as failed and is not timed.
func (b *bench) rep(i int) {
	b.calibrate()
	dir := filepath.Join(b.work, fmt.Sprintf("rep%d-w%d", i, b.nproc))
	wall, _, err := b.shed(dir, b.nproc)
	if b.outcome(fmt.Sprintf("rep %d -workers %d", i, b.nproc), dir, err, false) {
		b.samples["shed_wall_s"] = append(b.samples["shed_wall_s"], wall)
	}
	b.calibrate()
	dir = filepath.Join(b.work, fmt.Sprintf("rep%d-w1", i))
	wall, rss, err := b.shed(dir, 1)
	if b.outcome(fmt.Sprintf("rep %d -workers 1", i), dir, err, false) {
		b.samples["shed_1w_wall_s"] = append(b.samples["shed_1w_wall_s"], wall)
		b.samples["peak_rss_mb"] = append(b.samples["peak_rss_mb"], rss)
	}
}

// calibrate runs one pass of the calibration kernel and records its time.
func (b *bench) calibrate() {
	b.samples["calibration_s"] = append(b.samples["calibration_s"], b.cal.run())
}

// traceRep is one traced repetition: shed at -workers nproc, then the
// in-process replay at the same worker count, whose outputs must be the
// shed's bytes.
func (b *bench) traceRep(i int) {
	dir := filepath.Join(b.work, fmt.Sprintf("rep%d-w%d", i, b.nproc))
	wall, _, err := b.shed(dir, b.nproc)
	if b.outcome(fmt.Sprintf("rep %d -workers %d", i, b.nproc), dir, err, false) {
		b.samples["shed_wall_s"] = append(b.samples["shed_wall_s"], wall)
	}
	dir = filepath.Join(b.work, fmt.Sprintf("rep%d-replay", i))
	layers, err := b.replay(dir, b.nproc)
	if b.outcome(fmt.Sprintf("rep %d replay", i), dir, err, true) {
		for k, v := range layers {
			b.samples[k] = append(b.samples[k], v)
		}
	}
}

// outcome counts one invocation that wrote into dir and reports whether
// it succeeded. The first shed run to succeed is checked in full and its
// file hashes become the reference; every later invocation's files must
// match the reference byte for byte, across worker counts and between
// shed and the replay (which writes no stats file). The directory is
// removed afterwards.
func (b *bench) outcome(what, dir string, err error, replay bool) bool {
	defer os.RemoveAll(dir)
	b.attempted++
	if err == nil {
		err = b.verify(dir, replay)
	}
	if err != nil {
		b.failed++
		if len(b.errs) < maxErrors {
			b.errs = append(b.errs, what+": "+err.Error())
		}
		return false
	}
	return true
}

// verify checks the files of one invocation; see outcome.
func (b *bench) verify(dir string, replay bool) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var paths []string
	for _, e := range entries {
		paths = append(paths, filepath.Join(dir, e.Name()))
	}
	got, err := hashFiles(paths)
	if err != nil {
		return err
	}
	if b.ref == nil {
		if replay {
			return fmt.Errorf("no checked shed output to compare with")
		}
		avg, err := checkRun(b.w, b.input, dir)
		if err != nil {
			return err
		}
		b.ref, b.avgDis = got, avg
		return nil
	}
	want := b.ref
	if replay {
		want = make(map[string]string, len(b.ref))
		for k, v := range b.ref {
			if k != statsFile {
				want[k] = v
			}
		}
	}
	if err := diffHashes(want, got); err != nil {
		return fmt.Errorf("not byte-identical to the first checked -workers %d run: %w", b.nproc, err)
	}
	return nil
}

// shed runs cmd/shed once at the given worker count, writing into dir,
// and returns its wall time from start to exit and its peak RSS. It goes
// through the spawn subcommand; see spawnMain.
func (b *bench) shed(dir string, workers int) (wall, rssMB float64, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, 0, err
	}
	args := append([]string{"spawn", b.shedBin}, b.w.shedArgs(b.in.in, dir, workers)...)
	var r spawnResult
	if err := b.child(args, &r); err != nil {
		return 0, 0, fmt.Errorf("shed: %w", err)
	}
	return r.WallS, float64(r.MaxRSSKiB) * 1024 / 1e6, nil
}

// replay runs the traced replay in a child process writing into dir and
// returns its layer metrics.
func (b *bench) replay(dir string, workers int) (map[string]float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var m map[string]float64
	if err := b.child([]string{"replay", "-workload", b.w.name, "-in", b.in.in, "-out", dir, "-workers", fmt.Sprint(workers)}, &m); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	return m, nil
}

// child runs this binary with args in a process group of its own, under
// childTimeout, and decodes the JSON it prints into v. On expiry the
// whole group is killed, so no grandchild outlives the run.
func (b *bench) child(args []string, v any) error {
	cmd := exec.Command(b.selfBin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Start(); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(childTimeout):
		_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) // the group may have exited meanwhile
		<-done
		err = fmt.Errorf("killed after %s", childTimeout)
	}
	if err != nil {
		tail := strings.TrimSpace(stderr.String())
		if len(tail) > 400 {
			tail = tail[len(tail)-400:]
		}
		return fmt.Errorf("%w: %s", err, tail)
	}
	return json.Unmarshal(stdout.Bytes(), v)
}

// spawnResult is what spawnMain reports about the command it ran.
type spawnResult struct {
	WallS     float64 `json:"wall_s"`
	MaxRSSKiB int64   `json:"maxrss_kib"`
}

// spawnMain runs a command, waits for it, and prints its wall time from
// start to exit and its peak RSS. The benchmark starts shed through this
// small process rather than directly: on exec, Linux folds the peak RSS of
// the address space being replaced into the process's ru_maxrss, and
// os/exec starts a child on its parent's address space (vfork), so a
// shed started by the harness would report the harness's own peak, set by
// generating the input, whenever that is the larger.
func spawnMain(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "perfbench spawn: no command")
		return 2
	}
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Stderr = os.Stderr
	t := time.Now()
	err := cmd.Run()
	wall := time.Since(t)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench spawn:", err)
		return 1
	}
	r := spawnResult{WallS: wall.Seconds()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.MaxRSSKiB = ru.Maxrss // Linux reports ru_maxrss in KiB
	}
	if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
		return 1
	}
	return 0
}

// metrics reduces the per-repetition samples to the run's metric values.
// The end-to-end times are the medians of the wall times at the reference
// speed of calibrate.go. A metric without samples, because every
// repetition failed, reads 0.
func (b *bench) metrics() map[string]float64 {
	m := make(map[string]float64)
	if !b.trace {
		cal := median(b.samples["calibration_s"])
		m["shed_s"] = atReferenceSpeed(median(b.samples["shed_wall_s"]), cal)
		m["shed_1w_s"] = atReferenceSpeed(median(b.samples["shed_1w_wall_s"]), cal)
		m["setup_s"] = atReferenceSpeed(median(b.samples["setup_wall_s"]), cal)
		m["peak_rss_mb"] = median(b.samples["peak_rss_mb"])
		m["avg_dis"] = b.avgDis
		return m
	}
	for _, d := range perLayer {
		m[d.name] = median(b.samples[d.name])
	}
	if b.in.esc != "" {
		if fi, err := os.Stat(b.in.esc); err == nil {
			m["graph.esc_bytes_per_edge"] = float64(fi.Size()) / float64(b.input.numEdges())
		}
	}
	m["trace.overhead_s"] = m["trace.total_s"] - median(b.samples["shed_wall_s"])
	return m
}

// writeResult writes res as JSON into dir and returns the file's path.
func writeResult(dir string, res *result) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%t-%d.json", res.Workload, res.Seed, res.Trace, time.Now().UnixNano()))
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResult prints the result line: correct, attempted, failed and each
// of defs with its unit.
func printResult(res *result, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.name] = value{res.Metrics[d.name], d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}
