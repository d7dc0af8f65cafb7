package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"edgeshed/internal/graph"
	"edgeshed/internal/graph/gen"
	"edgeshed/internal/obs"
)

func writeTestGraph(t *testing.T) (string, *graph.Graph) {
	t.Helper()
	g := gen.BarabasiAlbert(80, 3, 9)
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := graph.WriteEdgeListFile(path, g, nil); err != nil {
		t.Fatal(err)
	}
	return path, g
}

func TestRunAllMethods(t *testing.T) {
	in, g := writeTestGraph(t)
	for _, method := range []string{"crr", "bm2", "random", "uds", "forestfire", "spanningforest", "weighted"} {
		out := filepath.Join(t.TempDir(), method+".txt")
		if err := run(shedOpts{in: in, out: out, method: method, ps: "0.5", seed: 1}, nil); err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		red, _, err := graph.ReadEdgeListFile(out)
		if err != nil {
			t.Fatalf("%s: reading output: %v", method, err)
		}
		if red.NumEdges() == 0 {
			t.Errorf("%s: empty reduction", method)
		}
		// Exact-budget methods must hit [P]; UDS and BM2 land near it.
		want := int(math.Round(0.5 * float64(g.NumEdges())))
		switch method {
		case "crr", "random", "forestfire", "spanningforest", "weighted":
			if red.NumEdges() != want {
				t.Errorf("%s: |E'| = %d, want %d", method, red.NumEdges(), want)
			}
		}
	}
}

func TestRunMethodOptions(t *testing.T) {
	in, _ := writeTestGraph(t)
	out := filepath.Join(t.TempDir(), "r.txt")
	// Sampled betweenness and explicit steps for CRR.
	if err := run(shedOpts{in: in, out: out, method: "crr", ps: "0.4", steps: 50, samples: 20, workers: 2, seed: 3}, nil); err != nil {
		t.Fatalf("crr with options: %v", err)
	}
	// Method name matching is case-insensitive.
	if err := run(shedOpts{in: in, out: out, method: "BM2", ps: "0.4", seed: 3}, nil); err != nil {
		t.Fatalf("case-insensitive method: %v", err)
	}
}

func TestRunSweep(t *testing.T) {
	in, g := writeTestGraph(t)
	out := filepath.Join(t.TempDir(), "sweep.txt")
	if err := run(shedOpts{in: in, out: out, method: "crr", ps: "0.8,0.4", workers: 3, seed: 1}, nil); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	for _, p := range []string{"0.80", "0.40"} {
		path := filepath.Join(filepath.Dir(out), "sweep.p"+p+".txt")
		red, _, err := graph.ReadEdgeListFile(path)
		if err != nil {
			t.Fatalf("p=%s: %v", p, err)
		}
		if red.NumEdges() == 0 || red.NumEdges() >= g.NumEdges() {
			t.Errorf("p=%s: |E'| = %d", p, red.NumEdges())
		}
	}
}

func TestRunWritesManifest(t *testing.T) {
	in, g := writeTestGraph(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "r.txt")
	manifest := filepath.Join(dir, "run.json")

	// Drive the real flag path end to end: a fresh FlagSet with the shared
	// obs flags, parsed as a user would pass them.
	fs := flag.NewFlagSet("shed", flag.ContinueOnError)
	cli := obs.BindFlags(fs)
	if err := fs.Parse([]string{"-metrics", manifest, "-quiet"}); err != nil {
		t.Fatal(err)
	}
	sess, err := cli.Start("shed")
	if err != nil {
		t.Fatal(err)
	}
	runErr := run(shedOpts{in: in, out: out, method: "crr", ps: "0.5", steps: 50, workers: 2, seed: 1}, sess)
	if cerr := sess.Close(); runErr == nil {
		runErr = cerr
	}
	if runErr != nil {
		t.Fatal(runErr)
	}

	m, err := obs.ReadManifest(manifest)
	if err != nil {
		t.Fatalf("reading manifest: %v", err)
	}
	if m.Command != "shed" {
		t.Errorf("command = %q, want shed", m.Command)
	}
	if m.Graph == nil || m.Graph.Nodes != g.NumNodes() || m.Graph.Edges != g.NumEdges() {
		t.Errorf("graph info = %+v, want |V|=%d |E|=%d", m.Graph, g.NumNodes(), g.NumEdges())
	}
	if m.Seed != 1 || m.Workers != 2 {
		t.Errorf("seed=%d workers=%d, want 1 and 2", m.Seed, m.Workers)
	}
	if m.Spans == nil || len(m.Spans.Children) == 0 {
		t.Fatalf("manifest has no span tree: %+v", m.Spans)
	}
	names := map[string]bool{}
	for _, c := range m.Spans.Children {
		names[c.Name] = true
	}
	for _, want := range []string{"load", "crr.reduce", "write"} {
		if !names[want] {
			t.Errorf("span %q missing from manifest (have %v)", want, names)
		}
	}
	if m.Counters["betweenness.sources_done"] == 0 || m.Counters["crr.rewire.attempts"] == 0 {
		t.Errorf("kernel counters missing from manifest: %v", m.Counters)
	}
	if m.Mem == nil || len(m.RuntimeMetrics) == 0 {
		t.Errorf("mem/runtime metrics missing: mem=%+v metrics=%v", m.Mem, m.RuntimeMetrics)
	}
}

func TestRunStatsJSON(t *testing.T) {
	in, g := writeTestGraph(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "r.txt")
	statsPath := filepath.Join(dir, "stats.json")
	if err := run(shedOpts{in: in, out: out, method: "crr", ps: "0.6,0.3", seed: 1, statsJSON: statsPath}, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	var stats shedStats
	if err := json.Unmarshal(data, &stats); err != nil {
		t.Fatalf("parsing -stats-json: %v", err)
	}
	if stats.Method != "CRR" || stats.Nodes != g.NumNodes() || stats.Edges != g.NumEdges() {
		t.Errorf("header = %+v, want CRR over |V|=%d |E|=%d", stats, g.NumNodes(), g.NumEdges())
	}
	if len(stats.Rows) != 2 {
		t.Fatalf("%d rows, want 2", len(stats.Rows))
	}
	for i, p := range []float64{0.6, 0.3} {
		row := stats.Rows[i]
		if row.P != p {
			t.Errorf("row %d: p = %v, want %v", i, row.P, p)
		}
		want := int(math.Round(p * float64(g.NumEdges())))
		if row.KeptEdges != want {
			t.Errorf("p=%v: kept_edges = %d, want %d", p, row.KeptEdges, want)
		}
		if row.BoundName != "theorem1" || row.Bound <= 0 {
			t.Errorf("p=%v: bound %q=%v, want positive theorem1", p, row.BoundName, row.Bound)
		}
		if row.AvgDisPerNode > row.Bound {
			t.Errorf("p=%v: avg |dis| %v exceeds Theorem 1 bound %v", p, row.AvgDisPerNode, row.Bound)
		}
	}
}

// TestStatsMatchManifestQuality pins the no-drift contract between the two
// quality outputs: every -stats-json row and the manifest's quality_timeline
// derive from the same core.QualityOf call on the same Result, so the final
// timeline point of each metric must equal the stats field bit-for-bit.
func TestStatsMatchManifestQuality(t *testing.T) {
	in, _ := writeTestGraph(t)
	for _, tc := range []struct {
		method, ps, prefix, bound string
	}{
		{"crr", "0.6,0.3", "crr.", "theorem1"},
		{"bm2", "0.5", "bm2.", "theorem2"},
	} {
		t.Run(tc.method, func(t *testing.T) {
			dir := t.TempDir()
			manifest := filepath.Join(dir, "run.json")
			statsPath := filepath.Join(dir, "stats.json")

			fs := flag.NewFlagSet("shed", flag.ContinueOnError)
			cli := obs.BindFlags(fs)
			if err := fs.Parse([]string{"-metrics", manifest, "-quiet"}); err != nil {
				t.Fatal(err)
			}
			sess, err := cli.Start("shed")
			if err != nil {
				t.Fatal(err)
			}
			opt := shedOpts{in: in, out: filepath.Join(dir, "r.txt"),
				method: tc.method, ps: tc.ps, seed: 1, statsJSON: statsPath}
			runErr := run(opt, sess)
			if cerr := sess.Close(); runErr == nil {
				runErr = cerr
			}
			if runErr != nil {
				t.Fatal(runErr)
			}

			m, err := obs.ReadManifest(manifest)
			if err != nil {
				t.Fatal(err)
			}
			if len(m.Quality) == 0 {
				t.Fatal("manifest quality_timeline is empty")
			}
			data, err := os.ReadFile(statsPath)
			if err != nil {
				t.Fatal(err)
			}
			var stats shedStats
			if err := json.Unmarshal(data, &stats); err != nil {
				t.Fatal(err)
			}

			// last returns the final timeline value for metric at ratio p;
			// the end-of-reduce record always lands after any mid-run folds.
			last := func(metric string, p float64) float64 {
				found := false
				var v float64
				for _, q := range m.Quality {
					if q.Metric == metric && q.Ratio == p {
						v, found = q.Value, true
					}
				}
				if !found {
					t.Fatalf("metric %q at p=%v missing from quality_timeline", metric, p)
				}
				return v
			}
			for _, row := range stats.Rows {
				if row.BoundName != tc.bound {
					t.Fatalf("p=%v: bound_name = %q, want %q", row.P, row.BoundName, tc.bound)
				}
				for _, f := range []struct {
					metric string
					want   float64
				}{
					{tc.prefix + "kept_edges", float64(row.KeptEdges)},
					{tc.prefix + "kept_fraction", row.KeptFraction},
					{tc.prefix + "delta", row.Delta},
					{tc.prefix + "avg_dis", row.AvgDisPerNode},
					{tc.prefix + "bound." + tc.bound, row.Bound},
					{tc.prefix + "headroom." + tc.bound, row.Headroom},
				} {
					if got := last(f.metric, row.P); got != f.want {
						t.Errorf("p=%v: %s = %v in manifest, %v in stats", row.P, f.metric, got, f.want)
					}
				}
				if row.Headroom != row.Bound-row.AvgDisPerNode {
					t.Errorf("p=%v: headroom %v != bound %v - avg_dis %v", row.P, row.Headroom, row.Bound, row.AvgDisPerNode)
				}
			}
		})
	}
}

func TestRunBadPList(t *testing.T) {
	in, _ := writeTestGraph(t)
	if err := run(shedOpts{in: in, method: "crr", ps: "0.5,abc", seed: 1}, nil); err == nil {
		t.Error("malformed -p list accepted")
	}
}

func TestRunErrors(t *testing.T) {
	in, _ := writeTestGraph(t)
	out := filepath.Join(t.TempDir(), "r.txt")
	if err := run(shedOpts{out: out, method: "crr", ps: "0.5", seed: 1}, nil); err == nil {
		t.Error("missing -in accepted")
	}
	if err := run(shedOpts{in: in, out: out, method: "bogus", ps: "0.5", seed: 1}, nil); err == nil {
		t.Error("unknown method accepted")
	}
	if err := run(shedOpts{in: in, out: out, method: "crr", ps: "1.5", seed: 1}, nil); err == nil {
		t.Error("p > 1 accepted")
	}
	if err := run(shedOpts{in: filepath.Join(t.TempDir(), "nope.txt"), out: out, method: "crr", ps: "0.5", seed: 1}, nil); err == nil {
		t.Error("missing input file accepted")
	}
}

// TestRunPackedInputBitIdentical pins the acceptance contract of the .esc
// format: shedding a packed graph must produce byte-identical outputs and
// stats to shedding the text edge list it was packed from — same dense
// ids, same edge ids, same seeded tie-breaks.
func TestRunPackedInputBitIdentical(t *testing.T) {
	dir := t.TempDir()
	g := gen.BarabasiAlbert(120, 3, 11)
	// Sparse external labels force a real (non-identity) remapper through
	// the whole pipeline.
	rm := graph.NewRemapper()
	for u := 0; u < g.NumNodes(); u++ {
		rm.ID(int64(u)*7 + 100)
	}
	txt := filepath.Join(dir, "g.txt")
	if err := graph.WriteEdgeListFile(txt, g, rm); err != nil {
		t.Fatal(err)
	}
	lg, lrm, err := graph.LoadFile(txt)
	if err != nil {
		t.Fatal(err)
	}
	esc := filepath.Join(dir, "g.esc")
	if err := graph.WritePackedFile(esc, lg, lrm); err != nil {
		t.Fatal(err)
	}

	outTxt := filepath.Join(dir, "red_txt.txt")
	outEsc := filepath.Join(dir, "red_esc.txt")
	statsTxt := filepath.Join(dir, "s_txt.json")
	statsEsc := filepath.Join(dir, "s_esc.json")
	if err := run(shedOpts{in: txt, out: outTxt, method: "crr", ps: "0.6,0.3", seed: 5, statsJSON: statsTxt}, nil); err != nil {
		t.Fatalf("shed from text: %v", err)
	}
	if err := run(shedOpts{in: esc, out: outEsc, method: "crr", ps: "0.6,0.3", seed: 5, statsJSON: statsEsc}, nil); err != nil {
		t.Fatalf("shed from packed: %v", err)
	}

	for _, p := range []string{"0.60", "0.30"} {
		a, err := os.ReadFile(filepath.Join(dir, "red_txt.p"+p+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, "red_esc.p"+p+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("p=%s: reduced outputs differ between text and packed input", p)
		}
	}

	var sa, sb shedStats
	da, err := os.ReadFile(statsTxt)
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(statsEsc)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(da, &sa); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(db, &sb); err != nil {
		t.Fatal(err)
	}
	sa.Input, sb.Input = "", ""
	if !reflect.DeepEqual(sa, sb) {
		t.Errorf("stats differ beyond the input path:\ntext:   %+v\npacked: %+v", sa, sb)
	}
}

// TestRunTraceEnablesRecorder drives the -trace flag alone: it must turn
// the Recorder on, so the run's spans become tasks of the execution trace,
// and leave a non-empty trace naming the CRR phases once Close stops it.
func TestRunTraceEnablesRecorder(t *testing.T) {
	in, _ := writeTestGraph(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "r.txt")
	tracePath := filepath.Join(dir, "t.out")

	fs := flag.NewFlagSet("shed", flag.ContinueOnError)
	cli := obs.BindFlags(fs)
	if err := fs.Parse([]string{"-trace", tracePath, "-quiet"}); err != nil {
		t.Fatal(err)
	}
	sess, err := cli.Start("shed")
	if err != nil {
		t.Fatal(err)
	}
	if sess.Recorder() == nil {
		t.Fatal("-trace did not enable the recorder")
	}
	runErr := obs.Run(sess, func() error {
		return run(shedOpts{in: in, out: out, method: "crr", ps: "0.5", steps: 200, workers: 4, seed: 1}, sess)
	})
	if cerr := sess.Close(); runErr == nil {
		runErr = cerr
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty trace")
	}
	for _, task := range []string{"crr.reduce", "crr.phase1.rank", "crr.phase2.rewire"} {
		if !bytes.Contains(data, []byte(task)) {
			t.Errorf("trace does not name task %q", task)
		}
	}
}
