package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"edgeshed/internal/core"
	"edgeshed/internal/graph"
)

// tiny is a workload shape small enough for a unit test: about a thousand
// nodes of the stand-in.
func tiny(method, outExt string, ps ...float64) workload {
	return workload{name: "tiny-" + method, method: method, scale: 4000, ps: ps, samples: 8, inExt: ".txt", outExt: outExt}
}

// shedTiny generates w's input and reduces it in process the way cmd/shed
// does, writing the outputs and a -stats-json document into a temporary
// directory. It returns the checker's input and the output directory.
func shedTiny(t *testing.T, w workload) (*inputGraph, string) {
	t.Helper()
	dir := t.TempDir()
	in, _, err := setup(w, 7, filepath.Join(dir, "in"))
	if err != nil {
		t.Fatal(err)
	}
	keys, err := readEdgeFile(in.text)
	if err != nil {
		t.Fatal(err)
	}
	input, err := newInputGraph(keys)
	if err != nil {
		t.Fatal(err)
	}
	g, rm, err := graph.LoadFile(in.in)
	if err != nil {
		t.Fatal(err)
	}
	red, err := w.reducer(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		t.Fatal(err)
	}
	st := shedStats{Method: red.Name(), Nodes: g.NumNodes(), Edges: g.NumEdges()}
	for i, path := range w.outputPaths(out) {
		res, err := red.Reduce(g, w.ps[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := graph.SaveFile(path, res.Reduced, rm); err != nil {
			t.Fatal(err)
		}
		q := core.QualityOf(res, red.Name())
		st.Rows = append(st.Rows, statsRow{P: q.P, KeptEdges: q.KeptEdges, Delta: q.Delta, AvgDisPerNode: q.AvgDisPerNode, BoundName: q.BoundName, Bound: q.Bound})
	}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(out, statsFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return input, out
}

func TestCheckerAcceptsProgramOutputs(t *testing.T) {
	for _, w := range []workload{
		tiny("crr", ".txt", 0.5),
		tiny("crr", ".esc", 0.2, 0.7),
		tiny("bm2", ".txt", 0.3),
	} {
		input, out := shedTiny(t, w)
		avg, err := checkRun(w, input, out)
		if err != nil {
			t.Errorf("%s %s: checkRun on correct outputs: %v", w.name, w.outExt, err)
		}
		if avg <= 0 {
			t.Errorf("%s %s: avg_dis = %v, want > 0", w.name, w.outExt, avg)
		}
	}
}

// edit rewrites the edge lines of a text graph file.
func edit(t *testing.T, path string, f func(edges []string) []string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var header, edges []string
	for _, l := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if strings.HasPrefix(l, "#") {
			header = append(header, l)
		} else {
			edges = append(edges, l)
		}
	}
	lines := append(header, f(edges)...)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCheckerTripsOnForgedOutputs(t *testing.T) {
	for _, method := range []string{"crr", "bm2"} {
		w := tiny(method, ".txt", 0.3)
		for _, c := range []struct {
			name  string
			forge func(input *inputGraph, edges []string) []string
			want  string
		}{
			{"dropped edge", func(_ *inputGraph, e []string) []string { return e[1:] }, "kept edges"},
			{"duplicate edge", func(_ *inputGraph, e []string) []string { return append(e, e[len(e)/2]) }, "duplicate edge"},
			{"reversed duplicate", func(_ *inputGraph, e []string) []string {
				f := strings.Fields(e[0])
				return append(e, f[1]+" "+f[0])
			}, "duplicate edge"},
			{"foreign edge", func(in *inputGraph, e []string) []string {
				return append(e[1:], foreignEdge(t, in))
			}, "not an input edge"},
			{"dense ids for labels", func(_ *inputGraph, e []string) []string { return append(e[1:], "0 1") }, "not an input edge"},
		} {
			input, out := shedTiny(t, w)
			edit(t, filepath.Join(out, "out.txt"), func(e []string) []string { return c.forge(input, e) })
			_, err := checkRun(w, input, out)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s, %s: checkRun = %v, want an error containing %q", method, c.name, err, c.want)
			}
		}
	}
}

// foreignEdge returns a text line joining two input nodes that are not
// adjacent in the input.
func foreignEdge(t *testing.T, in *inputGraph) string {
	t.Helper()
	var labels []int64
	for x := range in.index {
		labels = append(labels, x)
	}
	for _, a := range labels {
		for _, b := range labels {
			k, err := edgeKey(a, b)
			if err != nil {
				continue
			}
			if _, found := slices.BinarySearch(in.keys, k); !found {
				return fmt.Sprintf("%d %d", a, b)
			}
		}
	}
	t.Fatal("input is complete")
	return ""
}

func TestCheckerTripsOnStatsMismatch(t *testing.T) {
	w := tiny("crr", ".txt", 0.5)
	input, out := shedTiny(t, w)
	path := filepath.Join(out, statsFile)
	st, err := readStats(path)
	if err != nil {
		t.Fatal(err)
	}
	st.Rows[0].Delta += 1
	data, _ := json.Marshal(st)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := checkRun(w, input, out); err == nil || !strings.Contains(err.Error(), "recomputed Δ") {
		t.Errorf("checkRun with a forged Δ = %v, want a Δ mismatch", err)
	}
}

func TestByteComparisonTripsOnOneByte(t *testing.T) {
	w := tiny("crr", ".txt", 0.5)
	input, first := shedTiny(t, w)
	b := &bench{w: w, input: input, nproc: 2}
	if err := b.verify(first, false); err != nil {
		t.Fatalf("first run: %v", err)
	}
	// A second run, as a -workers 1 shed or the replay would write it.
	again := func(replay bool, change func(data []byte)) error {
		dir := t.TempDir()
		names := []string{"out.txt"}
		if !replay {
			names = append(names, statsFile)
		}
		for _, name := range names {
			data, err := os.ReadFile(filepath.Join(first, name))
			if err != nil {
				t.Fatal(err)
			}
			if name == "out.txt" {
				change(data)
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return b.verify(dir, replay)
	}
	same := func([]byte) {}
	flip := func(data []byte) { data[len(data)-2] ^= 1 } // the last digit of the last edge
	for _, replay := range []bool{false, true} {
		if err := again(replay, same); err != nil {
			t.Errorf("replay=%t: identical bytes rejected: %v", replay, err)
		}
		if err := again(replay, flip); err == nil || !strings.Contains(err.Error(), "out.txt differs") {
			t.Errorf("replay=%t: one flipped byte = %v, want out.txt differs", replay, err)
		}
	}
}

func TestSetupIsAFunctionOfTheSeed(t *testing.T) {
	w := tiny("crr", ".txt", 0.5)
	w.inExt = ".esc"
	dir := t.TempDir()
	hash := func(sub string, seed int64) map[string]string {
		in, _, err := setup(w, seed, filepath.Join(dir, sub))
		if err != nil {
			t.Fatal(err)
		}
		h, err := hashFiles(in.files())
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	a, b, c := hash("a", 3), hash("b", 3), hash("c", 4)
	if err := diffHashes(a, b); err != nil {
		t.Errorf("same seed, different inputs: %v", err)
	}
	if diffHashes(a, c) == nil {
		t.Error("seeds 3 and 4 generated the same input")
	}
}
