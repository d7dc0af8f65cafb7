package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"edgeshed/internal/dataset"
	"edgeshed/internal/graph"
)

// setupRuns is how many times a run prepares its input; setup_s is the
// median, so one slow preparation does not move it.
const setupRuns = 3

// inputs are one workload's generated files.
type inputs struct {
	text string // edge list with scrambled labels; the checker's reference
	esc  string // packed CSR of text; "" for text workloads
	in   string // the file cmd/shed reads
}

// setupTiming is how long one preparation took.
type setupTiming struct {
	total float64 // s: generate + write text + pack
	pack  float64 // s: graph.PackEdgeListFile alone; 0 without .esc
}

// label maps dense node id u to the label written to the text file. It is
// a bijection on [0, 2^31) (multiplication by an odd constant modulo 2^31,
// then an offset), so labels are distinct, fit the checker's 32-bit edge
// keys, and differ from the dense ids the loader assigns: an output that
// wrote dense ids instead of original labels fails the check.
func label(u int) int64 {
	return int64((uint64(u)*0x9E3779B1 + 0x5BD1E995) & (1<<31 - 1))
}

// setup generates the workload's stand-in from seed into dir: the text
// edge list, and for .esc workloads its packed form. This is the work
// setup_s times.
func setup(w workload, seed int64, dir string) (inputs, setupTiming, error) {
	var t setupTiming
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return inputs{}, t, err
	}
	in := inputs{text: filepath.Join(dir, "graph.txt")}
	start := time.Now()
	spec, err := dataset.ByName(standIn)
	if err != nil {
		return inputs{}, t, err
	}
	g, err := spec.Build(w.scale, seed)
	if err != nil {
		return inputs{}, t, err
	}
	labels := make([]int64, g.NumNodes())
	for u := range labels {
		labels[u] = label(u)
	}
	if err := graph.WriteEdgeListFile(in.text, g, graph.RemapperFromLabels(labels)); err != nil {
		return inputs{}, t, fmt.Errorf("writing %s: %w", in.text, err)
	}
	in.in = in.text
	if w.inExt == ".esc" {
		in.esc = filepath.Join(dir, "graph.esc")
		p0 := time.Now()
		if _, err := graph.PackEdgeListFile(in.text, in.esc, graph.PackOptions{TmpDir: dir}); err != nil {
			return inputs{}, t, fmt.Errorf("packing %s: %w", in.text, err)
		}
		t.pack = time.Since(p0).Seconds()
		in.in = in.esc
	}
	t.total = time.Since(start).Seconds()
	return in, t, nil
}

// files lists the generated files.
func (in inputs) files() []string {
	if in.esc == "" {
		return []string{in.text}
	}
	return []string{in.text, in.esc}
}

// hashFiles returns the SHA-256 of each file, keyed by base name.
func hashFiles(paths []string) (map[string]string, error) {
	out := make(map[string]string, len(paths))
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		h := sha256.New()
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("reading %s: %w", p, err)
		}
		out[filepath.Base(p)] = hex.EncodeToString(h.Sum(nil))
	}
	return out, nil
}

// diffHashes returns an error naming the first file whose hash in got
// differs from want, or that one side lacks.
func diffHashes(want, got map[string]string) error {
	for name, h := range want {
		g, ok := got[name]
		if !ok {
			return fmt.Errorf("%s missing", name)
		}
		if g != h {
			return fmt.Errorf("%s differs", name)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("unexpected file %s", name)
		}
	}
	return nil
}
