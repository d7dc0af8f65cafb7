package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"edgeshed/internal/graph"
	"edgeshed/internal/graph/gen"
)

// writeSparseGraph writes a BA graph with sparse external labels as a text
// edge list and returns its path.
func writeSparseGraph(t *testing.T, dir string) string {
	t.Helper()
	g := gen.BarabasiAlbert(150, 3, 4)
	rm := graph.NewRemapper()
	for u := 0; u < g.NumNodes(); u++ {
		rm.ID(int64(u)*13 + 7)
	}
	path := filepath.Join(dir, "g.txt")
	if err := graph.WriteEdgeListFile(path, g, rm); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunInRAMAndOutOfCoreAgree(t *testing.T) {
	dir := t.TempDir()
	in := writeSparseGraph(t, dir)
	ram := filepath.Join(dir, "ram.esc")
	ext := filepath.Join(dir, "ext.esc")
	if err := run(in, ram, "", "", 0, true, nil); err != nil {
		t.Fatalf("in-RAM pack: %v", err)
	}
	if err := run(in, ext, "2KiB", dir, 2, true, nil); err != nil {
		t.Fatalf("out-of-core pack: %v", err)
	}
	a, err := os.ReadFile(ram)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(ext)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("in-RAM and out-of-core packs differ")
	}
	// The packed file must round-trip the text loader's graph exactly.
	g1, rm1, err := graph.LoadFile(in)
	if err != nil {
		t.Fatal(err)
	}
	g2, rm2, err := graph.LoadFile(ram)
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumNodes() != g2.NumNodes() || g1.NumEdges() != g2.NumEdges() {
		t.Fatalf("packed shape |V|=%d |E|=%d, text |V|=%d |E|=%d",
			g2.NumNodes(), g2.NumEdges(), g1.NumNodes(), g1.NumEdges())
	}
	for u := 0; u < rm1.Len(); u++ {
		if rm1.Label(graph.NodeID(u)) != rm2.Label(graph.NodeID(u)) {
			t.Fatalf("label of %d differs: text %d, packed %d", u, rm1.Label(graph.NodeID(u)), rm2.Label(graph.NodeID(u)))
		}
	}
}

// TestRunRepack pins that gpack reads text edge lists only: an .esc input
// is refused in RAM and out of core, and the output is not written.
func TestRunRepack(t *testing.T) {
	dir := t.TempDir()
	esc := filepath.Join(dir, "a.esc")
	if err := run(writeSparseGraph(t, dir), esc, "", "", 0, false, nil); err != nil {
		t.Fatal(err)
	}
	re := filepath.Join(dir, "b.esc")
	for _, mem := range []string{"", "1MiB"} {
		if err := run(esc, re, mem, "", 0, false, nil); err == nil {
			t.Errorf("repack of an .esc input accepted (-mem %q)", mem)
		}
	}
	if _, err := os.Stat(re); !os.IsNotExist(err) {
		t.Errorf("refused repack left an output file: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	in := writeSparseGraph(t, dir)
	out := filepath.Join(dir, "o.esc")
	if err := run("", out, "", "", 0, false, nil); err == nil {
		t.Error("missing -in accepted")
	}
	if err := run(in, "", "", "", 0, false, nil); err == nil {
		t.Error("missing -out accepted")
	}
	if err := run(in, filepath.Join(dir, "o.txt"), "", "", 0, false, nil); err == nil {
		t.Error("non-.esc output accepted")
	}
	if err := run(in, out, "lots", "", 0, false, nil); err == nil {
		t.Error("malformed -mem accepted")
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		{"", 0, false},
		{"0", 0, false},
		{"1234", 1234, false},
		{"4K", 4 << 10, false},
		{"4KB", 4 << 10, false},
		{"4KiB", 4 << 10, false},
		{"2m", 2 << 20, false},
		{"256MiB", 256 << 20, false},
		{"1G", 1 << 30, false},
		{" 8 MiB ", 8 << 20, false},
		{"-1", 0, true},
		{"x", 0, true},
		{"1TiB", 0, true},
		{"8589934591G", 8589934591 << 30, false},
		{"8589934592G", 0, true},
		{"9223372036854775807", 1<<63 - 1, false},
	}
	for _, c := range cases {
		got, err := parseBytes(c.in)
		if (err != nil) != c.err {
			t.Errorf("parseBytes(%q) err = %v, want err=%v", c.in, err, c.err)
			continue
		}
		if !c.err && got != c.want {
			t.Errorf("parseBytes(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}
