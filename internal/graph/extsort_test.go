package graph

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestExternalSortPackMatchesInRAM is the format's strongest guarantee: the
// bounded-memory external-sort pack must produce a byte-identical file to
// the in-RAM pack, with the memory budget squeezed hard enough to force
// many spill runs.
func TestExternalSortPackMatchesInRAM(t *testing.T) {
	text := testEdgeListText(400, 5000, 21)
	dir := t.TempDir()
	inPath := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(inPath, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}

	// In-RAM reference.
	g, rm := loadTestGraph(t, text)
	ramPath := filepath.Join(dir, "ram.esc")
	if err := WritePackedFile(ramPath, g, rm); err != nil {
		t.Fatalf("WritePackedFile: %v", err)
	}

	// External-sort with a budget of 512 keys per run — far below the
	// distinct edge count — so the spill/merge machinery genuinely runs.
	extPath := filepath.Join(dir, "ext.esc")
	stats, err := PackEdgeListFile(inPath, extPath, PackOptions{
		MemBudget: 512 * 8,
		TmpDir:    dir,
	})
	if err != nil {
		t.Fatalf("PackEdgeListFile: %v", err)
	}
	if stats.SpillChunks < 2 {
		t.Fatalf("budget did not force multiple spill runs: %d chunks for %d edges", stats.SpillChunks, stats.Edges)
	}
	if stats.Nodes != g.NumNodes() || stats.Edges != g.NumEdges() {
		t.Fatalf("stats |V|=%d |E|=%d, want |V|=%d |E|=%d", stats.Nodes, stats.Edges, g.NumNodes(), g.NumEdges())
	}
	// The budget must be far below what the in-RAM edge set costs.
	if keyBytes := int64(g.NumEdges()) * 8; stats.SpillChunks > 0 && 512*8 >= keyBytes {
		t.Fatalf("test misconfigured: budget %d not below key-set size %d", 512*8, keyBytes)
	}

	ramBytes, err := os.ReadFile(ramPath)
	if err != nil {
		t.Fatal(err)
	}
	extBytes, err := os.ReadFile(extPath)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BytesOut != int64(len(extBytes)) {
		t.Errorf("stats.BytesOut = %d, file is %d", stats.BytesOut, len(extBytes))
	}
	if len(ramBytes) != len(extBytes) {
		t.Fatalf("file sizes differ: ram %d, ext %d", len(ramBytes), len(extBytes))
	}
	for i := range ramBytes {
		if ramBytes[i] != extBytes[i] {
			t.Fatalf("files differ at byte %d: ram %#x, ext %#x", i, ramBytes[i], extBytes[i])
		}
	}

	// And the file must open and validate like any other pack.
	p, err := OpenPacked(extPath)
	if err != nil {
		t.Fatalf("OpenPacked: %v", err)
	}
	defer p.Close()
	requireSameGraph(t, p.Graph(), g, p.Remapper(), rm)
}

func TestExternalSortPackNoSpill(t *testing.T) {
	dir := t.TempDir()
	inPath := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(inPath, []byte("7 9\n9 11\n7 9\n11 11\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "g.esc")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stats, err := PackEdgeListFile(inPath, outPath, PackOptions{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("PackEdgeListFile: %v", err)
	}
	if stats.SpillChunks != 0 || stats.SpilledKeys != 0 {
		t.Errorf("tiny input spilled: %d chunks, %d keys", stats.SpillChunks, stats.SpilledKeys)
	}
	// The key buffer is sized to the input, not to the 256 MiB default
	// budget.
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 16<<20 {
		t.Errorf("packing a 4-line input allocated %d bytes, want under 16 MiB", alloc)
	}
	if stats.Nodes != 3 || stats.Edges != 2 {
		t.Errorf("stats |V|=%d |E|=%d, want 3 and 2", stats.Nodes, stats.Edges)
	}
	g, rm, err := LoadFile(outPath)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if g.NumEdges() != 2 || rm.Label(0) != 7 || rm.Label(2) != 11 {
		t.Errorf("loaded graph wrong: |E|=%d labels=%d,%d", g.NumEdges(), rm.Label(0), rm.Label(2))
	}
}

func TestExternalSortPackEmptyInput(t *testing.T) {
	dir := t.TempDir()
	inPath := filepath.Join(dir, "empty.txt")
	if err := os.WriteFile(inPath, []byte("# nothing\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "empty.esc")
	stats, err := PackEdgeListFile(inPath, outPath, PackOptions{})
	if err != nil {
		t.Fatalf("PackEdgeListFile: %v", err)
	}
	if stats.Nodes != 0 || stats.Edges != 0 {
		t.Errorf("empty input produced |V|=%d |E|=%d", stats.Nodes, stats.Edges)
	}
	g, _, err := LoadFile(outPath)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Errorf("loaded empty graph has |V|=%d |E|=%d", g.NumNodes(), g.NumEdges())
	}
}

func TestExternalSortPackBadInput(t *testing.T) {
	dir := t.TempDir()
	inPath := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(inPath, []byte("1 2\nnot numbers\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := PackEdgeListFile(inPath, filepath.Join(dir, "bad.esc"), PackOptions{})
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("parse error not propagated with its line: %v", err)
	}
	if _, err := PackEdgeListFile(filepath.Join(dir, "missing.txt"), filepath.Join(dir, "x.esc"), PackOptions{}); err == nil {
		t.Fatal("missing input accepted")
	}
}
