package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"edgeshed/internal/centrality"
	"edgeshed/internal/graph"
	"edgeshed/internal/graph/gen"
)

// packedHeaderSize is the fixed byte size of the ESC header; the payload
// the CRC-32C covers starts here.
const packedHeaderSize = 64

// FuzzOpenPacked pins the packed loader's promise that kernels cannot fault
// on any file it accepts. Each input XORs one 32-bit payload word of a
// well-formed .esc file with a mask and re-stamps the payload CRC-32C, so
// the corruption reaches the structural checks instead of being caught by
// the checksum. Every file the loader accepts is then run through
// edge betweenness, CRR and BM2 whether or not the deep Verify pass
// accepts it: the load-time validation alone must make them memory-safe.
// A file that also passes Verify must satisfy Graph.Validate.
func FuzzOpenPacked(f *testing.F) {
	g := gen.BarabasiAlbert(24, 2, 5)
	labels := make([]int64, g.NumNodes())
	for u := range labels {
		labels[u] = int64(1000 + 7*u)
	}
	var buf bytes.Buffer
	if err := graph.WritePacked(&buf, g, graph.RemapperFromLabels(labels)); err != nil {
		f.Fatal(err)
	}
	base := buf.Bytes()

	// Seed a clean file, then one low-bit flip per payload section in
	// layout order: Labels (2 words per node), Offsets, Targets, EdgeID,
	// Mate, Edges. Word indices count from the start of the payload.
	n, m := uint32(g.NumNodes()), uint32(g.NumEdges())
	offsets := 2 * n
	targets := offsets + n + 1
	edgeID := targets + 2*m
	mate := edgeID + 2*m
	edges := mate + 2*m
	f.Add(uint32(0), uint32(0))
	for _, word := range []uint32{0, offsets + 3, targets + 5, edgeID + 4, mate + 6, edges + 9} {
		f.Add(word, uint32(1))
	}
	f.Add(targets+2*m-1, uint32(0x80000000)) // a target goes negative

	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	f.Fuzz(func(t *testing.T, word, mask uint32) {
		data := bytes.Clone(base)
		payloadWords := uint32(len(data)-packedHeaderSize) / 4
		off := packedHeaderSize + 4*int(word%payloadWords)
		binary.LittleEndian.PutUint32(data[off:], binary.LittleEndian.Uint32(data[off:])^mask)
		sum := crc32.Checksum(data[packedHeaderSize:], castagnoli)
		binary.LittleEndian.PutUint64(data[32:40], uint64(sum))
		path := filepath.Join(t.TempDir(), "g.esc")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := graph.OpenPacked(path)
		if err != nil {
			return
		}
		defer p.Close()
		pg := p.Graph()
		verified := p.Verify() == nil
		if verified {
			if err := pg.Validate(); err != nil {
				t.Fatalf("file passes Verify but its graph fails Validate: %v", err)
			}
		}
		centrality.EdgeBetweennessScores(pg, centrality.Options{Workers: 1})
		if _, err := (CRR{Seed: 1, Betweenness: centrality.Options{Workers: 1}}).Reduce(pg, 0.5); err != nil && verified {
			t.Fatalf("CRR on a verified file: %v", err)
		}
		if _, err := (BM2{}).Reduce(pg, 0.5); err != nil && verified {
			t.Fatalf("BM2 on a verified file: %v", err)
		}
	})
}
