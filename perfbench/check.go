package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"edgeshed/internal/graph"
)

// inputGraph is the checker's view of a workload input, parsed by the
// benchmark itself from the text edge list it wrote: what every output is
// checked against.
type inputGraph struct {
	keys  []uint64        // canonical edge keys (see edgeKey), sorted
	index map[int64]int32 // label -> node index
	deg   []int32         // degree by node index
}

// edgeKey packs an undirected edge of 32-bit labels into one orderable
// word, the smaller label high.
func edgeKey(a, b int64) (uint64, error) {
	if a < 0 || b < 0 || a > math.MaxUint32 || b > math.MaxUint32 {
		return 0, fmt.Errorf("label out of the checker's 32-bit range in edge %d %d", a, b)
	}
	if a == b {
		return 0, fmt.Errorf("self-loop %d %d", a, b)
	}
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b), nil
}

// keyLabels inverts edgeKey.
func keyLabels(k uint64) (int64, int64) { return int64(k >> 32), int64(uint32(k)) }

// parseEdgeList reads a SNAP text edge list ('#' comments, two labels a
// line) into edge keys in file order. Unlike the program's loader it keeps
// duplicates, so the checker can see them.
func parseEdgeList(r io.Reader) ([]uint64, error) {
	var keys []uint64
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for line := 1; sc.Scan(); line++ {
		s := strings.TrimSpace(sc.Text())
		if s == "" || s[0] == '#' {
			continue
		}
		f := strings.Fields(s)
		if len(f) != 2 {
			return nil, fmt.Errorf("line %d: want 2 fields, have %d", line, len(f))
		}
		a, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		b, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		k, err := edgeKey(a, b)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		keys = append(keys, k)
	}
	return keys, sc.Err()
}

// readEdgeFile reads the edges of a text or .esc graph file as keys of
// their original labels. A packed file is read with the program's own
// loader after its full structural verification; its format cannot hold a
// duplicate edge.
func readEdgeFile(path string) ([]uint64, error) {
	if strings.HasSuffix(path, ".esc") {
		p, err := graph.OpenPacked(path)
		if err != nil {
			return nil, err
		}
		defer p.Close()
		if err := p.Verify(); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		rm := p.Remapper()
		edges := p.Graph().Edges()
		keys := make([]uint64, len(edges))
		for i, e := range edges {
			k, err := edgeKey(rm.Label(e.U), rm.Label(e.V))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			keys[i] = k
		}
		return keys, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	keys, err := parseEdgeList(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return keys, nil
}

// newInputGraph indexes an input edge list. The input must be simple.
// It takes keys over and sorts them.
func newInputGraph(keys []uint64) (*inputGraph, error) {
	in := &inputGraph{keys: keys, index: make(map[int64]int32)}
	for _, k := range keys {
		a, b := keyLabels(k)
		u, v := in.node(a), in.node(b)
		in.deg[u]++
		in.deg[v]++
	}
	slices.Sort(in.keys)
	for i := 1; i < len(in.keys); i++ {
		if in.keys[i] == in.keys[i-1] {
			a, b := keyLabels(in.keys[i])
			return nil, fmt.Errorf("input has duplicate edge %d %d", a, b)
		}
	}
	return in, nil
}

// node returns the index of label x, assigning the next one on first
// sight.
func (in *inputGraph) node(x int64) int32 {
	u, ok := in.index[x]
	if !ok {
		u = int32(len(in.deg))
		in.index[x] = u
		in.deg = append(in.deg, 0)
	}
	return u
}

// numNodes and numEdges are |V| and |E| of the input.
func (in *inputGraph) numNodes() int { return len(in.deg) }
func (in *inputGraph) numEdges() int { return len(in.keys) }

// shedStats mirrors the fields of cmd/shed's -stats-json document that the
// checker reads.
type shedStats struct {
	Method string     `json:"method"`
	Nodes  int        `json:"nodes"`
	Edges  int        `json:"edges"`
	Rows   []statsRow `json:"rows"`
}

// statsRow is one ratio's row of a shedStats document.
type statsRow struct {
	P             float64 `json:"p"`
	KeptEdges     int     `json:"kept_edges"`
	Delta         float64 `json:"delta"`
	AvgDisPerNode float64 `json:"avg_dis_per_node"`
	BoundName     string  `json:"bound_name"`
	Bound         float64 `json:"bound"`
}

// readStats parses a -stats-json file.
func readStats(path string) (*shedStats, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var st shedStats
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &st, nil
}

// closeTo reports whether two sums of the same terms, accumulated in
// different orders, agree.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// bound is the paper's bound on the average absolute degree discrepancy:
// Theorem 1 for CRR, 4p(1−p)|E|/|V|, and Theorem 2 for BM2,
// 1/2 + (1−p)|E|/|V|.
func bound(method string, p float64, n, m int) (string, float64, error) {
	avgDeg := float64(m) / float64(n)
	switch method {
	case "crr":
		return "theorem1", 4 * p * (1 - p) * avgDeg, nil
	case "bm2":
		return "theorem2", 0.5 + (1-p)*avgDeg, nil
	}
	return "", 0, fmt.Errorf("no bound for method %q", method)
}

// checkRatio checks one reduced graph, given as edge keys, against the
// input and its -stats-json row, and returns the average absolute degree
// discrepancy Δ/|V| the checker recomputed. The output must be a simple
// subgraph of the input with its original labels; its edge count, Δ and
// average must match the row; the average must lie within the theorem
// bound. CRR keeps exactly round(p·|E|) edges. BM2 has no exact count, but
// no node ends a full edge above its share: deg'(u) − p·deg(u) < 1.
func checkRatio(in *inputGraph, method string, p float64, keys []uint64, row statsRow) (float64, error) {
	if row.P != p {
		return 0, fmt.Errorf("stats row is for p=%v", row.P)
	}
	out := slices.Clone(keys)
	slices.Sort(out)
	outDeg := make([]int32, in.numNodes())
	j := 0
	for i, k := range out {
		a, b := keyLabels(k)
		if i > 0 && k == out[i-1] {
			return 0, fmt.Errorf("duplicate edge %d %d", a, b)
		}
		for j < len(in.keys) && in.keys[j] < k {
			j++
		}
		if j == len(in.keys) || in.keys[j] != k {
			return 0, fmt.Errorf("edge %d %d is not an input edge", a, b)
		}
		outDeg[in.index[a]]++
		outDeg[in.index[b]]++
	}
	if row.KeptEdges != len(out) {
		return 0, fmt.Errorf("stats say %d kept edges, the file has %d", row.KeptEdges, len(out))
	}
	m := in.numEdges()
	if want := int(math.Round(p * float64(m))); method == "crr" && len(out) != want {
		return 0, fmt.Errorf("kept %d edges, want round(p·|E|) = %d", len(out), want)
	}
	var delta float64
	for u, d := range in.deg {
		dis := float64(outDeg[u]) - p*float64(d)
		if method == "bm2" && dis >= 1 {
			return 0, fmt.Errorf("node with degree %d keeps %d edges, a full edge above p·deg", d, outDeg[u])
		}
		delta += math.Abs(dis)
	}
	if !closeTo(delta, row.Delta) {
		return 0, fmt.Errorf("recomputed Δ = %v, stats say %v", delta, row.Delta)
	}
	avg := delta / float64(in.numNodes())
	if !closeTo(avg, row.AvgDisPerNode) {
		return 0, fmt.Errorf("recomputed avg |dis| = %v, stats say %v", avg, row.AvgDisPerNode)
	}
	name, b, err := bound(method, p, in.numNodes(), m)
	if err != nil {
		return 0, err
	}
	if row.BoundName != name || !closeTo(b, row.Bound) {
		return 0, fmt.Errorf("stats bound %s = %v, want %s = %v", row.BoundName, row.Bound, name, b)
	}
	if avg > b {
		return 0, fmt.Errorf("avg |dis| = %v exceeds the %s bound %v", avg, name, b)
	}
	return avg, nil
}

// checkRun checks the outputs and statistics one cmd/shed run wrote to
// outDir, and returns the mean over the workload's ratios of the
// recomputed average absolute degree discrepancy.
func checkRun(w workload, in *inputGraph, outDir string) (float64, error) {
	st, err := readStats(filepath.Join(outDir, statsFile))
	if err != nil {
		return 0, err
	}
	if st.Nodes != in.numNodes() || st.Edges != in.numEdges() {
		return 0, fmt.Errorf("stats report |V|=%d |E|=%d, the input has |V|=%d |E|=%d", st.Nodes, st.Edges, in.numNodes(), in.numEdges())
	}
	if len(st.Rows) != len(w.ps) {
		return 0, fmt.Errorf("stats have %d rows for %d ratios", len(st.Rows), len(w.ps))
	}
	var sum float64
	for i, path := range w.outputPaths(outDir) {
		keys, err := readEdgeFile(path)
		if err != nil {
			return 0, err
		}
		avg, err := checkRatio(in, w.method, w.ps[i], keys, st.Rows[i])
		if err != nil {
			return 0, fmt.Errorf("p=%v: %w", w.ps[i], err)
		}
		sum += avg
	}
	return sum / float64(len(w.ps)), nil
}
