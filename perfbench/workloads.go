package main

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
)

// standIn is the catalog dataset every workload generates, at the
// workload's scale divisor (internal/dataset). Its shape (Holme–Kim,
// average degree ~18) is the paper's largest graph.
const standIn = "com-LiveJournal"

// shedSeed is the seed cmd/shed runs with: its default. The workload seed
// only shapes the generated input, so the program sees nothing but files.
const shedSeed = 1

// workload is one closed-loop shed pipeline: one client, one shed process
// at a time, no arrival schedule. Its input is generated from the
// benchmark seed; the name and why are the ones BENCHMARK.json lists.
type workload struct {
	name    string
	why     string
	method  string    // cmd/shed -method: "crr" or "bm2"
	scale   int       // dataset scale divisor of the stand-in
	ps      []float64 // cmd/shed -p, in order
	samples int       // cmd/shed -samples; CRR only
	inExt   string    // ".esc" (mmap'd packed CSR) or ".txt" (parsed)
	outExt  string    // ".esc" (packed writer) or ".txt" (text writer)
}

// workloads are the benchmark's workloads. Each comment maps the layer
// metrics (per_layer in BENCHMARK.json) to the end-to-end metric they
// should move on that workload; a metric not named should not move.
var workloads = []workload{
	// crr-single: |V|≈50k, |E|≈450k. Betweenness is the largest layer,
	// and the batched Brandes state of two workers (~50 MB each) fills a
	// 105 MiB L3; load is a few ms because of the mmap.
	//   centrality.betweenness_s, .batch_fill       -> shed_s, shed_1w_s
	//   centrality.minflt, .alloc_mb                -> peak_rss_mb
	//   core.crr_rewire_s, .crr_rewire_ns_per_attempt -> shed_s (second)
	//   graph.bytes_per_edge                        -> peak_rss_mb
	//   graph.pack_s, .esc_bytes_per_edge           -> setup_s, peak_rss_mb
	{
		name:    "crr-single",
		why:     "CRR p=0.5, 64 samples, .esc in, text out: betweenness dominates and the batched state of two workers fills the L3, so Brandes layout or width changes show here",
		method:  "crr",
		scale:   80,
		ps:      []float64{0.5},
		samples: 64,
		inExt:   ".esc",
		outExt:  ".txt",
	},
	// crr-sweep: |V|≈20k, |E|≈180k, nine ratios. One small betweenness,
	// then nine rank + rewire passes (~8M rewire attempts) spread over
	// par by CRR.Sweep, then nine packed writes; the state fits in L3.
	//   core.crr_rewire_s, .crr_rewire_ns_per_attempt -> shed_s, shed_1w_s
	//   core.crr_rank_s                             -> shed_s, shed_1w_s
	//   par.sweep_busy_frac                         -> shed_s only
	//   graph.write_s, .write_mb (packed writer)    -> shed_s
	//   graph.pack_s                                -> setup_s
	{
		name:    "crr-sweep",
		why:     "CRR over p=0.1..0.9, 16 samples, .esc in and out: rewiring and the parallel sweep dominate, state fits in L3, and the writer takes the packed path",
		method:  "crr",
		scale:   200,
		ps:      []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
		samples: 16,
		inExt:   ".esc",
		outExt:  ".esc",
	},
	// bm2-text: |V|≈250k, |E|≈2.25M, the largest graph. No betweenness at
	// all; text parse + index is the largest layer, then the text writer
	// and BM2. p=0.3 rather than 0.5: at p=0.5 every p·deg is a multiple
	// of 1/2, group B of Algorithm 2 is empty and Algorithm 3 does nothing.
	//   graph.load_s, .csr_s                        -> shed_s, shed_1w_s
	//   graph.load_alloc_mb, .bytes_per_edge        -> peak_rss_mb
	//   graph.write_s, .write_mb (text writer)      -> shed_s
	//   matching.bmatching_s, core.bm2_bipartite_s, matching.pq_ops -> shed_s
	//   centrality.*                                -> nothing (prediction: no change)
	{
		name:   "bm2-text",
		why:    "BM2 p=0.3 on the largest graph, text in and out, no betweenness: parser, writer and graph-representation changes show here, betweenness changes must not",
		method: "bm2",
		scale:  16,
		ps:     []float64{0.3},
		inExt:  ".txt",
		outExt: ".txt",
	},
}

// lookupWorkload returns the named workload.
func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// psFlag renders the ratios as cmd/shed's -p value.
func (w workload) psFlag() string {
	parts := make([]string, len(w.ps))
	for i, p := range w.ps {
		parts[i] = strconv.FormatFloat(p, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

// shedArgs is the cmd/shed command line that reads in, writes the reduced
// graphs under outDir and the statistics to outDir/stats.json.
func (w workload) shedArgs(in, outDir string, workers int) []string {
	args := []string{
		"-in", in,
		"-method", w.method,
		"-p", w.psFlag(),
		"-workers", strconv.Itoa(workers),
		"-out", filepath.Join(outDir, "out"+w.outExt),
		"-stats-json", filepath.Join(outDir, statsFile),
		"-quiet",
	}
	if w.samples > 0 {
		args = append(args, "-samples", strconv.Itoa(w.samples))
	}
	return args
}

// statsFile is the name of cmd/shed's -stats-json output in a run's
// output directory.
const statsFile = "stats.json"

// outputPaths lists the reduced-graph files a run writes under outDir, in
// ratio order, named as cmd/shed names them: a single ratio writes the
// plain path, several insert a .pN.NN tag before the extension.
func (w workload) outputPaths(outDir string) []string {
	paths := make([]string, len(w.ps))
	for i, p := range w.ps {
		name := "out" + w.outExt
		if len(w.ps) > 1 {
			name = fmt.Sprintf("out.p%.2f%s", p, w.outExt)
		}
		paths[i] = filepath.Join(outDir, name)
	}
	return paths
}
