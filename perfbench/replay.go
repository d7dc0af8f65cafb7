package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"

	"edgeshed/internal/centrality"
	"edgeshed/internal/core"
	"edgeshed/internal/graph"
	"edgeshed/internal/msbfs"
	"edgeshed/internal/obs"
)

// replayMain runs the traced replay in its own process, so its heap, page
// faults and GC start as fresh as a shed process's, and prints the layer
// metrics as one JSON object.
func replayMain(args []string) int {
	fs := flag.NewFlagSet("perfbench replay", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	in := fs.String("in", "", "input graph file")
	out := fs.String("out", "", "directory for the reduced graphs")
	workers := fs.Int("workers", 0, "cmd/shed -workers")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err == nil {
		var m map[string]float64
		if m, err = replay(w, *in, *out, *workers); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(m)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench replay:", err)
		return 1
	}
	return 0
}

// memPoint is the process's cumulative minor page faults and heap bytes
// allocated at offset t since the replay's origin.
type memPoint struct {
	t      time.Duration
	minflt int64
	allocs uint64
}

// readMem samples the counters of a memPoint.
func readMem(origin time.Time) memPoint {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with a valid who and buffer
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return memPoint{t: time.Since(origin), minflt: int64(ru.Minflt), allocs: s[0].Value.Uint64()}
}

// memDelta is the minor faults and MB allocated between two points.
func memDelta(a, b memPoint) (minflt, allocMB float64) {
	return float64(b.minflt - a.minflt), float64(b.allocs-a.allocs) / 1e6
}

// sampleEvery is the memory sampler's period: fine next to the kernels it
// attributes faults and allocations to (hundreds of ms), coarse enough to
// cost nothing measurable.
const sampleEvery = 2 * time.Millisecond

// memSampler records memPoints in the background, so memory can be charged
// to a span the program records but the benchmark cannot bracket, such as
// betweenness inside a CRR reduce.
type memSampler struct {
	origin time.Time
	stop   chan struct{}
	once   sync.Once
	wg     sync.WaitGroup
	points []memPoint
}

// startSampler starts sampling; stopSampling ends it.
func startSampler(origin time.Time) *memSampler {
	s := &memSampler{origin: origin, stop: make(chan struct{}), points: []memPoint{readMem(origin)}}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.points = append(s.points, readMem(s.origin))
			}
		}
	}()
	return s
}

// stopSampling stops the sampler, waits for it and returns its points,
// ending with one taken at the first call.
func (s *memSampler) stopSampling() []memPoint {
	s.once.Do(func() {
		close(s.stop)
		s.wg.Wait()
		s.points = append(s.points, readMem(s.origin))
	})
	return s.points
}

// window returns the points that bracket [from, to]: the last at or before
// from and the first at or after to.
func window(points []memPoint, from, to time.Duration) (memPoint, memPoint) {
	a, b := points[0], points[len(points)-1]
	for _, p := range points {
		if p.t <= from {
			a = p
		}
	}
	for i := len(points) - 1; i >= 0; i-- {
		if points[i].t >= to {
			b = points[i]
		}
	}
	return a, b
}

// liveHeapBytes collects garbage and returns the bytes of live heap
// objects.
func liveHeapBytes() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// reducer builds the reducer cmd/shed builds for the workload, reporting
// to parent.
func (w workload) reducer(workers int, parent *obs.Span) (core.Reducer, error) {
	switch w.method {
	case "crr":
		bopt := centrality.Options{Samples: w.samples, Seed: shedSeed + 1, Workers: workers}
		return core.CRR{Seed: shedSeed, Betweenness: bopt, Workers: workers, Obs: parent}, nil
	case "bm2":
		return core.BM2{Obs: parent}, nil
	}
	return nil, fmt.Errorf("workload %s: unknown method %q", w.name, w.method)
}

// replay runs cmd/shed's pipeline in process — load, reduce at every
// ratio, write every output — with the same options, timing each layer
// call from here and reading the spans and counters the program records
// under an obs recorder for the steps without a public entry. The outputs
// go to outDir under the names cmd/shed uses.
func replay(w workload, in, outDir string, workers int) (map[string]float64, error) {
	m := make(map[string]float64)
	live0 := liveHeapBytes()
	origin := time.Now()
	rec := obs.New("replay")
	smp := startSampler(origin)
	defer smp.stopSampling()

	before := readMem(origin)
	g, rm, err := graph.LoadFile(in)
	after := readMem(origin)
	if err != nil {
		return nil, err
	}
	m["graph.load_s"] = (after.t - before.t).Seconds()
	m["graph.load_minflt"], m["graph.load_alloc_mb"] = memDelta(before, after)

	t := time.Now()
	g.CSR()
	m["graph.csr_s"] = time.Since(t).Seconds()

	var mapped float64
	if strings.HasSuffix(in, ".esc") {
		fi, err := os.Stat(in)
		if err != nil {
			return nil, err
		}
		mapped = float64(fi.Size())
	}
	m["graph.bytes_per_edge"] = (liveHeapBytes() - live0 + mapped) / float64(g.NumEdges())

	red, err := w.reducer(workers, rec.Root())
	if err != nil {
		return nil, err
	}
	t = time.Now()
	var results []*core.Result
	if crr, ok := red.(core.CRR); ok && len(w.ps) > 1 {
		results, err = crr.Sweep(g, w.ps)
	} else {
		for _, p := range w.ps {
			var res *core.Result
			if res, err = red.Reduce(g, p); err != nil {
				break
			}
			results = append(results, res)
		}
	}
	reduceS := time.Since(t).Seconds()
	if err != nil {
		return nil, err
	}

	t = time.Now()
	var written int64
	for i, path := range w.outputPaths(outDir) {
		if err := graph.SaveFile(path, results[i].Reduced, rm); err != nil {
			return nil, err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		written += fi.Size()
	}
	m["graph.write_s"] = time.Since(t).Seconds()
	m["graph.write_mb"] = float64(written) / 1e6
	m["trace.total_s"] = time.Since(origin).Seconds()
	points := smp.stopSampling()

	tree := rec.SpanTree()
	layerMetrics(m, tree, rec.CounterValues())
	m["trace.other_s"] = m["trace.total_s"] - m["graph.load_s"] - m["graph.csr_s"] - reduceS - m["graph.write_s"]
	m["centrality.minflt"], m["centrality.alloc_mb"] = 0, 0
	for _, s := range spans(tree, "betweenness") {
		a, b := window(points, time.Duration(s.StartNs), time.Duration(s.StartNs+s.DurNs))
		flt, mb := memDelta(a, b)
		m["centrality.minflt"] += flt
		m["centrality.alloc_mb"] += mb
	}
	return m, nil
}

// layerMetrics derives the per-layer times, ratios and counts from the
// span tree and counters of one traced reduce.
func layerMetrics(m map[string]float64, tree *obs.SpanNode, ctr map[string]int64) {
	m["centrality.betweenness_s"] = totalSeconds(tree, "betweenness")
	m["centrality.batch_fill"] = batchFill(ctr["betweenness.sources_done"], ctr["msbfs.batches_done"], msbfs.Width(0))
	m["centrality.edge_folds"] = float64(ctr["brandes.edge_folds"])
	m["centrality.words_scanned"] = float64(ctr["msbfs.words_scanned"])

	// In a single-ratio reduce the rank span holds the betweenness call;
	// in a sweep betweenness runs once before the ratios and the rank
	// spans have no children. Self time covers both.
	m["core.crr_rank_s"] = selfSeconds(tree, "crr.phase1.rank")
	rewire := totalSeconds(tree, "crr.phase2.rewire")
	m["core.crr_rewire_s"] = rewire
	if att := ctr["crr.rewire.attempts"]; att > 0 {
		m["core.crr_rewire_ns_per_attempt"] = rewire * 1e9 / float64(att)
		m["core.crr_accept_frac"] = float64(ctr["crr.rewire.accepted"]) / float64(att)
	} else {
		m["core.crr_rewire_ns_per_attempt"] = 0
		m["core.crr_accept_frac"] = 0
	}
	m["core.bm2_bipartite_s"] = totalSeconds(tree, "bm2.bipartite")
	m["core.reduce_other_s"] = selfSeconds(tree, "crr.reduce") + selfSeconds(tree, "bm2.reduce")

	m["matching.bmatching_s"] = totalSeconds(tree, "bm2.bmatching")
	m["matching.pq_ops"] = float64(ctr["flatpq.pushes"] + ctr["flatpq.pops"] + ctr["flatpq.updates"] + ctr["flatpq.removes"])

	m["par.sweep_busy_frac"] = sweepBusyFrac(tree)
}
