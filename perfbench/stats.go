package main

import (
	"slices"

	"edgeshed/internal/obs"
)

// median returns the median of xs, 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" one),
// the rule the benchmark's spread bounds are stated in. A single value is
// both quartiles; none gives zeros.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// batchFill is the share of MS-BFS bit slots that carried a source: the
// sources traversed over the batches run times the batch width. 0 when no
// batch ran.
func batchFill(sources, batches int64, width int) float64 {
	if batches == 0 {
		return 0
	}
	return float64(sources) / (float64(batches) * float64(width))
}

// spans returns every span in the tree named name, in depth-first order.
func spans(n *obs.SpanNode, name string) []*obs.SpanNode {
	if n == nil {
		return nil
	}
	var out []*obs.SpanNode
	if n.Name == name {
		out = append(out, n)
	}
	for _, c := range n.Children {
		out = append(out, spans(c, name)...)
	}
	return out
}

// totalSeconds sums the durations of the spans named name.
func totalSeconds(tree *obs.SpanNode, name string) float64 {
	var ns int64
	for _, s := range spans(tree, name) {
		ns += s.DurNs
	}
	return float64(ns) / 1e9
}

// selfSeconds sums the self time of the spans named name: each span's
// duration minus its children's. Children of a sequential span cover
// disjoint parts of it, so the difference is the time the span spent
// outside them.
func selfSeconds(tree *obs.SpanNode, name string) float64 {
	var ns int64
	for _, s := range spans(tree, name) {
		ns += s.DurNs
		for _, c := range s.Children {
			ns -= c.DurNs
		}
	}
	return float64(ns) / 1e9
}

// sweepBusyFrac is how busy CRR.Sweep kept its workers across the ratio
// fan-out: the workers' summed busy time over workers × the fan-out's
// wall time, which is the crr.sweep span less its betweenness child (that
// runs before the fan-out and reports its own busy time). 0 without a
// sweep.
func sweepBusyFrac(tree *obs.SpanNode) float64 {
	var busy, wall float64
	for _, s := range spans(tree, "crr.sweep") {
		fan := s.DurNs
		for _, c := range s.Children {
			if c.Name == "betweenness" {
				fan -= c.DurNs
			}
		}
		for _, b := range s.WorkerBusyNs {
			busy += float64(b)
		}
		wall += float64(fan) * float64(len(s.WorkerBusyNs))
	}
	if wall == 0 {
		return 0
	}
	return busy / wall
}
