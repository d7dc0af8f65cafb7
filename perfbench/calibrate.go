package main

import "time"

// The end-to-end times are stated at a fixed reference speed of the
// machine, because the machine's own speed is not fixed. On a shared
// 2-vCPU Intel Xeon VM, shed and this harness alike ran up to 1.7× slower
// for minutes at a time while neighbours were busy, with about 1% CPU
// steal, so CPU time drifted as much as wall time; raw wall medians of
// ten consecutive 30-second runs spread 0.12–0.31 (IQR/median). The
// harness therefore times a fixed calibration kernel before every set-up
// and shed invocation and scales the run's median wall times by calRefS
// over the run's median kernel time. Alternating shed and the kernel
// through such a slow spell, the scaled 30-second medians spread 0.06 and
// 0.08 where the raw ones spread 0.18 and 0.23 (crr-single and crr-sweep
// at -workers 1). A change to shed moves its wall time and not the
// kernel's, so it moves the scaled time in full. The raw wall times stay
// in the run's record.
const (
	// calWords is the kernel's working set in uint64 words: 32 MiB, past
	// the private caches and inside a shared L3, like the graph kernels'
	// state.
	calWords = 1 << 22
	// calSteps is the kernel's length in dependent loads.
	calSteps = 1 << 21
	// calRefS is the kernel's time at the reference speed: its median on
	// the 2-vCPU Xeon VM above when that was idle.
	calRefS = 0.4
)

// calibrator holds the kernel's working set, built once per run.
type calibrator struct {
	a    []uint64
	sink uint64 // keeps the walk's result live
}

// newCalibrator builds the working set.
func newCalibrator() *calibrator {
	a := make([]uint64, calWords)
	for i := range a {
		a[i] = uint64(i)*0x9E3779B97F4A7C15 ^ uint64(i>>3)
	}
	return &calibrator{a: a}
}

// run times one pass of the kernel and returns its seconds: a walk whose
// every load address depends on the previous load, so it runs at memory
// latency like the scattered accesses of betweenness and rewiring. It
// only reads, so every pass does the same work.
func (c *calibrator) run() float64 {
	t := time.Now()
	x := uint64(1)
	for i := 0; i < calSteps; i++ {
		j := (x ^ c.a[i&(calWords-1)]) & (calWords - 1)
		x = x*6364136223846793005 + c.a[j] + 1442695040888963407
	}
	c.sink += x
	return time.Since(t).Seconds()
}

// atReferenceSpeed scales a wall time measured while the calibration
// kernel took calS seconds to the time it would take at the reference
// speed, where the kernel takes calRefS. 0 without a calibration.
func atReferenceSpeed(wallS, calS float64) float64 {
	if calS == 0 {
		return 0
	}
	return wallS * calRefS / calS
}
