package main

import (
	"math"
	"testing"
)

func TestCalibratorRuns(t *testing.T) {
	c := newCalibrator()
	for i := 0; i < 3; i++ {
		s := c.run()
		if s <= 0 {
			t.Fatalf("pass %d took %v s", i, s)
		}
		t.Logf("calibration pass %d: %.4f s (reference %.2f s)", i, s, calRefS)
	}
}

func TestEndToEndTimesAtReferenceSpeed(t *testing.T) {
	// Every time ran at half the reference speed: the kernel took twice
	// calRefS, so the reported times are half the wall times.
	b := &bench{avgDis: 0.3, samples: map[string][]float64{
		"calibration_s":  {2 * calRefS, 2 * calRefS, 2 * calRefS},
		"shed_wall_s":    {3, 1, 2},
		"shed_1w_wall_s": {4, 6},
		"setup_wall_s":   {1, 1, 8},
		"peak_rss_mb":    {100, 101, 102},
	}}
	m := b.metrics()
	for k, v := range map[string]float64{"shed_s": 1, "shed_1w_s": 2.5, "setup_s": 0.5, "peak_rss_mb": 101, "avg_dis": 0.3} {
		if math.Abs(m[k]-v) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
	if got := atReferenceSpeed(1, 0); got != 0 {
		t.Errorf("atReferenceSpeed without a calibration = %v, want 0", got)
	}
}
