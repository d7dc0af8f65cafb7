package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	gmp := runtime.GOMAXPROCS(0)
	cases := []struct {
		requested, items, want int
	}{
		{0, 100, min(gmp, 100)},  // default: GOMAXPROCS
		{-3, 100, min(gmp, 100)}, // negative: GOMAXPROCS
		{4, 100, 4},              // explicit
		{8, 3, 3},                // clamped to items
		{5, 0, 1},                // never below 1
		{0, 0, 1},                // empty work, default workers
	}
	for _, c := range cases {
		if got := Workers(c.requested, c.items); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.requested, c.items, got, c.want)
		}
	}
}

func TestRunCoversAllWorkers(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		seen := make([]int32, workers)
		Run(workers, func(w int) {
			atomic.AddInt32(&seen[w], 1)
		})
		for w, c := range seen {
			if c != 1 {
				t.Errorf("workers=%d: fn(%d) called %d times, want 1", workers, w, c)
			}
		}
	}
}

func TestBlockPartitions(t *testing.T) {
	for _, n := range []int{0, 1, 5, 16, 17, 100} {
		for _, workers := range []int{1, 2, 3, 7, 16} {
			covered := make([]int, n)
			prevHi := 0
			for w := 0; w < workers; w++ {
				lo, hi := Block(n, workers, w)
				if lo != prevHi {
					t.Fatalf("n=%d workers=%d: block %d starts at %d, want %d", n, workers, w, lo, prevHi)
				}
				if hi < lo {
					t.Fatalf("n=%d workers=%d: block %d inverted [%d, %d)", n, workers, w, lo, hi)
				}
				for i := lo; i < hi; i++ {
					covered[i]++
				}
				prevHi = hi
			}
			if prevHi != n {
				t.Fatalf("n=%d workers=%d: blocks end at %d, want %d", n, workers, prevHi, n)
			}
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("n=%d workers=%d: item %d covered %d times", n, workers, i, c)
				}
			}
		}
	}
}

func TestBlocksVisitsEveryItemOnce(t *testing.T) {
	const n = 103
	for _, workers := range []int{1, 2, 4, 7} {
		visits := make([]int32, n)
		Blocks(n, workers, func(w, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&visits[i], 1)
			}
		})
		for i, c := range visits {
			if c != 1 {
				t.Errorf("workers=%d: item %d visited %d times, want 1", workers, i, c)
			}
		}
	}
}

// TestSerialPathsDoNotAllocate pins the workers==1 short circuits: a
// serial Run or Blocks must call fn inline with zero heap allocations —
// no WaitGroup, no goroutines, no per-worker closures.
func TestSerialPathsDoNotAllocate(t *testing.T) {
	var sink int
	fn := func(w int) { sink += w }
	if allocs := testing.AllocsPerRun(100, func() {
		Run(1, fn)
	}); allocs != 0 {
		t.Errorf("Run(1, fn): %v allocs per run, want 0", allocs)
	}
	bfn := func(w, lo, hi int) { sink += hi - lo }
	if allocs := testing.AllocsPerRun(100, func() {
		Blocks(103, 1, bfn)
	}); allocs != 0 {
		t.Errorf("Blocks(103, 1, fn): %v allocs per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		Blocks(0, 1, bfn)
	}); allocs != 0 {
		t.Errorf("Blocks(0, 1, fn): %v allocs per run, want 0", allocs)
	}
	_ = sink
}

// TestBlocksSerialCoversAllItems pins the inline path's range: one call,
// full [0, n), and no call at all for n == 0.
func TestBlocksSerialCoversAllItems(t *testing.T) {
	var calls, gotLo, gotHi int
	Blocks(57, 1, func(w, lo, hi int) {
		calls++
		gotLo, gotHi = lo, hi
		if w != 0 {
			t.Errorf("serial Blocks passed worker index %d, want 0", w)
		}
	})
	if calls != 1 || gotLo != 0 || gotHi != 57 {
		t.Errorf("Blocks(57, 1): %d calls covering [%d, %d), want 1 call covering [0, 57)", calls, gotLo, gotHi)
	}
	Blocks(0, 1, func(w, lo, hi int) {
		t.Errorf("Blocks(0, 1) invoked fn on empty range [%d, %d)", lo, hi)
	})
}

func TestBlocksSkipsEmptyRanges(t *testing.T) {
	calls := int32(0)
	Blocks(2, 7, func(w, lo, hi int) {
		atomic.AddInt32(&calls, 1)
		if lo >= hi {
			t.Errorf("empty range [%d, %d) passed to fn", lo, hi)
		}
	})
	if calls != 2 {
		t.Errorf("fn called %d times for 2 items, want 2", calls)
	}
}
