package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestRangesCoversEveryIndexOnce runs Ranges at several GOMAXPROCS settings
// and sizes: every index is visited exactly once, by ranges that tile [0, n).
func TestRangesCoversEveryIndexOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 7, 8, 9, 1000} {
			visits := make([]atomic.Int32, n)
			var calls atomic.Int32
			err := Ranges(n, func(lo, hi int) error {
				calls.Add(1)
				if lo > hi || lo < 0 || hi > n {
					return fmt.Errorf("bad range [%d,%d)", lo, hi)
				}
				for i := lo; i < hi; i++ {
					visits[i].Add(1)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("procs=%d n=%d: %v", procs, n, err)
			}
			if c := int(calls.Load()); c > max(procs, 1) {
				t.Errorf("procs=%d n=%d: %d ranges, want ≤ %d", procs, n, c, procs)
			}
			for i := range visits {
				if v := visits[i].Load(); v != 1 {
					t.Fatalf("procs=%d n=%d: index %d visited %d times", procs, n, i, v)
				}
			}
		}
	}
}

// TestRangesReturnsLowestFailingIndex fails several indices at once: the
// error returned is always the lowest one's, whatever the worker count.
func TestRangesReturnsLowestFailingIndex(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const n = 100
	failing := map[int]bool{37: true, 38: true, 80: true, 99: true}
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		err := Ranges(n, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				if failing[i] {
					return fmt.Errorf("index %d", i)
				}
			}
			return nil
		})
		if err == nil || err.Error() != "index 37" {
			t.Errorf("procs=%d: got %v, want index 37", procs, err)
		}
	}
	want := errors.New("only")
	if err := Ranges(n, func(lo, hi int) error {
		if lo <= n-1 && n-1 < hi {
			return want
		}
		return nil
	}); err != want {
		t.Errorf("last-range failure: got %v", err)
	}
}
