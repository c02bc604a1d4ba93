package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 1000
		hits := make([]int32, n)
		ForN(workers, n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}

func TestForEmptyAndSmall(t *testing.T) {
	For(0, func(int) { t.Fatal("fn called for n=0") })
	ForN(8, -3, func(int) { t.Fatal("fn called for n<0") })
	var ran int32
	ForN(16, 1, func(i int) { atomic.AddInt32(&ran, 1) })
	if ran != 1 {
		t.Fatalf("n=1 ran %d times", ran)
	}
}

func TestForErrReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		err := ForNErr(workers, 100, func(i int) error {
			if i%7 == 3 { // fails at 3, 10, 17, ...
				return fmt.Errorf("fail@%d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail@3" {
			t.Fatalf("workers=%d: got %v, want fail@3", workers, err)
		}
	}
}

func TestForErrBlocks(t *testing.T) {
	defer SetLimit(0)
	for _, workers := range []int{1, 4} {
		SetLimit(workers)
		for _, n := range []int{0, 1, blockLen - 1, blockLen, blockLen + 1, 1000} {
			hits := make([]int32, n)
			if err := ForErrBlocks(n, func(i int) error {
				atomic.AddInt32(&hits[i], 1)
				return nil
			}); err != nil {
				t.Fatalf("workers=%d n=%d: unexpected error %v", workers, n, err)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
		err := ForErrBlocks(1000, func(i int) error {
			if i == 130 || i == 700 || i == 999 {
				return fmt.Errorf("fail@%d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail@130" {
			t.Fatalf("workers=%d: got %v, want fail@130", workers, err)
		}
	}
}

func TestForErrNilOnSuccess(t *testing.T) {
	var sum atomic.Int64
	if err := ForNErr(4, 50, func(i int) error {
		sum.Add(int64(i))
		return nil
	}); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if sum.Load() != 50*49/2 {
		t.Fatalf("sum = %d", sum.Load())
	}
}

func TestForErrIndicesBelowFailureAllRun(t *testing.T) {
	const n, bad = 200, 150
	hits := make([]int32, n)
	err := ForNErr(8, n, func(i int) error {
		atomic.AddInt32(&hits[i], 1)
		if i == bad {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	for i := 0; i < bad; i++ {
		if hits[i] != 1 {
			t.Fatalf("index %d below the failure ran %d times", i, hits[i])
		}
	}
}

func TestSetLimit(t *testing.T) {
	defer SetLimit(0)
	SetLimit(3)
	if got := Workers(); got != 3 {
		t.Fatalf("Workers() = %d after SetLimit(3)", got)
	}
	SetLimit(-5)
	if got, want := Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Workers() = %d after reset, want %d", got, want)
	}
}
