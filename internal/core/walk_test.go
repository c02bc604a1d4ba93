package core

import (
	"math"
	"testing"
)

// TestBudget holds budget to b = ceil(2/eps) for a finite positive eps and
// to an error for every eps whose stretch bound could not fail (NaN, +Inf)
// or whose ceil(2/eps) would wrap on its way to an int.
func TestBudget(t *testing.T) {
	for _, tc := range []struct {
		eps  float64
		want int // 0: must fail
	}{
		{math.NaN(), 0},
		{math.Inf(1), 0},
		{math.Inf(-1), 0},
		{0, 0},
		{math.Copysign(0, -1), 0},
		{-1, 0},
		{1e-300, 0},
		{0.25, 8},
		{0.5, 4},
		{0.3, 7},
		{2, 1},
		{math.MaxFloat64, 1},
	} {
		b, err := budget(tc.eps)
		switch {
		case tc.want == 0 && err == nil:
			t.Errorf("budget(%v) = %d, want an error", tc.eps, b)
		case tc.want != 0 && (err != nil || b != tc.want):
			t.Errorf("budget(%v) = %d, %v; want %d", tc.eps, b, err, tc.want)
		}
	}
}
