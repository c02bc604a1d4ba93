package schemegl_test

import (
	"math"
	"testing"

	"compactroute/internal/gen"
	"compactroute/internal/graph"
	"compactroute/internal/schemegl"
	"compactroute/internal/testutil"
)

func TestMinusVariantAllPairs(t *testing.T) {
	tests := []struct {
		name string
		l    int
		eps  float64
	}{
		{"l=2 eps=0.5", 2, 0.5},
		{"l=3 eps=0.5", 3, 0.5},
		{"l=2 eps=0.25", 2, 0.25},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g := testutil.MustGNM(t, 130, 390, int64(tt.l), gen.Unit)
			apsp := graph.AllPairs(g)
			s, err := schemegl.New(g, apsp, schemegl.Params{
				L: tt.l, Variant: schemegl.Minus, Eps: tt.eps, Seed: int64(tt.l),
			})
			if err != nil {
				t.Fatal(err)
			}
			testutil.VerifyScheme(t, s, apsp, testutil.Pairs(g.N(), 1, 3))
		})
	}
}

func TestPlusVariantAllPairs(t *testing.T) {
	for _, l := range []int{2, 3} {
		g := testutil.MustGNM(t, 130, 390, int64(l)+20, gen.Unit)
		apsp := graph.AllPairs(g)
		s, err := schemegl.New(g, apsp, schemegl.Params{
			L: l, Variant: schemegl.Plus, Eps: 0.5, Seed: int64(l),
		})
		if err != nil {
			t.Fatal(err)
		}
		testutil.VerifyScheme(t, s, apsp, testutil.Pairs(g.N(), 1, 3))
	}
}

func TestAdjacentPairsDegenerateCase(t *testing.T) {
	// The Delta=1 analysis of Theorems 13/15 (3+eps and 5+eps paths).
	g := testutil.MustGNM(t, 110, 330, 31, gen.Unit)
	apsp := graph.AllPairs(g)
	for _, variant := range []schemegl.Variant{schemegl.Minus, schemegl.Plus} {
		s, err := schemegl.New(g, apsp, schemegl.Params{L: 2, Variant: variant, Eps: 0.5, Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		var pairs [][2]graph.Vertex
		for u := 0; u < g.N(); u++ {
			g.Neighbors(graph.Vertex(u), func(_ graph.Port, v graph.Vertex, _ float64) bool {
				pairs = append(pairs, [2]graph.Vertex{graph.Vertex(u), v})
				return true
			})
		}
		testutil.VerifyScheme(t, s, apsp, pairs)
	}
}

func TestRejectsBadInputs(t *testing.T) {
	g := testutil.MustGNM(t, 40, 100, 1, gen.Unit)
	apsp := graph.AllPairs(g)
	if _, err := schemegl.New(g, apsp, schemegl.Params{L: 1, Variant: schemegl.Minus, Eps: 0.5}); err == nil {
		t.Fatal("expected error for l=1")
	}
	if _, err := schemegl.New(g, apsp, schemegl.Params{L: 2, Eps: 0.5}); err == nil {
		t.Fatal("expected error for missing variant")
	}
	wg := testutil.MustGNM(t, 40, 100, 1, gen.UniformInt)
	wapsp := graph.AllPairs(wg)
	if _, err := schemegl.New(wg, wapsp, schemegl.Params{L: 2, Variant: schemegl.Minus, Eps: 0.5}); err == nil {
		t.Fatal("expected error for weighted graph")
	}
}

// TestRejectsNonFiniteEps checks that eps reaches the Lemma 8 budget check
// at every level count: both variants have an instance at every l >= 2, so
// a NaN, infinite or wrapping eps fails the build.
func TestRejectsNonFiniteEps(t *testing.T) {
	g := testutil.MustGNM(t, 40, 100, 1, gen.Unit)
	apsp := graph.AllPairs(g)
	for _, variant := range []schemegl.Variant{schemegl.Minus, schemegl.Plus} {
		for l := 2; l <= 4; l++ {
			for _, eps := range []float64{math.NaN(), math.Inf(1), 1e-300} {
				if _, err := schemegl.New(g, apsp, schemegl.Params{L: l, Variant: variant, Eps: eps}); err == nil {
					t.Errorf("variant %d, l=%d, eps=%v: built", variant, l, eps)
				}
			}
		}
	}
}

func TestSpaceOrderingBetweenVariants(t *testing.T) {
	// Theorem 15 (q = n^{1/(2l+1)}) must use less space than Theorem 13
	// (q = n^{1/(2l-1)}) at the same l, mirroring Table 1's ordering
	// (n^{3/5} for (2 1/3, 2) vs n^{2/5} for (4, 2) at l-ish parameters).
	g := testutil.MustGNM(t, 220, 660, 13, gen.Unit)
	apsp := graph.AllPairs(g)
	minus, err := schemegl.New(g, apsp, schemegl.Params{L: 2, Variant: schemegl.Minus, Eps: 0.5, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	plus, err := schemegl.New(g, apsp, schemegl.Params{L: 2, Variant: schemegl.Plus, Eps: 0.5, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	sumM, sumP := int64(0), int64(0)
	for v := 0; v < g.N(); v++ {
		sumM += int64(minus.TableWords(graph.Vertex(v)))
		sumP += int64(plus.TableWords(graph.Vertex(v)))
	}
	if sumP > sumM {
		t.Fatalf("plus variant (%d words) should not exceed minus variant (%d words)", sumP, sumM)
	}
}
