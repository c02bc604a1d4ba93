package vicinity

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"compactroute/internal/graph"
)

// viewVariants returns copies of a decoded set in every storage the decoder
// can produce: first hops as uint16 or uint32 member indexes, distances as
// uint16, uint32 or float64. Each copy owns its arrays, so a test may
// corrupt them.
func viewVariants(s *Set) []*Set {
	c := s.Size()
	var out []*Set
	for _, wide := range []bool{false, true} {
		for dk := 0; dk < 3; dk++ {
			v := &Set{center: s.center, radius: s.radius, memV: append([]graph.Vertex(nil), s.memV...)}
			if wide {
				v.memFirst = make([]uint32, c)
			} else {
				v.memFirst16 = make([]uint16, c)
			}
			switch dk {
			case 0:
				v.distU16 = make([]uint16, c)
			case 1:
				v.distU = make([]uint32, c)
			default:
				v.distF = make([]float64, c)
			}
			for i := 0; i < c; i++ {
				j := 0
				for s.MemberV(j) != s.MemberFirst(i) {
					j++
				}
				if wide {
					v.memFirst[i] = uint32(j)
				} else {
					v.memFirst16[i] = uint16(j)
				}
				d := s.MemberDist(i)
				switch dk {
				case 0:
					v.distU16[i] = uint16(d)
				case 1:
					v.distU[i] = uint32(d) + 1<<20 // past the uint16 range, order kept
				default:
					v.distF[i] = d / 3
				}
			}
			out = append(out, v)
		}
	}
	return out
}

// memberMajorCheck is the member-by-member form of validateViews, with the
// storage widths switched per member: the reference validateViews must agree
// with on every set, error text and rule precedence included.
func memberMajorCheck(s *Set, n int) error {
	c := len(s.memV)
	centerSeen := false
	listed := make(map[graph.Vertex]bool, c)
	prevD, prevV := 0.0, graph.Vertex(-1)
	for i := 0; i < c; i++ {
		v := s.memV[i]
		if v < 0 || int(v) >= n {
			return fmt.Errorf("member %d of B(%d) out of range", i, s.center)
		}
		var j int
		if s.memFirst != nil {
			j = int(s.memFirst[i])
		} else {
			j = int(s.memFirst16[i])
		}
		if j >= c {
			return fmt.Errorf("first-hop index %d of member %d in B(%d) out of range", j, i, s.center)
		}
		var dist float64
		switch {
		case s.distU16 != nil:
			dist = float64(s.distU16[i])
		case s.distU != nil:
			dist = float64(s.distU[i])
		default:
			dist = s.distF[i]
		}
		if math.IsNaN(dist) || dist < 0 {
			return fmt.Errorf("member %d of B(%d) has invalid distance %v", v, s.center, dist)
		}
		if i > 0 && (dist < prevD || (dist == prevD && v <= prevV)) {
			return fmt.Errorf("members of B(%d) not in (dist, id) order at %d (duplicate %d?)", s.center, i, v)
		}
		prevD, prevV = dist, v
		if listed[v] {
			return fmt.Errorf("member %d of B(%d) listed twice", v, s.center)
		}
		listed[v] = true
		if v == s.center {
			centerSeen = true
		}
	}
	if !centerSeen {
		return fmt.Errorf("B(%d) does not contain its center", s.center)
	}
	return nil
}

// TestValidateViewsMatchesMemberMajorCheck holds validateViews to
// memberMajorCheck on intact sets and on sets with one random corruption of
// an id, a first-hop index, a distance or the member order, in every storage
// width the decoder produces: both accept the same sets and report the same
// error.
func TestValidateViewsMatchesMemberMajorCheck(t *testing.T) {
	const n, l = 150, 24
	built, err := BuildAll(gnm(t, n, 3*n, 5, 32), l)
	if err != nil {
		t.Fatal(err)
	}
	// A member repeated at its own distance breaks the strict order; the
	// error names it and the center, in the widths build stores.
	dup := &Set{center: 4, memV: []graph.Vertex{4, 9, 9, 2}, memFirst: []uint32{0, 1, 1, 1}, distF: []float64{0, 1, 1, 2}}
	const dupErr = "members of B(4) not in (dist, id) order at 2 (duplicate 9?)"
	for _, err := range []error{dup.validateViews(10), memberMajorCheck(dup, 10)} {
		if err == nil || err.Error() != dupErr {
			t.Fatalf("repeated member: %v, want %q", err, dupErr)
		}
	}
	// A member listed at two distances keeps the order; the seen check
	// rejects its second copy, naming it and the center.
	twice := &Set{center: 4, memV: []graph.Vertex{4, 9, 2, 9}, memFirst: []uint32{0, 1, 1, 1}, distF: []float64{0, 1, 2, 3}}
	const twiceErr = "member 9 of B(4) listed twice"
	for _, err := range []error{twice.validateViews(10), memberMajorCheck(twice, 10)} {
		if err == nil || err.Error() != twiceErr {
			t.Fatalf("member at two distances: %v, want %q", err, twiceErr)
		}
	}
	dec := roundTrip(t, built)
	r := rand.New(rand.NewSource(7))
	rejected := 0
	for trial := 0; trial < 3000; trial++ {
		variants := viewVariants(dec[r.Intn(n)])
		s := variants[r.Intn(len(variants))]
		c := s.Size()
		i := r.Intn(c)
		switch r.Intn(8) {
		case 0: // id out of range
			s.memV[i] = []graph.Vertex{-1, n, math.MaxInt32}[r.Intn(3)]
		case 1: // first-hop index past the set
			if s.memFirst != nil {
				s.memFirst[i] = uint32(c + r.Intn(3))
			} else {
				s.memFirst16[i] = uint16(c + r.Intn(3))
			}
		case 2: // swap two members' ids and distances
			j := r.Intn(c)
			s.memV[i], s.memV[j] = s.memV[j], s.memV[i]
			swapDist(s, i, j)
		case 3: // another member's id, possibly a duplicate or the center
			s.memV[i] = s.memV[r.Intn(c)]
		case 4: // a random in-range id
			s.memV[i] = graph.Vertex(r.Intn(n))
		case 5: // a bad or repeated float distance
			if s.distF != nil {
				s.distF[i] = []float64{math.NaN(), -1, math.Inf(1), s.distF[r.Intn(c)]}[r.Intn(4)]
			}
		case 6: // the center replaced
			for k := range s.memV {
				if s.memV[k] == s.center {
					s.memV[k] = graph.Vertex((int(s.center) + 1 + r.Intn(n-1)) % n)
				}
			}
		case 7: // intact
		}
		got, want := s.validateViews(n), memberMajorCheck(s, n)
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Fatalf("trial %d: validateViews = %v, member-major check = %v", trial, got, want)
		}
		if want != nil {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("no corruption was rejected")
	}
}

func swapDist(s *Set, i, j int) {
	switch {
	case s.distU16 != nil:
		s.distU16[i], s.distU16[j] = s.distU16[j], s.distU16[i]
	case s.distU != nil:
		s.distU[i], s.distU[j] = s.distU[j], s.distU[i]
	default:
		s.distF[i], s.distF[j] = s.distF[j], s.distF[i]
	}
}
