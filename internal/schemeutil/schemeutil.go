// Package schemeutil bundles preprocessing steps shared by the routing
// schemes of Sections 4 and 5: inflated vicinities with a verified Lemma 6
// coloring and per-color representatives, and cluster forests (one routable
// tree per cluster, plus the member labels the paper stores at each root).
// It builds, repairs, encodes and decodes the vicinity-coloring bundle for
// every scheme that stores one.
package schemeutil

import (
	"fmt"

	"compactroute/internal/cluster"
	"compactroute/internal/coloring"
	"compactroute/internal/graph"
	"compactroute/internal/parallel"
	"compactroute/internal/space"
	"compactroute/internal/treeroute"
	"compactroute/internal/vicinity"
	"compactroute/internal/wire"
)

// VicinityColoring is the (B(u, q-tilde), coloring, representatives) bundle
// that every scheme built on Lemma 6 starts from.
type VicinityColoring struct {
	Q    int
	L    int // actual vicinity size used
	Vics []*vicinity.Set
	Col  *coloring.Coloring
	// PartOf[u] = color of u as an int32 part index (the partition U).
	PartOf []int32
	// Reps[u][c] is the closest member of color c inside B(u, q-tilde);
	// RepDist[u][c] is its distance. Lemma 6 guarantees existence.
	Reps    [][]graph.Vertex
	RepDist [][]float64
}

// BuildVicinityColoring computes inflated vicinities of size
// InflatedSize(q, n, factor), a q-coloring satisfying Lemma 6 against them,
// and the per-color representative tables.
func BuildVicinityColoring(g *graph.Graph, q int, factor float64, seed int64) (*VicinityColoring, error) {
	n := g.N()
	if q < 1 {
		return nil, fmt.Errorf("schemeutil: need q >= 1, got %d", q)
	}
	l := vicinity.InflatedSize(q, n, factor)
	vics, err := vicinity.BuildAll(g, l)
	if err != nil {
		return nil, fmt.Errorf("schemeutil: vicinities: %w", err)
	}
	col, err := coloring.New(n, q, vicinity.MemberSets(vics), seed)
	if err != nil {
		return nil, fmt.Errorf("schemeutil: coloring: %w", err)
	}
	return assembleVicinityColoring(q, l, vics, col)
}

// BuildVicinityColoringTouch is BuildVicinityColoring plus the reverse touch
// index of the vicinity family (see vicinity.Touch): same vicinities, same
// coloring, same representative tables, with the per-center settled sets
// recorded for the incremental repair path.
func BuildVicinityColoringTouch(g *graph.Graph, q int, factor float64, seed int64) (*VicinityColoring, *vicinity.Touch, error) {
	n := g.N()
	if q < 1 {
		return nil, nil, fmt.Errorf("schemeutil: need q >= 1, got %d", q)
	}
	l := vicinity.InflatedSize(q, n, factor)
	vics, touch, err := vicinity.BuildAllTouch(g, l)
	if err != nil {
		return nil, nil, fmt.Errorf("schemeutil: vicinities: %w", err)
	}
	sets := vicinity.MemberSets(vics)
	col, err := coloring.New(n, q, sets, seed)
	if err != nil {
		return nil, nil, fmt.Errorf("schemeutil: coloring: %w", err)
	}
	vc, err := assembleVicinityColoring(q, l, vics, col)
	if err != nil {
		return nil, nil, err
	}
	return vc, touch, nil
}

// RestoreVicinityColoring rebuilds the bundle from decoded vicinities and a
// decoded coloring: the part indices and per-color representative tables are
// derived (they are pure functions of the inputs), so a snapshot only needs
// to store the vicinities and the colors. It fails if some vicinity is
// missing a color - the Lemma 6 property an honest snapshot always has.
func RestoreVicinityColoring(q, l int, vics []*vicinity.Set, col *coloring.Coloring) (*VicinityColoring, error) {
	if q < 1 || col.Q() != q {
		return nil, fmt.Errorf("schemeutil: restore: coloring has %d colors, want q=%d >= 1", col.Q(), q)
	}
	return assembleVicinityColoring(q, l, vics, col)
}

// EncodeSections writes the bundle's snapshot form: the vicinities into the
// aligned section vicSec, whose member arrays alias a mapped file, and the
// coloring into the compressed section colSec. Q and L belong in the
// caller's params section; everything else is derived on decode.
func (vc *VicinityColoring) EncodeSections(snap *wire.Snapshot, vicSec, colSec string) {
	vicinity.EncodeSetsV2(snap.AlignedSection(vicSec), vc.Vics)
	vc.Col.EncodeWireV2(snap.Section(colSec))
}

// DecodeVicinityColoring reads the two sections EncodeSections wrote and
// restores the bundle over n vertices with the q and l decoded from the
// caller's params section. It fails unless q lies in [1, n].
func DecodeVicinityColoring(snap *wire.Snapshot, vicSec, colSec string, q, l, n int) (*VicinityColoring, error) {
	if q < 1 || q > n {
		return nil, fmt.Errorf("schemeutil: snapshot q=%d outside [1,%d]", q, n)
	}
	vics, err := wire.Decode(snap, vicSec, func(d *wire.Decoder) ([]*vicinity.Set, error) {
		return vicinity.DecodeSetsV2(d, n)
	})
	if err != nil {
		return nil, err
	}
	col, err := wire.Decode(snap, colSec, func(d *wire.Decoder) (*coloring.Coloring, error) {
		return coloring.DecodeWireV2(d, n)
	})
	if err != nil {
		return nil, err
	}
	return RestoreVicinityColoring(q, l, vics, col)
}

// assembleVicinityColoring derives the part indices and representative
// tables from verified vicinities and coloring - the shared tail of the
// build and restore paths, deterministic for every worker count.
func assembleVicinityColoring(q, l int, vics []*vicinity.Set, col *coloring.Coloring) (*VicinityColoring, error) {
	n := len(vics)
	vc := &VicinityColoring{
		Q:       q,
		L:       l,
		Vics:    vics,
		Col:     col,
		PartOf:  make([]int32, n),
		Reps:    make([][]graph.Vertex, n),
		RepDist: make([][]float64, n),
	}
	for v := 0; v < n; v++ {
		vc.PartOf[v] = int32(col.Of(graph.Vertex(v)))
	}
	if err := vc.fillReps(n, func(i int) int { return i }, "schemeutil: B(%d) lost colors after coloring (internal inconsistency)"); err != nil {
		return nil, err
	}
	return vc, nil
}

// fillReps sets Reps[u][c] to the first member of color c in B(u)'s
// (dist, id) order, the closest one, and RepDist[u][c] to its distance, for
// the k centers u = center(0), ..., center(k-1). The rows are cut from two
// fresh slabs. A center missing a color fails with errf.
func (vc *VicinityColoring) fillReps(k int, center func(i int) int, errf string) error {
	q := vc.Q
	repSlab := make([]graph.Vertex, k*q)
	distSlab := make([]float64, k*q)
	return parallel.ForErrBlocks(k, func(i int) error {
		u := center(i)
		reps, dists := repSlab[i*q:(i+1)*q:(i+1)*q], distSlab[i*q:(i+1)*q:(i+1)*q]
		for c := range reps {
			reps[c] = graph.NoVertex
		}
		found, vic := 0, vc.Vics[u]
		for j, sz := 0, vic.Size(); j < sz && found < q; j++ {
			mv := vic.MemberV(j)
			if c := vc.Col.Of(mv); int(c) < q && reps[c] == graph.NoVertex {
				reps[c], dists[c] = mv, vic.MemberDist(j)
				found++
			}
		}
		if found != q {
			return fmt.Errorf(errf, u)
		}
		vc.Reps[u], vc.RepDist[u] = reps, dists
		return nil
	})
}

// RepairVicinityColoring produces the bundle over a repaired vicinity family
// in which only the centers listed in dirty changed, keeping the verified
// coloring (the caller must have checked that the coloring is still valid
// for the new family): representative tables of clean centers are shared
// with the old bundle, dirty ones recomputed with the scan the build path
// uses.
func RepairVicinityColoring(old *VicinityColoring, vics []*vicinity.Set, dirty []graph.Vertex) (*VicinityColoring, error) {
	n := len(vics)
	vc := &VicinityColoring{
		Q:       old.Q,
		L:       old.L,
		Vics:    vics,
		Col:     old.Col,
		PartOf:  old.PartOf,
		Reps:    make([][]graph.Vertex, n),
		RepDist: make([][]float64, n),
	}
	copy(vc.Reps, old.Reps)
	copy(vc.RepDist, old.RepDist)
	if err := vc.fillReps(len(dirty), func(i int) int { return int(dirty[i]) }, "schemeutil: B(%d) lost colors after repair"); err != nil {
		return nil, err
	}
	return vc, nil
}

// AddWords charges the vicinity tables, coloring and representative tables
// to a tally.
func (vc *VicinityColoring) AddWords(t *space.Tally) {
	for u := range vc.Vics {
		t.Add("vicinity", u, vc.Vics[u].Words())
		t.Add("color-reps", u, 2*len(vc.Reps[u])+1) // reps + distances + own color
	}
}

// ClusterForest holds one routable tree per cluster of a landmark structure,
// along with the member labels the paper stores at every root ("for each
// v in C_A(w) we store at w the label of v in the tree routing scheme").
type ClusterForest struct {
	L     *cluster.Landmarks
	Trees []*treeroute.Tree // indexed by root vertex
}

// BuildClusterForest turns every cluster of l into a routable tree. The
// per-root trees are independent and built on the shared worker pool.
func BuildClusterForest(g *graph.Graph, l *cluster.Landmarks) (*ClusterForest, error) {
	f := &ClusterForest{L: l, Trees: make([]*treeroute.Tree, g.N())}
	if err := parallel.ForErr(g.N(), func(w int) error {
		members := l.Cluster(graph.Vertex(w))
		if len(members) == 0 {
			return nil
		}
		tr, err := treeroute.FromMembers(g, members, func(m cluster.Member) treeroute.Edge {
			return treeroute.Edge{V: m.V, Parent: m.Parent}
		})
		if err != nil {
			return fmt.Errorf("schemeutil: cluster tree %d: %w", w, err)
		}
		f.Trees[w] = tr
		return nil
	}); err != nil {
		return nil, err
	}
	return f, nil
}

// RestoreClusterForest pairs decoded flat trees with a decoded landmark
// structure. The trees arrive independently of the clusters (aliased off the
// snapshot bytes), so they are cross-checked: one tree per non-empty
// cluster, rooted at the cluster's root, spanning exactly its members.
func RestoreClusterForest(l *cluster.Landmarks, trees []*treeroute.Tree, n int) (*ClusterForest, error) {
	if len(trees) != n {
		return nil, fmt.Errorf("schemeutil: snapshot forest has %d trees, want %d", len(trees), n)
	}
	if err := parallel.ForErr(n, func(wi int) error {
		w := graph.Vertex(wi)
		ms := l.Cluster(w)
		tr := trees[wi]
		if len(ms) == 0 {
			if tr != nil {
				return fmt.Errorf("schemeutil: snapshot has a tree over the empty cluster C_A(%d)", w)
			}
			return nil
		}
		if tr == nil {
			return fmt.Errorf("schemeutil: snapshot is missing the tree of C_A(%d)", w)
		}
		if tr.Root() != w {
			return fmt.Errorf("schemeutil: snapshot tree of C_A(%d) is rooted at %d", w, tr.Root())
		}
		if tr.Size() != len(ms) {
			return fmt.Errorf("schemeutil: snapshot tree of C_A(%d) spans %d vertices, cluster has %d", w, tr.Size(), len(ms))
		}
		for _, m := range ms {
			if !tr.Contains(m.V) {
				return fmt.Errorf("schemeutil: snapshot tree of C_A(%d) is missing member %d", w, m.V)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return &ClusterForest{L: l, Trees: trees}, nil
}

// LabelAtRoot returns the tree label of v in the cluster tree rooted at w,
// which the paper stores in w's routing table.
func (f *ClusterForest) LabelAtRoot(w, v graph.Vertex) (treeroute.Label, bool) {
	tr := f.Trees[w]
	if tr == nil {
		return treeroute.NoLabel, false
	}
	lbl := tr.LabelOf(v)
	return lbl, lbl != treeroute.NoLabel
}

// Tree returns the cluster tree rooted at w (nil if the cluster is empty).
func (f *ClusterForest) Tree(w graph.Vertex) *treeroute.Tree { return f.Trees[w] }

// AddWords charges the forest's storage: every vertex pays for the routing
// state of each cluster tree it belongs to (one tree per bunch member), and
// every root additionally pays one word per member label it keeps.
func (f *ClusterForest) AddWords(t *space.Tally, part string) {
	for w := 0; w < len(f.Trees); w++ {
		tr := f.Trees[w]
		if tr == nil {
			continue
		}
		for _, m := range f.L.Cluster(graph.Vertex(w)) {
			t.Add(part, int(m.V), tr.WordsAt(m.V))
		}
		t.Add(part+"-root-labels", w, 2*tr.Size()) // (member, label) pairs at the root
	}
}

// TreeStep adapts a tree-routing decision to a forwarding decision and
// normalizes errors.
func TreeStep(tr *treeroute.Tree, at graph.Vertex, lbl treeroute.Label) (deliver bool, port graph.Port, err error) {
	if tr == nil {
		return false, graph.NoPort, fmt.Errorf("schemeutil: no tree at this root")
	}
	return tr.Next(at, lbl)
}
