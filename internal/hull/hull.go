// Package hull is the second case study of the sign-of-determinant
// preservation theory: error-bounded lossy compression of 2D point sets
// that preserves the convex hull exactly (same hull vertices, same order).
//
// The paper's Section II lists convex hull construction among the
// algorithms decided purely by orientation signs: a point set's hull is
// determined by the signs of orient(a, b, p) for hull edges (a, b) and
// points p. Theorem 1 therefore yields per-point perturbation bounds that
// keep every such sign — the same derivation machinery as the vector
// field compressor, applied to a different geometric predicate (and a
// concrete instance of the conclusion's "more features expressed by the
// sign of determinants").
//
// Points are quantized to the fixed-point grid; hull predicates are
// evaluated exactly with SoS tie-breaking, so degenerate inputs
// (collinear points, duplicates) are handled deterministically.
package hull

import (
	"encoding/binary"
	"errors"
	"math"
	"sort"

	"repro/internal/encoder"
	"repro/internal/exact"
	"repro/internal/exact/filter"
	"repro/internal/fixed"
	"repro/internal/huffman"
	"repro/internal/quantizer"
	"repro/internal/safedim"
)

// Point is a 2D point.
type Point struct{ X, Y float64 }

// Options configures hull-preserving compression.
type Options struct {
	// Tau is the absolute per-coordinate error bound.
	Tau float64
}

const hullMagic = 0x4C48 // "HL"

// orientSign returns the exact SoS-resolved sign of orient(a, b, c) on
// fixed-point coordinates, with ids providing the global perturbation
// identities.
func orientSign(xs, ys []int64, a, b, c int) int {
	m := [3][3]int64{
		{xs[a], ys[a], 1},
		{xs[b], ys[b], 1},
		{xs[c], ys[c], 1},
	}
	if s := filter.Orient2Sign(&m); s != 0 {
		return s
	}
	return exact.SoSOrient2Sign(&m, &[3]int{a, b, c}, -1)
}

// ConvexHull returns the indices of the hull vertices in counterclockwise
// order (Andrew's monotone chain on exact predicates). Collinear boundary
// points are excluded (SoS decides ties deterministically).
func ConvexHull(xs, ys []int64) []int {
	n := len(xs)
	if n == 0 {
		return nil
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool {
		a, b := idx[i], idx[j]
		if xs[a] != xs[b] {
			return xs[a] < xs[b]
		}
		if ys[a] != ys[b] {
			return ys[a] < ys[b]
		}
		return a < b
	})
	// Drop exact duplicates (identical coordinates): SoS cannot separate
	// them geometrically, and a duplicate can never be a distinct hull
	// vertex.
	uniq := idx[:0]
	for i, id := range idx {
		if i > 0 {
			p := uniq[len(uniq)-1]
			if xs[p] == xs[id] && ys[p] == ys[id] {
				continue
			}
		}
		uniq = append(uniq, id)
	}
	idx = uniq
	if len(idx) < 3 {
		return append([]int(nil), idx...)
	}
	build := func(seq []int) []int {
		var st []int
		for _, p := range seq {
			for len(st) >= 2 && orientSign(xs, ys, st[len(st)-2], st[len(st)-1], p) <= 0 {
				st = st[:len(st)-1]
			}
			st = append(st, p)
		}
		return st
	}
	lower := build(idx)
	rev := make([]int, len(idx))
	for i, id := range idx {
		rev[len(idx)-1-i] = id
	}
	upper := build(rev)
	hull := append(lower[:len(lower)-1], upper[:len(upper)-1]...)
	return hull
}

// Compress quantizes the point set under per-point bounds that keep the
// convex hull exactly. The derivation is coupled: points are processed in
// order and each bound is computed against current (already-quantized)
// values, mirroring Algorithm 2.
func Compress(pts []Point, opts Options) ([]byte, error) {
	if opts.Tau <= 0 {
		return nil, errors.New("hull: Tau must be positive")
	}
	n := len(pts)
	if n == 0 {
		return nil, errors.New("hull: empty point set")
	}
	coords := make([]float32, 0, safedim.MustProduct(2, n))
	for _, p := range pts {
		coords = append(coords, float32(p.X), float32(p.Y))
	}
	tr, err := fixed.Fit(coords)
	if err != nil {
		return nil, err
	}
	if opts.Tau < tr.Resolution() {
		return nil, errors.New("hull: Tau below the fixed-point resolution")
	}
	tau := tr.Bound(opts.Tau)

	xs := make([]int64, n)
	ys := make([]int64, n)
	for i, p := range pts {
		xs[i] = int64(math.RoundToEven(p.X * tr.Scale))
		ys[i] = int64(math.RoundToEven(p.Y * tr.Scale))
	}

	hull := ConvexHull(xs, ys)
	onHull := make([]bool, n)
	for _, h := range hull {
		onHull[h] = true
	}

	// Predicates to preserve: for each hull edge (a, b), the side of
	// every point p ∉ {a, b}. deriveBound(p) is the min Ψ over the
	// predicates involving p, evaluated on current values.
	deriveBound := func(p int) int64 {
		xi := tau
		for e := 0; e < len(hull); e++ {
			a := hull[e]
			b := hull[(e+1)%len(hull)]
			var psi int64
			switch p {
			case a, b:
				// p is an edge endpoint: its perturbation moves the
				// edge; every other point constrains it. Conservatively
				// take the min over all points against this edge with p
				// as the perturbed row.
				for q := 0; q < n; q++ {
					if q == a || q == b {
						continue
					}
					var other int
					if p == a {
						other = b
					} else {
						other = a
					}
					m := [][]int64{
						{xs[other], ys[other], 1},
						{xs[q], ys[q], 1},
						{xs[p], ys[p], 1},
					}
					if v := psiRow2(m); v < xi {
						xi = v
					}
				}
				continue
			default:
				m := [][]int64{
					{xs[a], ys[a], 1},
					{xs[b], ys[b], 1},
					{xs[p], ys[p], 1},
				}
				psi = psiRow2(m)
			}
			if psi < xi {
				xi = psi
			}
		}
		return xi
	}

	var expSyms, codeSyms []uint32
	var literals []byte
	emit := func(v int64, xi int64, sym uint8, snapped int64) int64 {
		code, recon, ok := quantizer.Quantize(v, 0, snapped)
		if !ok {
			codeSyms = append(codeSyms, uint32(2*quantizer.Radius))
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], uint32(int32(v)))
			literals = append(literals, b[:]...)
			return v
		}
		codeSyms = append(codeSyms, huffman.Zigzag(code))
		return recon
	}
	for p := 0; p < n; p++ {
		xi := deriveBound(p)
		sym, snapped := quantizer.BoundSym(xi, tau)
		expSyms = append(expSyms, uint32(sym))
		xs[p] = emit(xs[p], xi, sym, snapped)
		ys[p] = emit(ys[p], xi, sym, snapped)
	}

	var head []byte
	head = binary.LittleEndian.AppendUint16(head, hullMagic)
	head = binary.AppendUvarint(head, uint64(n))
	head = binary.AppendVarint(head, int64(tr.Shift))
	head = binary.AppendVarint(head, tau)
	return encoder.Pack(head, huffman.Compress(expSyms), huffman.Compress(codeSyms), literals)
}

// psiRow2 is Theorem 1 (with Lemma 1) for the last row of a 3×3
// homogeneous orientation matrix, with the integer strictness margin.
func psiRow2(m [][]int64) int64 {
	det := exact.DetN(m)
	if det.IsZero() {
		return 0
	}
	den := absI(m[0][1]-m[1][1]) + absI(m[0][0]-m[1][0])
	if den == 0 {
		return math.MaxInt64
	}
	return det.Abs().Sub(exact.Int128FromInt64(1)).DivFloor64(den)
}

func absI(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// Decompress reconstructs the point set.
func Decompress(blob []byte) ([]Point, error) {
	sections, err := encoder.Unpack(blob)
	if err != nil {
		return nil, err
	}
	if len(sections) != 4 {
		return nil, errors.New("hull: wrong section count")
	}
	head := sections[0]
	if len(head) < 2 || binary.LittleEndian.Uint16(head) != hullMagic {
		return nil, errors.New("hull: bad magic")
	}
	head = head[2:]
	nU, k := binary.Uvarint(head)
	// The count bound keeps a corrupt header from wrapping int(nU) or
	// the 2*n stream-length product below.
	if k <= 0 || nU > 1<<40 {
		return nil, errors.New("hull: bad count")
	}
	head = head[k:]
	sv, k := binary.Varint(head)
	if k <= 0 {
		return nil, errors.New("hull: bad shift")
	}
	head = head[k:]
	shift := int(sv)
	tau, k := binary.Varint(head)
	if k <= 0 {
		return nil, errors.New("hull: bad tau")
	}
	n := int(nU)
	expSyms, err := huffman.Decompress(sections[1])
	if err != nil {
		return nil, err
	}
	codeSyms, err := huffman.Decompress(sections[2])
	if err != nil {
		return nil, err
	}
	literals := sections[3]
	if len(expSyms) != n || len(codeSyms) != 2*n {
		return nil, errors.New("hull: stream length mismatch")
	}
	tr := fixed.FromShift(shift)
	out := make([]Point, n)
	pop := func(i int, bound int64) (int64, error) {
		sym := codeSyms[i]
		if sym == uint32(2*quantizer.Radius) {
			if len(literals) < 4 {
				return 0, errors.New("hull: literal underrun")
			}
			v := int64(int32(binary.LittleEndian.Uint32(literals)))
			literals = literals[4:]
			return v, nil
		}
		return quantizer.Reconstruct(huffman.Unzigzag(sym), 0, bound), nil
	}
	for p := 0; p < n; p++ {
		bound := quantizer.BoundFromSym(uint8(expSyms[p]), tau)
		x, err := pop(2*p, bound)
		if err != nil {
			return nil, err
		}
		y, err := pop(2*p+1, bound)
		if err != nil {
			return nil, err
		}
		out[p] = Point{X: float64(x) / tr.Scale, Y: float64(y) / tr.Scale}
	}
	return out, nil
}

// FitTransform fits the fixed-point transform the compressor would use
// for a point set. Hull comparisons between original and decompressed
// data must share one transform.
func FitTransform(pts []Point) (fixed.Transform, error) {
	coords := make([]float32, 0, safedim.MustProduct(2, len(pts)))
	for _, p := range pts {
		coords = append(coords, float32(p.X), float32(p.Y))
	}
	return fixed.Fit(coords)
}

// HullWithTransform computes the hull of a float point set on the given
// fixed-point grid (the predicate the compressor preserves).
func HullWithTransform(pts []Point, tr fixed.Transform) []int {
	n := len(pts)
	xs := make([]int64, n)
	ys := make([]int64, n)
	for i, p := range pts {
		xs[i] = int64(math.RoundToEven(p.X * tr.Scale))
		ys[i] = int64(math.RoundToEven(p.Y * tr.Scale))
	}
	return ConvexHull(xs, ys)
}

// HullOf is the convenience form of HullWithTransform with a freshly
// fitted transform.
func HullOf(pts []Point) ([]int, error) {
	tr, err := FitTransform(pts)
	if err != nil {
		return nil, err
	}
	return HullWithTransform(pts, tr), nil
}
