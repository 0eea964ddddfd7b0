package core

import (
	"repro/internal/cp"
	"repro/internal/derive"
	"repro/internal/exact/filter"
	"repro/internal/field"
)

// dimOps is the per-dimension plug of the compression kernel: mesh
// topology (stencil neighbors, adjacent simplices), the exact
// critical-point detector, and the Ψ derivation call. A new dimension or
// mesh type implements this interface plus a Block/Encoder adapter; the
// sweep, prediction, speculation, and coding in kernel.go come for free.
type dimOps interface {
	// name is the telemetry scope of the dimension ("2d", "3d").
	name() string
	// numCells returns the simplex count of the extended mesh.
	numCells() int
	// cellVertices fills out with the vertex ids of cell c (ndim+1 of
	// them; the caller provides the buffer so the mesh lookup stays on
	// its stack).
	cellVertices(c int, out *[4]int)
	// vertexStar fills st with the cells incident to vertex v (in
	// VertexCells order) and their vertex ids (in CellVertices order).
	// The kernel gathers it once per vertex, not once per trial.
	vertexStar(v int, st *field.Star)
	// makeDetector binds the exact detector to the kernel's working
	// arrays with the given global SoS vertex identity.
	makeDetector(gid func(v int) int) cellChecker
	// contains runs the detector's containment predicate on the cell
	// with vertex ids vs (a star entry), counting into loc. It must
	// follow makeDetector.
	contains(vs *[4]int, loc *filter.Local) bool
	// cellBound computes vertex vid's bound contribution of the cell
	// with vertex ids vs (a star entry of vid):
	// min(Ψ, τ′) of Theorem 2 (or the unsound orientation-only ablation
	// variant), raised by the sign-uniformity relaxation when relax is
	// set. The whole per-cell computation sits behind one call so the
	// mesh lookup and the sign scans stay concrete and inlinable on the
	// kernel's hottest path; implementations must keep the relaxation
	// semantics of Algorithm 2 lines 11–15 (a component with uniform
	// strict sign over the cell may relax up to its own
	// SignPreservingBound).
	cellBound(vid int, vs *[4]int, tau int64, orientationOnly, relax bool) (cb int64, relaxed bool)
}

// cellChecker is the detector surface the kernel speculates against.
// Both cp.Detector2D and cp.Detector3D satisfy it. ContainsBatch is the
// cache-blocked bulk form used by the prepare() sweep: it evaluates the
// containment predicate for every cell whose mask bit is set, writing
// into out, amortizing fixed-point loads across a cell row. The
// speculation trial loop goes through dimOps.contains instead, which
// takes the cell's vertex ids from the vertex star.
type cellChecker interface {
	CellType(c int) cp.Type
	ContainsBatch(mask, out []bool)
}

// newDimOps builds the plug for one dimension over the kernel's extended
// working arrays (which the kernel mutates in place, so the detector and
// Ψ always see the current decompressed prefix). pred is the kernel's
// batched filter-counter block; the 3D Ψ derivation counts its
// certifications there (the 2D derivation is pure int64 and uncounted).
func newDimOps(ndim int, ext [3]int, comps [maxComps][]int64, pred *filter.Local) dimOps {
	if ndim == 2 {
		return &dim2{
			mesh: field.Mesh2D{NX: ext[0], NY: ext[1]},
			u:    comps[0], v: comps[1],
		}
	}
	mesh := field.Mesh3D{NX: ext[0], NY: ext[1], NZ: ext[2]}
	return &dim3{
		mesh: mesh,
		star: mesh.StarStencil(),
		u:    comps[0], v: comps[1], w: comps[2],
		pred: pred,
	}
}

// dim2 is the triangle-mesh plug.
type dim2 struct {
	mesh field.Mesh2D
	u, v []int64
	det  *cp.Detector2D
}

func (d *dim2) name() string  { return "2d" }
func (d *dim2) numCells() int { return d.mesh.NumCells() }

func (d *dim2) cellVertices(c int, out *[4]int) {
	vs := d.mesh.CellVertices(c)
	out[0], out[1], out[2] = vs[0], vs[1], vs[2]
}

func (d *dim2) vertexStar(v int, st *field.Star) {
	d.mesh.VertexStar(v, st)
}

func (d *dim2) makeDetector(gid func(v int) int) cellChecker {
	d.det = &cp.Detector2D{Mesh: d.mesh, U: d.u, V: d.v, GlobalID: gid}
	return d.det
}

func (d *dim2) contains(vs *[4]int, loc *filter.Local) bool {
	return d.det.TriContainsLocal(&[3]int{vs[0], vs[1], vs[2]}, loc)
}

func (d *dim2) cellBound(vid int, vs *[4]int, tau int64, orientationOnly, relax bool) (cb int64, relaxed bool) {
	var a, b int
	switch vid {
	case vs[0]:
		a, b = vs[1], vs[2]
	case vs[1]:
		a, b = vs[0], vs[2]
	default:
		a, b = vs[0], vs[1]
	}
	if orientationOnly {
		cb = derive.Psi2DOrientationOnly(d.u, d.v, a, b, vid)
		if cb > tau {
			cb = tau
		}
	} else {
		cb = derive.Psi2DCapped(d.u, d.v, a, b, vid, tau)
	}
	if relax {
		for _, z := range [2][]int64{d.u, d.v} {
			s := sgn(z[vs[0]])
			if s != 0 && sgn(z[vs[1]]) == s && sgn(z[vs[2]]) == s {
				if r := derive.SignPreservingBound(z[vid]); r > cb {
					cb = r
					relaxed = true
				}
			}
		}
	}
	return cb, relaxed
}

// dim3 is the Freudenthal tetrahedral-mesh plug.
type dim3 struct {
	mesh    field.Mesh3D
	star    *field.StarStencil3D
	u, v, w []int64
	pred    *filter.Local
	det     *cp.Detector3D
}

func (d *dim3) name() string  { return "3d" }
func (d *dim3) numCells() int { return d.mesh.NumCells() }

func (d *dim3) cellVertices(c int, out *[4]int) {
	*out = d.mesh.CellVertices(c)
}

func (d *dim3) vertexStar(v int, st *field.Star) {
	d.star.Gather(v, st)
}

func (d *dim3) makeDetector(gid func(v int) int) cellChecker {
	d.det = &cp.Detector3D{Mesh: d.mesh, U: d.u, V: d.v, W: d.w, GlobalID: gid}
	return d.det
}

func (d *dim3) contains(vs *[4]int, loc *filter.Local) bool {
	return d.det.TetContainsLocal(vs, loc)
}

func (d *dim3) cellBound(vid int, vs *[4]int, tau int64, orientationOnly, relax bool) (cb int64, relaxed bool) {
	var o [3]int
	n := 0
	for _, v := range vs {
		if v != vid {
			o[n] = v
			n++
		}
	}
	if orientationOnly {
		cb = derive.Psi3DOrientationOnly(d.u, d.v, d.w, o[0], o[1], o[2], vid)
		if cb > tau {
			cb = tau
		}
	} else {
		// Capped form: the float filter certifies "Ψ ≥ τ′" for
		// candidates that cannot lower the min, skipping their exact
		// int128 evaluation; bit-identical to min(Psi3D, τ′).
		cb = derive.Psi3DCappedLocal(d.u, d.v, d.w, o[0], o[1], o[2], vid, tau, d.pred)
	}
	if relax {
		for _, z := range [3][]int64{d.u, d.v, d.w} {
			s := sgn(z[vs[0]])
			if s != 0 && sgn(z[vs[1]]) == s && sgn(z[vs[2]]) == s && sgn(z[vs[3]]) == s {
				if r := derive.SignPreservingBound(z[vid]); r > cb {
					cb = r
					relaxed = true
				}
			}
		}
	}
	return cb, relaxed
}
