package field

// Simplicial meshes over structured grids.
//
// Cell identifiers are dense integers:
//
//	2D: cell = (j*(NX-1) + i)*2 + t          with t ∈ {0,1}
//	3D: cell = ((k*(NY-1) + j)*(NX-1) + i)*6 + t  with t ∈ {0..5}
//
// where (i,j[,k]) addresses the quad/cube whose lowest corner is that grid
// point and t selects the triangle/tetrahedron inside it.

// Mesh2D is the 2-triangles-per-quad decomposition of an NX×NY grid.
type Mesh2D struct {
	NX, NY int
}

// NumVertices returns the number of grid points.
func (m Mesh2D) NumVertices() int { return m.NX * m.NY }

// NumCells returns 2*(NX-1)*(NY-1).
func (m Mesh2D) NumCells() int { return 2 * (m.NX - 1) * (m.NY - 1) }

// MaxVertexCells is the maximum number of triangles incident to a vertex.
const MaxVertexCells2D = 6

// CellVertices returns the three vertex indices of triangle c.
// Quad (i,j) splits along the v00–v11 diagonal:
//
//	t=0: {v00, v10, v11}   t=1: {v00, v11, v01}
func (m Mesh2D) CellVertices(c int) [3]int {
	t := c & 1
	q := c >> 1
	i := q % (m.NX - 1)
	j := q / (m.NX - 1)
	v00 := j*m.NX + i
	v10 := v00 + 1
	v01 := v00 + m.NX
	v11 := v01 + 1
	if t == 0 {
		return [3]int{v00, v10, v11}
	}
	return [3]int{v00, v11, v01}
}

// VertexCells appends the triangles incident to vertex v to buf and
// returns the result. An interior vertex has exactly 6 incident triangles.
func (m Mesh2D) VertexCells(v int, buf []int) []int {
	i := v % m.NX
	j := v / m.NX
	// Quad (qi,qj) contains the vertex as corner (ci,cj) = (i-qi, j-qj).
	for dj := -1; dj <= 0; dj++ {
		qj := j + dj
		if qj < 0 || qj >= m.NY-1 {
			continue
		}
		for di := -1; di <= 0; di++ {
			qi := i + di
			if qi < 0 || qi >= m.NX-1 {
				continue
			}
			base := (qj*(m.NX-1) + qi) * 2
			ci, cj := -di, -dj
			// Membership per corner: v00 ∈ {t0,t1}, v10 ∈ {t0},
			// v01 ∈ {t1}, v11 ∈ {t0,t1}.
			switch {
			case ci == 0 && cj == 0, ci == 1 && cj == 1:
				buf = append(buf, base, base+1)
			case ci == 1 && cj == 0:
				buf = append(buf, base)
			default: // ci == 0 && cj == 1
				buf = append(buf, base+1)
			}
		}
	}
	return buf
}

// VertexPos returns the grid coordinates of vertex v.
func (m Mesh2D) VertexPos(v int) (i, j int) {
	return v % m.NX, v / m.NX
}

// Mesh3D is the 6-tetrahedra-per-cube (Freudenthal) decomposition.
type Mesh3D struct {
	NX, NY, NZ int
}

// MaxVertexCells3D is the maximum number of tetrahedra incident to a vertex.
const MaxVertexCells3D = 24

// tetCorners lists, for each of the 6 tetrahedra of a unit cube, its 4
// corners encoded as bitmasks ox | oy<<1 | oz<<2. Tetrahedron p follows the
// monotone lattice path 000 → e_{a} → e_{a}+e_{b} → 111 for each
// permutation (a,b,c) of the axes.
var tetCorners [6][4]int

// cornerTets[c] lists the tetrahedra containing cube corner c.
var cornerTets [8][]int

func init() {
	perms := [6][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for t, p := range perms {
		c0 := 0
		c1 := c0 | 1<<p[0]
		c2 := c1 | 1<<p[1]
		c3 := 7
		tetCorners[t] = [4]int{c0, c1, c2, c3}
	}
	for t := range tetCorners {
		for _, c := range tetCorners[t] {
			cornerTets[c] = append(cornerTets[c], t)
		}
	}
}

// CubeTets returns, for each of the 6 tetrahedra of a unit cube, its 4
// corner indices encoded as bitmasks ox | oy<<1 | oz<<2, in the exact
// order CellVertices uses. Cache-blocked sweeps use it to enumerate a
// cube's tetrahedra from preloaded corner values without the per-cell
// div/mod of CellVertices.
func CubeTets() [6][4]int { return tetCorners }

// NumVertices returns the number of grid points.
func (m Mesh3D) NumVertices() int { return m.NX * m.NY * m.NZ }

// NumCells returns 6*(NX-1)*(NY-1)*(NZ-1).
func (m Mesh3D) NumCells() int { return 6 * (m.NX - 1) * (m.NY - 1) * (m.NZ - 1) }

// CellVertices returns the four vertex indices of tetrahedron c.
func (m Mesh3D) CellVertices(c int) [4]int {
	t := c % 6
	q := c / 6
	i := q % (m.NX - 1)
	q /= m.NX - 1
	j := q % (m.NY - 1)
	k := q / (m.NY - 1)
	var vs [4]int
	for n, corner := range tetCorners[t] {
		ox := corner & 1
		oy := (corner >> 1) & 1
		oz := (corner >> 2) & 1
		vs[n] = ((k+oz)*m.NY+(j+oy))*m.NX + (i + ox)
	}
	return vs
}

// VertexPos returns the grid coordinates of vertex v.
func (m Mesh3D) VertexPos(v int) (i, j, k int) {
	return v % m.NX, (v / m.NX) % m.NY, v / (m.NX * m.NY)
}

// VertexCells appends the tetrahedra incident to vertex v to buf and
// returns the result. An interior vertex has exactly 24 incident
// tetrahedra (matching the cost analysis in the paper).
func (m Mesh3D) VertexCells(v int, buf []int) []int {
	i := v % m.NX
	j := (v / m.NX) % m.NY
	k := v / (m.NX * m.NY)
	for dk := -1; dk <= 0; dk++ {
		qk := k + dk
		if qk < 0 || qk >= m.NZ-1 {
			continue
		}
		for dj := -1; dj <= 0; dj++ {
			qj := j + dj
			if qj < 0 || qj >= m.NY-1 {
				continue
			}
			for di := -1; di <= 0; di++ {
				qi := i + di
				if qi < 0 || qi >= m.NX-1 {
					continue
				}
				corner := (-di) | (-dj)<<1 | (-dk)<<2
				base := ((qk*(m.NY-1)+qj)*(m.NX-1) + qi) * 6
				for _, t := range cornerTets[corner] {
					buf = append(buf, base+t)
				}
			}
		}
	}
	return buf
}

// Star is the vertex star of one mesh vertex: its incident cells in
// VertexCells order, each with its vertex ids in CellVertices order. The
// compressor gathers it once per vertex and reuses it across every
// speculation trial. 2D stars use the first three entries of each Verts
// row.
type Star struct {
	N     int
	Cells [MaxVertexCells3D]int
	Verts [MaxVertexCells3D][4]int
}

// VertexStar fills st with the star of vertex v.
func (m Mesh2D) VertexStar(v int, st *Star) {
	var buf [MaxVertexCells2D]int
	cells := m.VertexCells(v, buf[:0])
	st.N = len(cells)
	for n, c := range cells {
		vs := m.CellVertices(c)
		st.Cells[n] = c
		st.Verts[n] = [4]int{vs[0], vs[1], vs[2]}
	}
}

// StarStencil3D is the Freudenthal star stencil of a Mesh3D: the cell-id
// and vertex-id offsets of the 24 tetrahedra around a vertex, in exactly
// VertexCells order, each tagged with the incident cube it lies in. Cell
// and vertex ids are linear in the grid coordinates, so one set of
// offsets serves every vertex; a vertex on the mesh boundary masks out
// the cubes that fall outside the grid, which leaves the surviving
// entries in VertexCells order too.
type StarStencil3D struct {
	nx, ny, nz int
	cube       [MaxVertexCells3D]uint8 // incident cube (di+1) | (dj+1)<<1 | (dk+1)<<2
	cellOff    [MaxVertexCells3D]int   // cell id minus 6·(cube id of the vertex)
	vertOff    [MaxVertexCells3D][4]int
}

// StarStencil returns the star stencil of m.
func (m Mesh3D) StarStencil() *StarStencil3D {
	st := &StarStencil3D{nx: m.NX, ny: m.NY, nz: m.NZ}
	e := 0
	// Same loop order as VertexCells: cubes (dk, dj, di) ∈ {-1,0}³, then
	// the tetrahedra of the cube that contain the vertex's corner.
	for dk := -1; dk <= 0; dk++ {
		for dj := -1; dj <= 0; dj++ {
			for di := -1; di <= 0; di++ {
				corner := (-di) | (-dj)<<1 | (-dk)<<2
				cubeOff := (dk*(m.NY-1)+dj)*(m.NX-1) + di
				for _, t := range cornerTets[corner] {
					st.cube[e] = uint8((di + 1) | (dj+1)<<1 | (dk+1)<<2)
					st.cellOff[e] = 6*cubeOff + t
					for r, c := range tetCorners[t] {
						ox, oy, oz := c&1, (c>>1)&1, (c>>2)&1
						st.vertOff[e][r] = ((dk+oz)*m.NY+(dj+oy))*m.NX + (di + ox)
					}
					e++
				}
			}
		}
	}
	return st
}

// Gather fills st with the star of vertex v: the same cells, in the same
// order, with the same vertex ids as VertexCells and CellVertices, at
// the cost of one coordinate decomposition per vertex.
func (s *StarStencil3D) Gather(v int, st *Star) {
	nx, ny := s.nx, s.ny
	i := v % nx
	j := (v / nx) % ny
	k := v / (nx * ny)
	// Bit b of mask keeps the incident cube tagged b: a vertex on a min
	// (max) face has no cube below (above) it on that axis.
	mask := uint(0xFF)
	if i == 0 {
		mask &= 0xAA
	}
	if i == nx-1 {
		mask &= 0x55
	}
	if j == 0 {
		mask &= 0xCC
	}
	if j == ny-1 {
		mask &= 0x33
	}
	if k == 0 {
		mask &= 0xF0
	}
	if k == s.nz-1 {
		mask &= 0x0F
	}
	base := 6 * ((k*(ny-1)+j)*(nx-1) + i)
	n := 0
	for e := range s.cube {
		if mask>>s.cube[e]&1 == 0 {
			continue
		}
		st.Cells[n] = base + s.cellOff[e]
		off := &s.vertOff[e]
		st.Verts[n] = [4]int{v + off[0], v + off[1], v + off[2], v + off[3]}
		n++
	}
	st.N = n
}
