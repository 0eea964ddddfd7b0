package core

import (
	"testing"

	"repro/internal/cp"
	"repro/internal/field"
	"repro/internal/fixed"
)

// TestTwoPhasePair3D wires two vertically adjacent 3D blocks through the
// two-phase protocol by hand, covering the ghost-face plumbing directly.
func TestTwoPhasePair3D(t *testing.T) {
	nx, ny, nz := 12, 12, 16
	f := smooth3D(300, nx, ny, nz)
	tr, err := fixed.Fit(f.U, f.V, f.W)
	if err != nil {
		t.Fatal(err)
	}
	orig := cp.DetectField3D(f, tr)
	if len(orig) == 0 {
		t.Fatal("no critical points in test volume")
	}

	half := nz / 2
	sub := func(z0, d int) (u, v, w []float32) {
		n := nx * ny * d
		u = make([]float32, n)
		v = make([]float32, n)
		w = make([]float32, n)
		copy(u, f.U[z0*nx*ny:(z0+d)*nx*ny])
		copy(v, f.V[z0*nx*ny:(z0+d)*nx*ny])
		copy(w, f.W[z0*nx*ny:(z0+d)*nx*ny])
		return u, v, w
	}
	u0, v0, w0 := sub(0, half)
	u1, v1, w1 := sub(half, nz-half)
	opts := Options{Tau: 0.05}

	lower, err := NewEncoder3D(Block3D{
		NX: nx, NY: ny, NZ: half, U: u0, V: v0, W: w0, Transform: tr, Opts: opts,
		GlobalNX: nx, GlobalNY: ny, GlobalNZ: nz,
		Neighbor: [6]bool{SideMaxZ: true}, TwoPhase: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	upper, err := NewEncoder3D(Block3D{
		NX: nx, NY: ny, NZ: nz - half, U: u1, V: v1, W: w1, Transform: tr, Opts: opts,
		GlobalZ0: half, GlobalNX: nx, GlobalNY: ny, GlobalNZ: nz,
		Neighbor: [6]bool{SideMinZ: true}, TwoPhase: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Phase-1 exchange (originals).
	gu, gv, gw := upper.BorderFace(SideMinZ)
	if err := lower.SetGhostFace(SideMaxZ, gu, gv, gw); err != nil {
		t.Fatal(err)
	}
	gu, gv, gw = lower.BorderFace(SideMaxZ)
	if err := upper.SetGhostFace(SideMinZ, gu, gv, gw); err != nil {
		t.Fatal(err)
	}
	lower.Prepare()
	upper.Prepare()
	lower.RunPhase1()
	upper.RunPhase1()

	// Phase-2 exchange: the upper block's min-z face is now decompressed.
	gu, gv, gw = upper.BorderFace(SideMinZ)
	if err := lower.SetGhostFace(SideMaxZ, gu, gv, gw); err != nil {
		t.Fatal(err)
	}
	lower.RunPhase2()
	upper.RunPhase2()

	// In-process reconstruction must agree with the decoded blobs.
	lu, lv, lw := lower.Decompressed()
	lblob, err := lower.Finish()
	if err != nil {
		t.Fatal(err)
	}
	ublob, err := upper.Finish()
	if err != nil {
		t.Fatal(err)
	}
	lf, err := Decompress3D(lblob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range lu {
		if lu[i] != lf.U[i] || lv[i] != lf.V[i] || lw[i] != lf.W[i] {
			t.Fatal("in-process and decoded 3D reconstructions diverge")
		}
	}
	uf, err := Decompress3D(ublob)
	if err != nil {
		t.Fatal(err)
	}

	g := field.NewField3D(nx, ny, nz)
	copy(g.U, lf.U)
	copy(g.V, lf.V)
	copy(g.W, lf.W)
	copy(g.U[half*nx*ny:], uf.U)
	copy(g.V[half*nx*ny:], uf.V)
	copy(g.W[half*nx*ny:], uf.W)
	rep := cp.Compare(orig, cp.DetectField3D(g, tr))
	if !rep.Preserved() {
		t.Fatalf("two-phase 3D pair broke critical points: %v", rep)
	}
}

func TestGhostFaceErrors3D(t *testing.T) {
	f := smooth3D(301, 6, 6, 6)
	tr, _ := fixed.Fit(f.U, f.V, f.W)
	enc, err := NewEncoder3D(Block3D{
		NX: 6, NY: 6, NZ: 6, U: f.U, V: f.V, W: f.W, Transform: tr,
		Opts: Options{Tau: 0.05}, Neighbor: [6]bool{SideMaxX: true}, TwoPhase: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.SetGhostFace(SideMinX, nil, nil, nil); err == nil {
		t.Error("ghost on non-neighbor side must fail")
	}
	if err := enc.SetGhostFace(SideMaxX, make([]int64, 3), make([]int64, 3), make([]int64, 3)); err == nil {
		t.Error("wrong face size must fail")
	}
	if err := enc.SetGhostFace(99, nil, nil, nil); err == nil {
		t.Error("invalid side must fail")
	}
	u, v, w := enc.BorderFace(SideMaxX)
	if len(u) != 36 || len(v) != 36 || len(w) != 36 {
		t.Errorf("face sizes %d/%d/%d", len(u), len(v), len(w))
	}
}

func TestGhostLineErrors2D(t *testing.T) {
	f := smooth2D(302, 8, 8)
	tr, _ := fixed.Fit(f.U, f.V)
	enc, err := NewEncoder2D(Block2D{
		NX: 8, NY: 8, U: f.U, V: f.V, Transform: tr,
		Opts: Options{Tau: 0.05}, Neighbor: [4]bool{SideMinY: true}, TwoPhase: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.SetGhostLine(SideMaxY, nil, nil); err == nil {
		t.Error("ghost on non-neighbor side must fail")
	}
	if err := enc.SetGhostLine(SideMinY, make([]int64, 2), make([]int64, 2)); err == nil {
		t.Error("wrong line size must fail")
	}
	if err := enc.SetGhostLine(SideMinZ, nil, nil); err == nil {
		t.Error("3D side on 2D block must fail")
	}
	u, v := enc.BorderLine(SideMinX)
	if len(u) != 8 || len(v) != 8 {
		t.Errorf("line sizes %d/%d", len(u), len(v))
	}
}

func TestFinishTwice(t *testing.T) {
	f := smooth2D(303, 8, 8)
	tr, _ := fixed.Fit(f.U, f.V)
	enc, _ := NewEncoder2D(Block2D{NX: 8, NY: 8, U: f.U, V: f.V, Transform: tr, Opts: Options{Tau: 0.05}})
	enc.Run()
	if _, err := enc.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := enc.Finish(); err == nil {
		t.Error("double Finish must fail")
	}
}

func TestSubResolutionTauRejected(t *testing.T) {
	f := smooth2D(304, 8, 8)
	tr, _ := fixed.Fit(f.U, f.V)
	if _, err := CompressField2D(f, tr, Options{Tau: tr.Resolution() / 4}); err == nil {
		t.Error("sub-resolution Tau must be rejected (2D)")
	}
	g := smooth3D(305, 6, 6, 6)
	tr3, _ := fixed.Fit(g.U, g.V, g.W)
	if _, err := CompressField3D(g, tr3, Options{Tau: tr3.Resolution() / 4}); err == nil {
		t.Error("sub-resolution Tau must be rejected (3D)")
	}
}

// TestVertexStarTwoPhaseBlocks checks the kernel's vertex star on the
// ghost-extended meshes of two-phase blocks: for every extended vertex it
// must list exactly VertexCells' cells, in order, with CellVertices'
// vertex ids for each.
func TestVertexStarTwoPhaseBlocks(t *testing.T) {
	neighbors := [][6]bool{
		{},
		{SideMaxZ: true},
		{SideMinX: true, SideMaxY: true},
		{SideMinX: true, SideMaxX: true, SideMinY: true, SideMaxY: true, SideMinZ: true, SideMaxZ: true},
	}
	for _, dims := range [][3]int{{2, 2, 2}, {3, 2, 5}, {6, 5, 4}} {
		f := smooth3D(7, dims[0], dims[1], dims[2])
		tr, err := fixed.Fit(f.U, f.V, f.W)
		if err != nil {
			t.Fatal(err)
		}
		for _, nb := range neighbors {
			e, err := NewEncoder3D(Block3D{
				NX: dims[0], NY: dims[1], NZ: dims[2], U: f.U, V: f.V, W: f.W,
				Transform: tr, Opts: Options{Tau: 0.05}, Neighbor: nb, TwoPhase: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			k := e.k
			mesh := field.Mesh3D{NX: k.ext[0], NY: k.ext[1], NZ: k.ext[2]}
			var st field.Star
			for v := 0; v < mesh.NumVertices(); v++ {
				k.dim.vertexStar(v, &st)
				cells := mesh.VertexCells(v, nil)
				if st.N != len(cells) {
					t.Fatalf("dims %v nb %v vertex %d: %d cells, VertexCells %d", dims, nb, v, st.N, len(cells))
				}
				for n, c := range cells {
					if st.Cells[n] != c || st.Verts[n] != mesh.CellVertices(c) {
						t.Fatalf("dims %v nb %v vertex %d entry %d: (%d, %v), want (%d, %v)",
							dims, nb, v, n, st.Cells[n], st.Verts[n], c, mesh.CellVertices(c))
					}
				}
			}
			k.close()
		}
	}
}
