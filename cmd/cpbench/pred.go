package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/datagen"
	"repro/internal/derive"
	"repro/internal/exact"
	"repro/internal/exact/filter"
	"repro/internal/field"
	"repro/internal/fixed"
)

// runPred is the `cpbench pred` subcommand: the predicate microbench.
// It measures the filtered sign-of-determinant and Ψ-derivation
// predicates against their unfiltered exact references on the Ocean and
// Nek5000 golden fields, reports the certification rates from the
// filter counters, and with -gate fails when the fallback rate on this
// corpus exceeds the pinned threshold or the filtered path loses its
// speed edge (see scripts/predgate.sh and `make predgate`).
func runPred(args []string, w io.Writer) (failed bool, err error) {
	fs := flag.NewFlagSet("pred", flag.ContinueOnError)
	ocean := fs.String("ocean", "384x288", "Ocean dims (NXxNY)")
	nek := fs.Int("nek", 64, "Nek5000 cube side")
	tauRel := fs.Float64("tau", 0.01, "range-relative error bound for the Ψ cap")
	reps := fs.Int("count", 3, "repetitions per measurement (best-of)")
	samples := fs.Int("samples", 200000, "matrix/derivation sample cap per predicate")
	gate := fs.Bool("gate", false, "exit nonzero when a gate threshold is violated")
	maxFallback := fs.Float64("max-fallback", 0.05, "gate: max 3D orientation exact-fallback rate on the sweep corpus")
	minPsiCert := fs.Float64("min-psi-cert", 0.50, "gate: min Ψ certification rate on the derivation corpus")
	minSpeedup := fs.Float64("min-speedup", 1.5, "gate: min filtered-vs-reference speedup (3D orientation)")
	// The Ψ-derivation speedup sits nearer its threshold than orient3
	// (~1.5x typical vs ~5x), so its gate gets the same kind of noise
	// headroom benchgate grants throughput metrics: the CI threshold is
	// set ~10% under the typical measurement, and the typical value is
	// what DESIGN.md and the PR benchmarks record.
	minPsiSpeedup := fs.Float64("min-psi-speedup", 1.35, "gate: min filtered-vs-reference speedup (Ψ derivation)")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	var onx, ony int
	if _, err := fmt.Sscanf(*ocean, "%dx%d", &onx, &ony); err != nil {
		return false, fmt.Errorf("bad -ocean: %w", err)
	}

	// Golden fields, fixed-pointed exactly like the compressor does.
	f2 := datagen.Ocean(onx, ony)
	tr2, err := fixed.Fit(f2.U, f2.V)
	if err != nil {
		return false, err
	}
	u2 := make([]int64, len(f2.U))
	v2 := make([]int64, len(f2.V))
	tr2.ToFixed(f2.U, u2)
	tr2.ToFixed(f2.V, v2)
	d2 := &cp.Detector2D{Mesh: field.Mesh2D{NX: f2.NX, NY: f2.NY}, U: u2, V: v2}

	n := *nek
	f3 := datagen.Nek5000(n, n, n)
	tr3, err := fixed.Fit(f3.U, f3.V, f3.W)
	if err != nil {
		return false, err
	}
	u3 := make([]int64, len(f3.U))
	v3 := make([]int64, len(f3.V))
	w3 := make([]int64, len(f3.W))
	tr3.ToFixed(f3.U, u3)
	tr3.ToFixed(f3.V, v3)
	tr3.ToFixed(f3.W, w3)
	m3 := field.Mesh3D{NX: n, NY: n, NZ: n}
	d3 := &cp.Detector3D{Mesh: m3, U: u3, V: v3, W: w3}

	fmt.Fprintf(w, "pred: ocean %dx%d (%d tris), nek %d^3 (%d tets), tau %g\n",
		onx, ony, d2.Mesh.NumCells(), n, m3.NumCells(), *tauRel)

	// Harvest predicate inputs: the full-simplex orientation matrices of
	// a cell sample, exactly as detection builds them.
	stride2 := d2.Mesh.NumCells() / *samples
	if stride2 < 1 {
		stride2 = 1
	}
	var mats2 [][3][3]int64
	for c := 0; c < d2.Mesh.NumCells(); c += stride2 {
		vs := d2.Mesh.CellVertices(c)
		var m [3][3]int64
		for r, vi := range vs {
			m[r] = [3]int64{u2[vi], v2[vi], 1}
		}
		mats2 = append(mats2, m)
	}
	stride3 := m3.NumCells() / *samples
	if stride3 < 1 {
		stride3 = 1
	}
	var mats3 [][4][4]int64
	var tets [][4]int // vertex ids, for the Ψ derivation sample
	for c := 0; c < m3.NumCells(); c += stride3 {
		vs := m3.CellVertices(c)
		var m [4][4]int64
		for r, vi := range vs {
			m[r] = [4]int64{u3[vi], v3[vi], w3[vi], 1}
		}
		mats3 = append(mats3, m)
		tets = append(tets, vs)
	}

	// 2D orientation: filtered (exact int64 translation) vs Int128. The
	// filtered loops batch their counters in a Local exactly like the
	// production sweeps, flushing once per pass.
	sink := 0
	var loc filter.Local
	filt2 := bestOf(*reps, func() {
		for i := range mats2 {
			sink += loc.Orient2Sign(&mats2[i])
		}
		loc.Flush()
	})
	ref2 := bestOf(*reps, func() {
		for i := range mats2 {
			//lint:ignore filterexact reference baseline for the predicate microbenchmark
			sink += exact.Det3(&mats2[i]).Sign()
		}
	})
	fmt.Fprintf(w, "orient2: filtered %s, reference %s, speedup %.2fx\n",
		rate(len(mats2), filt2), rate(len(mats2), ref2), speedup(ref2, filt2))

	// 3D orientation: float-filtered vs Int128.
	o3Before := filter.Stats()
	filt3 := bestOf(*reps, func() {
		for i := range mats3 {
			sink += loc.Orient3Sign(&mats3[i])
		}
		loc.Flush()
	})
	o3 := filter.Stats().Sub(o3Before)
	ref3 := bestOf(*reps, func() {
		for i := range mats3 {
			//lint:ignore filterexact reference baseline for the predicate microbenchmark
			sink += exact.Det4(&mats3[i]).Sign()
		}
	})
	o3Speedup := speedup(ref3, filt3)
	fmt.Fprintf(w, "orient3: filtered %s, reference %s, speedup %.2fx, accept %.2f%% (static %d, run %d, zero %d, exact %d)\n",
		rate(len(mats3), filt3), rate(len(mats3), ref3), o3Speedup,
		100*o3.Orient3AcceptRate(), o3.Orient3Static, o3.Orient3Run, o3.Orient3Zero, o3.Orient3Exact)

	// Ψ derivation: capped+filtered vs the Int128 reference, with the
	// production cap (the fixed-point τ′) so the filter sees the same
	// quotient checks the compressor issues.
	tau3 := tr3.Bound(*tauRel * rangeOf3(f3))
	psiBefore := filter.Stats()
	var psiAcc int64
	filtPsi := bestOf(*reps, func() {
		for i := range tets {
			vs := &tets[i]
			psiAcc += derive.Psi3DCappedLocal(u3, v3, w3, vs[0], vs[1], vs[2], vs[3], tau3, &loc)
		}
		loc.Flush()
	})
	psi := filter.Stats().Sub(psiBefore)
	refPsi := bestOf(*reps, func() {
		for i := range tets {
			vs := &tets[i]
			p := derive.Psi3DReference(u3, v3, w3, vs[0], vs[1], vs[2], vs[3])
			if p > tau3 {
				p = tau3
			}
			psiAcc += p
		}
	})
	psiSpeedup := speedup(refPsi, filtPsi)
	fmt.Fprintf(w, "psi3:    filtered %s, reference %s, speedup %.2fx, cert %.2f%% (%d of %d)\n",
		rate(len(tets), filtPsi), rate(len(tets), refPsi), psiSpeedup,
		100*psi.PsiCertRate(), psi.PsiCert, psi.PsiCert+psi.PsiFallback)

	// Whole-field sweeps: the cache-blocked batched detection the
	// compressor and verifier actually run, with its certification rates
	// on the full golden corpus (SoS-replaced predicates included).
	swBefore := filter.Stats()
	sweep2 := bestOf(*reps, func() { sink += len(d2.DetectCells()) })
	sweep3 := bestOf(*reps, func() { sink += len(d3.DetectCells()) })
	sw := filter.Stats().Sub(swBefore)
	fmt.Fprintf(w, "detect:  ocean %s, nek %s, sweep accept %.2f%% (exact fallbacks %d of %d)\n",
		rate(d2.Mesh.NumCells(), sweep2), rate(m3.NumCells(), sweep3),
		100*sw.Orient3AcceptRate(), sw.Orient3Exact, sw.Orient3Calls())

	// SoS tie resolution: the static plan tables vs the generic SoSSign
	// reference, over the certified-zero orientations of the Nek field
	// and of its ST4 reconstruction — the original and committed states
	// the compressor's prepare sweep and speculation trials evaluate.
	blob, err := core.CompressField3D(f3, tr3, core.Options{Tau: *tauRel * rangeOf3(f3), Spec: core.ST4})
	if err != nil {
		return false, err
	}
	f3d, err := core.Decompress3D(blob)
	if err != nil {
		return false, err
	}
	ud := make([]int64, len(f3d.U))
	vd := make([]int64, len(f3d.V))
	wd := make([]int64, len(f3d.W))
	tr3.ToFixed(f3d.U, ud)
	tr3.ToFixed(f3d.V, vd)
	tr3.ToFixed(f3d.W, wd)
	fields := [][3][]int64{{u3, v3, w3}, {ud, vd, wd}}
	total := 0
	for _, f := range fields {
		total += harvestTies(m3, f, 1, nil)
	}
	stride := total / sosTieSamples
	if stride < 1 {
		stride = 1
	}
	var ties []sosTie
	for _, f := range fields {
		harvestTies(m3, f, stride, &ties)
	}
	refRows := make([][][]int64, len(ties))
	refPert := make([][][]int, len(ties))
	for i := range ties {
		refRows[i], refPert[i] = ties[i].reference()
	}
	tableSigns := make([]int, len(ties))
	tableSoS := bestOf(*reps, func() {
		for i := range ties {
			t := &ties[i]
			tableSigns[i] = exact.SoSOrient3Sign(&t.m, &t.ids, t.replace)
		}
	})
	mismatch := 0
	refSoS := bestOf(*reps, func() {
		mismatch = 0
		for i := range ties {
			if exact.SoSSign(refRows[i], refPert[i]) != tableSigns[i] {
				mismatch++
			}
		}
	})
	sosSpeedup := speedup(refSoS, tableSoS)
	fmt.Fprintf(w, "sos:     table %s, reference %s, speedup %.2fx (%d of %d ties, %d mismatches)\n",
		perOp(len(ties), tableSoS), perOp(len(ties), refSoS), sosSpeedup, len(ties), total, mismatch)
	_ = sink
	_ = psiAcc

	fallback := 1 - sw.Orient3AcceptRate()
	ok := true
	if fallback > *maxFallback {
		fmt.Fprintf(w, "gate: FAIL orient3 fallback rate %.4f > %.4f\n", fallback, *maxFallback)
		ok = false
	}
	if psi.PsiCertRate() < *minPsiCert {
		fmt.Fprintf(w, "gate: FAIL psi certification rate %.4f < %.4f\n", psi.PsiCertRate(), *minPsiCert)
		ok = false
	}
	if o3Speedup < *minSpeedup {
		fmt.Fprintf(w, "gate: FAIL orient3 speedup %.2fx < %.2fx\n", o3Speedup, *minSpeedup)
		ok = false
	}
	if psiSpeedup < *minPsiSpeedup {
		fmt.Fprintf(w, "gate: FAIL psi speedup %.2fx < %.2fx\n", psiSpeedup, *minPsiSpeedup)
		ok = false
	}
	if len(ties) == 0 || mismatch > 0 {
		fmt.Fprintf(w, "gate: FAIL sos table disagrees with the reference on %d of %d ties\n", mismatch, len(ties))
		ok = false
	}
	if sosSpeedup < minSoSSpeedup {
		fmt.Fprintf(w, "gate: FAIL sos speedup %.2fx < %.2fx\n", sosSpeedup, minSoSSpeedup)
		ok = false
	}
	if ok {
		fmt.Fprintf(w, "gate: ok (fallback %.4f <= %.4f, psi cert %.4f >= %.4f, orient3 %.2fx >= %.2fx, psi %.2fx >= %.2fx, sos %.2fx >= %.2fx)\n",
			fallback, *maxFallback, psi.PsiCertRate(), *minPsiCert, o3Speedup, *minSpeedup, psiSpeedup, *minPsiSpeedup,
			sosSpeedup, minSoSSpeedup)
	}
	return *gate && !ok, nil
}

// The SoS row times the generic SoSSign reference (~70 µs per tie) on a
// few thousand ties, and requires the table path to beat it 2×.
const (
	sosTieSamples = 5000
	minSoSSpeedup = 2.0
)

// sosTie is one certified-zero 3D orientation: the matrix SoS resolves,
// its vertex ids and the origin row (-1 for the full simplex).
type sosTie struct {
	m       [4][4]int64
	ids     [4]int
	replace int
}

// reference returns the tie in SoSSign's generic form.
func (t *sosTie) reference() ([][]int64, [][]int) {
	rows := make([][]int64, 4)
	pert := make([][]int, 4)
	for r := range rows {
		rows[r] = t.m[r][:]
		pert[r] = []int{-1, -1, -1, -1}
		if r != t.replace {
			for c := 0; c < 3; c++ {
				pert[r][c] = t.ids[r]*3 + c
			}
		}
	}
	return rows, pert
}

// harvestTies walks the five point-in-simplex orientations of every
// non-degenerate tetrahedron of f (as Detector3D builds them) and counts
// the certified zeros; with out set it appends every stride-th one.
func harvestTies(mesh field.Mesh3D, f [3][]int64, stride int, out *[]sosTie) int {
	var loc filter.Local // never flushed: harvesting is not predicate work
	n := 0
	for c := 0; c < mesh.NumCells(); c++ {
		vs := mesh.CellVertices(c)
		var m [4][4]int64
		zero := true
		for r, vi := range vs {
			m[r] = [4]int64{f[0][vi], f[1][vi], f[2][vi], 1}
			zero = zero && m[r][0] == 0 && m[r][1] == 0 && m[r][2] == 0
		}
		if zero {
			continue
		}
		for i := -1; i < 4; i++ {
			mr := m
			if i >= 0 {
				mr[i] = [4]int64{0, 0, 0, 1}
			}
			if loc.Orient3Sign(&mr) != 0 {
				continue
			}
			if out != nil && n%stride == 0 {
				*out = append(*out, sosTie{m: mr, ids: vs, replace: i})
			}
			n++
		}
	}
	return n
}

// perOp renders d over n operations as ns/op.
func perOp(n int, d time.Duration) string {
	if n == 0 {
		return "- ns/tie"
	}
	return fmt.Sprintf("%.0f ns/tie", float64(d.Nanoseconds())/float64(n))
}

// bestOf runs f reps times and returns the fastest wall time.
func bestOf(reps int, f func()) time.Duration {
	if reps < 1 {
		reps = 1
	}
	best := time.Duration(0)
	for r := 0; r < reps; r++ {
		start := time.Now()
		f()
		if d := time.Since(start); r == 0 || d < best {
			best = d
		}
	}
	return best
}

// rate renders n operations over d as M/s.
func rate(n int, d time.Duration) string {
	if d <= 0 {
		return "inf M/s"
	}
	return fmt.Sprintf("%.1f M/s", float64(n)/d.Seconds()/1e6)
}

func speedup(ref, filt time.Duration) float64 {
	if filt <= 0 {
		return 0
	}
	return ref.Seconds() / filt.Seconds()
}

func rangeOf3(f *field.Field3D) float64 {
	lo, hi := f.U[0], f.U[0]
	for _, c := range [][]float32{f.U, f.V, f.W} {
		for _, v := range c {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	return float64(hi - lo)
}
