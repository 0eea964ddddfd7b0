package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/field"
	"repro/internal/fixed"
	"repro/internal/telemetry"
)

// tauRel is the paper's -R 0.01: τ is one percent of the value range.
const tauRel = 0.01

// vfield is a 2D or 3D vector field; exactly one of f2 and f3 is set. The
// layers keep 2D and 3D twin entry points, so the benchmark dispatches here
// and nowhere else.
type vfield struct {
	f2 *field.Field2D
	f3 *field.Field3D
}

func (v vfield) comps() [][]float32 {
	if v.f3 != nil {
		return v.f3.Components()
	}
	return [][]float32{v.f2.U, v.f2.V}
}

func (v vfield) dims() []int {
	if v.f3 != nil {
		return []int{v.f3.NX, v.f3.NY, v.f3.NZ}
	}
	return []int{v.f2.NX, v.f2.NY}
}

func (v vfield) source() field.SlabSource {
	if v.f3 != nil {
		return field.Mem3D(v.f3)
	}
	return field.Mem2D(v.f2)
}

// rawBytes is the size of the field as float32 components.
func (v vfield) rawBytes() int {
	c := v.comps()
	return 4 * len(c) * len(c[0])
}

// raw is the field in the daemon's request body layout.
func (v vfield) raw() ([]byte, error) {
	var b bytes.Buffer
	err := field.WriteRaw(&b, v.comps()...)
	return b.Bytes(), err
}

func (v vfield) detect(tr fixed.Transform) []cp.Point {
	if v.f3 != nil {
		return cp.DetectField3D(v.f3, tr)
	}
	return cp.DetectField2D(v.f2, tr)
}

// subject is a workload's prepared input: the field, its fixed-point
// transform and bound, and the reference outputs the checks compare with.
type subject struct {
	orig   vfield
	tr     fixed.Transform
	tau    float64 // absolute τ
	tauFix int64   // τ′, the bound in the fixed-point domain
	spec   core.Speculation
	fixed  [][]int64  // the original components in the fixed-point domain
	cps    []cp.Point // the original field's critical points
	// fitTime and toFixedTime are this setup's fixed-layer calls.
	fitTime, toFixedTime time.Duration
}

// newSubject fits the transform, converts the field to fixed point and
// detects its critical points, with a child span of sp around each layer
// call.
func newSubject(f vfield, spec core.Speculation, sp *telemetry.Span) (*subject, error) {
	s := &subject{orig: f, spec: spec}
	comps := f.comps()
	var err error
	s.fitTime = timed(sp, "fixed.fit", func() { s.tr, err = fixed.Fit(comps...) })
	if err != nil {
		return nil, err
	}
	st, err := field.SourceStats(f.source(), 0)
	if err != nil {
		return nil, err
	}
	s.tau = tauRel * st.Range()
	s.tauFix = s.tr.Bound(s.tau)
	s.toFixedTime = timed(sp, "fixed.tofixed", func() { s.fixed = toFixed(s.tr, comps) })
	timed(sp, "cp.detect", func() { s.cps = f.detect(s.tr) })
	return s, nil
}

func toFixed(tr fixed.Transform, comps [][]float32) [][]int64 {
	out := make([][]int64, len(comps))
	for c, comp := range comps {
		out[c] = make([]int64, len(comp))
		tr.ToFixed(comp, out[c])
	}
	return out
}

// compress and decompress are the kernel workloads' direct calls into
// core, on their 3D fields.
func (s *subject) compress() ([]byte, core.Stats, error) {
	return core.CompressField3DStats(s.orig.f3, s.tr, core.Options{Tau: s.tau, Spec: s.spec})
}

func (s *subject) decompress(blob []byte) (vfield, error) {
	f, err := core.Decompress3D(blob)
	return vfield{f3: f}, err
}

// checkDecoded verifies a decoded field against the original: same
// dimensions, FP=FN=FT=0 by cp.Compare, and the pointwise error contract.
// It returns the number of values whose error exceeds τ′ (allowed by the
// contract where the data provably carries no topology) and the time
// critical point detection on the decoded field took.
func (s *subject) checkDecoded(dec vfield, sp *telemetry.Span) (over int, detect time.Duration, err error) {
	if fmt.Sprint(dec.dims()) != fmt.Sprint(s.orig.dims()) {
		return 0, 0, fmt.Errorf("decoded dims %v, want %v", dec.dims(), s.orig.dims())
	}
	var pts []cp.Point
	detect = timed(sp, "cp.detect", func() { pts = dec.detect(s.tr) })
	var rep cp.Report
	timed(sp, "cp.compare", func() { rep = cp.Compare(s.cps, pts) })
	if !rep.Preserved() {
		return 0, detect, fmt.Errorf("critical points not preserved: %v", rep)
	}
	over, bad := boundCheck(s.fixed, toFixed(s.tr, dec.comps()), s.tauFix, s.spec)
	if bad > 0 {
		return over, detect, fmt.Errorf("%d values outside the error contract (τ′=%d, %v)", bad, s.tauFix, s.spec)
	}
	return over, detect, nil
}

// timed runs fn inside a child span of parent (a no-op when parent is nil)
// and returns the time it took on the run's clock.
func timed(parent *telemetry.Span, name string, fn func()) time.Duration {
	sp := parent.Child(name)
	t0 := clock()
	fn()
	d := clock() - t0
	sp.End()
	return d
}
