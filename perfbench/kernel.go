package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exact/filter"
	"repro/internal/field"
	"repro/internal/telemetry"
)

// setupReps is how often a run repeats its set-up; setup_s is the median.
const setupReps = 5

// decodeReps is how often an operation decodes its container in its own
// timed phase. Decoding takes a few percent of an operation, so a single
// timing per operation leaves decompress_mbps with too few samples to be
// steady.
const decodeReps = 8

// minOps is the fewest timed operations a measured phase runs, however
// short --seconds is.
const minOps = 3

// kernelWorkload compresses, decompresses and verifies a crop of a
// generated 3D field on one goroutine, straight through core. The seed
// picks the crop origin inside the slightly larger generated field.
type kernelWorkload struct {
	name       string
	gen        func() *field.Field3D
	nx, ny, nz int
	spec       core.Speculation
	layers     []string // the layers its traced run measures
}

// nekST4 is the speculate-verify workload: ST4 checks every adjacent cell
// of every trial with orient3 predicates and never derives a Ψ bound.
var nekST4 = kernelWorkload{
	name: "nek-st4",
	gen:  func() *field.Field3D { return datagen.Nek5000(52, 52, 52) },
	nx:   48, ny: 48, nz: 48,
	spec:   core.ST4,
	layers: []string{"bench", "datagen", "fixed", "filter", "core", "cp", "huffman", "encoder"},
}

// hurricaneNoSpec is the derive workload: every vertex derives its bound
// from Ψ over its adjacent tetrahedra, with no speculation trials.
var hurricaneNoSpec = kernelWorkload{
	name: "hurricane-nospec",
	gen:  func() *field.Field3D { return datagen.Hurricane(68, 68, 34) },
	nx:   64, ny: 64, nz: 32,
	spec:   core.NoSpec,
	layers: []string{"bench", "datagen", "fixed", "filter", "core", "derive", "cp", "huffman", "encoder"},
}

// setup generates the field, crops it at the seed's origin and prepares
// the subject: fixed-point fit and conversion plus the reference critical
// points.
func (k kernelWorkload) setup(seed int64, col *telemetry.Collector) (*subject, error) {
	sp := col.Span("bench.setup")
	defer sp.End()
	var big *field.Field3D
	timed(sp, "datagen."+k.name, func() { big = k.gen() })
	rng := rand.New(rand.NewSource(seed))
	ox, oy, oz := rng.Intn(big.NX-k.nx+1), rng.Intn(big.NY-k.ny+1), rng.Intn(big.NZ-k.nz+1)
	f := field.NewField3D(k.nx, k.ny, k.nz)
	for z := 0; z < k.nz; z++ {
		for y := 0; y < k.ny; y++ {
			for x := 0; x < k.nx; x++ {
				src, dst := big.Idx(ox+x, oy+y, oz+z), f.Idx(x, y, z)
				f.U[dst], f.V[dst], f.W[dst] = big.U[src], big.V[src], big.W[src]
			}
		}
	}
	return newSubject(vfield{f3: f}, k.spec, sp)
}

func (k kernelWorkload) run(cfg config, rep *report) error {
	// The workload runs on one goroutine, and with one P the runtime's
	// garbage collection runs on the same core too. Its timings are taken
	// on the process's CPU clock: on an idle core that is the wall time of
	// the work, and it leaves out time the process is not running because
	// another process or the hypervisor has the core.
	runtime.GOMAXPROCS(1)
	clock = cpuClock
	var col *telemetry.Collector
	if cfg.trace {
		col = telemetry.New()
	}
	s, err := repeatSetup(rep, func() (*subject, error) { return k.setup(cfg.seed, col) }, nil)
	if err != nil {
		return err
	}

	if !cfg.trace {
		ops, elapsed := s.runOps(nil, cfg.measure, rep)
		kernelEndToEnd(rep, s, ops, elapsed)
		return setPeakRSS(rep)
	}
	ops, _ := s.runOps(col, cfg.measure, rep)
	opLayerMetrics(rep, s, ops)
	rep.set("bench.trace_overhead_pct", overheadPct(compressMBps(s, ops, false), compressMBps(s, ops, true)))
	containsSweep(rep, s, col)
	if slices.Contains(k.layers, "derive") {
		deriveSweep(rep, s, col)
	}
	return finishTrace(rep, col, cfg, k.name, k.layers)
}

// opResult is one timed compress → decompress → verify operation.
type opResult struct {
	blob                      []byte
	stats                     core.Stats
	filt                      filter.Snapshot // counter deltas over the compress call
	compress, detect, latency time.Duration
	decompress                []time.Duration // the decode phase's decodeReps timings
	ent                       entropyRun
	allocMB                   float64 // heap allocated by the compress call
	over                      int     // values with error beyond τ′
	traced                    bool
}

// op runs one operation under a root span of col (untraced when col is
// nil) and checks its output. The decode in the compress → decompress →
// verify chain counts in the operation's latency; decompress_mbps comes
// from a separate phase of repeated decodes. Each timed phase starts from
// a collected heap, so garbage one phase leaves does not bill the next.
func (s *subject) op(col *telemetry.Collector) (opResult, error) {
	r := opResult{traced: col != nil}
	root := col.Span("bench.op")
	defer root.End()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f0 := filter.Stats()
	t0 := clock()
	var err error
	r.compress = timed(root, "core.compress", func() { r.blob, r.stats, err = s.compress() })
	r.filt = snapDelta(filter.Stats(), f0)
	runtime.ReadMemStats(&m1)
	r.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	if err != nil {
		return r, fmt.Errorf("compress: %w", err)
	}
	var dec vfield
	timed(root, "core.decompress", func() { dec, err = s.decompress(r.blob) })
	if err != nil {
		return r, fmt.Errorf("decompress: %w", err)
	}
	if r.over, r.detect, err = s.checkDecoded(dec, root); err != nil {
		return r, err
	}
	if r.ent, err = entropyRoundTrip(r.blob, root); err != nil {
		return r, err
	}
	r.latency = clock() - t0
	// Each repeated decode must reproduce the checked field exactly.
	runtime.GC()
	for i := 0; i < decodeReps; i++ {
		var again vfield
		d := timed(root, "core.decompress", func() { again, err = s.decompress(r.blob) })
		if err != nil {
			return r, fmt.Errorf("decompress: %w", err)
		}
		if !reflect.DeepEqual(again.comps(), dec.comps()) {
			return r, fmt.Errorf("decode %d of the same container differs from the checked one", i+1)
		}
		r.decompress = append(r.decompress, d)
	}
	return r, nil
}

// runOps repeats op for at least d of wall time (and at least minOps
// times) after one warm-up operation, which is checked but not timed: it
// grows the heap and fills the scratch pools the timed operations reuse.
// With a collector, every second operation is traced, so the traced and
// untraced operations see the same drift of the host. Every operation is
// checked, and must also reproduce the warm-up's container and work
// counters exactly: the input does not change within a run. The returned
// duration is the timed loop's length on the run's clock.
func (s *subject) runOps(col *telemetry.Collector, d time.Duration, rep *report) ([]opResult, time.Duration) {
	ref, err := s.op(nil)
	rep.check(err)
	if err != nil {
		return nil, 0
	}
	var ops []opResult
	start, c0 := time.Now(), clock()
	for n := 0; n < minOps || time.Since(start) < d; n++ {
		c := col
		if n%2 == 0 {
			c = nil
		}
		r, err := s.op(c)
		if err == nil && (!bytes.Equal(r.blob, ref.blob) || r.stats != ref.stats || r.filt != ref.filt) {
			err = fmt.Errorf("operation %d differs from the warm-up on the same input", n+1)
		}
		rep.check(err)
		if err == nil {
			ops = append(ops, r)
		}
	}
	return ops, clock() - c0
}

func snapDelta(a, b filter.Snapshot) filter.Snapshot {
	return filter.Snapshot{
		Orient2Fast: a.Orient2Fast - b.Orient2Fast, Orient2Zero: a.Orient2Zero - b.Orient2Zero,
		Orient2Wide:   a.Orient2Wide - b.Orient2Wide,
		Orient3Static: a.Orient3Static - b.Orient3Static, Orient3Run: a.Orient3Run - b.Orient3Run,
		Orient3Zero: a.Orient3Zero - b.Orient3Zero, Orient3Exact: a.Orient3Exact - b.Orient3Exact,
		Orient3Wide: a.Orient3Wide - b.Orient3Wide,
		PsiCert:     a.PsiCert - b.PsiCert, PsiFallback: a.PsiFallback - b.PsiFallback,
	}
}

// compressMBps is the median compress rate of the traced or the untraced
// operations.
func compressMBps(s *subject, ops []opResult, traced bool) float64 {
	var x sample
	for _, o := range ops {
		if o.traced == traced {
			x = append(x, mbps(s.orig.rawBytes(), o.compress))
		}
	}
	return x.median()
}

// kernelEndToEnd reports the end-to-end metrics of a kernel workload. An
// operation there is one compress → decompress → verify cycle.
func kernelEndToEnd(rep *report, s *subject, ops []opResult, elapsed time.Duration) {
	if len(ops) == 0 {
		return
	}
	raw := s.orig.rawBytes()
	var comp, decomp, lat sample
	for _, o := range ops {
		comp = append(comp, mbps(raw, o.compress))
		for _, d := range o.decompress {
			decomp = append(decomp, mbps(raw, d))
		}
		lat = append(lat, ms(o.latency))
	}
	rep.setSample("compress_mbps", comp)
	rep.setSample("decompress_mbps", decomp)
	rep.set("ratio", float64(raw)/float64(len(ops[0].blob)))
	rep.set("rps", float64(len(ops))/elapsed.Seconds())
	rep.setSample("latency_p50_ms", lat)
	rep.setValue("latency_p90_ms", lat.quantile(0.9), len(lat))
}

// opLayerMetrics reports the per-layer metrics the timed operations
// yield: layer times as medians over the operations, exact work counts
// from the first (every operation repeats them exactly).
func opLayerMetrics(rep *report, s *subject, ops []opResult) {
	if len(ops) == 0 {
		return
	}
	var comp, decomp, detect, unpack, decode, encode, pack, alloc sample
	for _, o := range ops {
		comp = append(comp, ms(o.compress))
		for _, d := range o.decompress {
			decomp = append(decomp, ms(d))
		}
		detect = append(detect, ms(o.detect))
		unpack = append(unpack, ms(o.ent.unpack))
		decode = append(decode, ms(o.ent.decode))
		encode = append(encode, ms(o.ent.encode))
		pack = append(pack, ms(o.ent.pack))
		alloc = append(alloc, o.allocMB)
	}
	rep.setSample("core.compress_ms", comp)
	rep.setSample("core.decompress_ms", decomp)
	rep.setSample("cp.detect_ms", detect)
	rep.setSample("encoder.unpack_ms", unpack)
	rep.setSample("huffman.decode_ms", decode)
	rep.setSample("huffman.encode_ms", encode)
	rep.setSample("encoder.pack_ms", pack)
	rep.setSample("core.alloc_mb", alloc)

	o := ops[0]
	f := o.filt
	o3 := f.Orient3Static + f.Orient3Run + f.Orient3Zero + f.Orient3Exact + f.Orient3Wide
	rep.set("filter.orient3_calls", float64(o3))
	rep.set("filter.orient3_zero", float64(f.Orient3Zero))
	rep.set("filter.orient3_exact", float64(f.Orient3Exact))
	rep.set("filter.orient3_accept_rate", pct(float64(f.Orient3Static+f.Orient3Run), float64(o3)))
	rep.set("filter.psi_cert", float64(f.PsiCert))
	rep.set("filter.psi_fallback", float64(f.PsiFallback))
	rep.set("filter.psi_cert_rate", pct(float64(f.PsiCert), float64(f.PsiCert+f.PsiFallback)))
	st := o.stats
	rep.set("core.spec_trials", float64(st.SpecTrials))
	rep.set("core.spec_fails", float64(st.SpecFails))
	rep.set("core.spec_cutoffs", float64(st.SpecCutoffs))
	rep.set("core.spec_success_rate", pct(float64(st.SpecTrials-st.SpecFails), float64(st.SpecTrials)))
	rep.set("core.trials_per_vertex", float64(st.SpecTrials)/float64(st.Vertices))
	rep.set("core.relaxed", float64(st.Relaxed))
	rep.set("core.lossless", float64(st.Lossless))
	rep.set("core.literals", float64(st.Literals))
	rep.set("core.over_tau_values", float64(o.over))
	rep.set("cp.critical_points", float64(len(s.cps)))
	rep.set("huffman.symbols", float64(o.ent.symbols))
	rep.set("huffman.bits_per_symbol", 8*float64(o.ent.symbolBytes)/float64(o.ent.symbols))
	rep.set("encoder.container_bytes", float64(len(o.blob)))
}

// repeatSetup runs setup setupReps times, calling teardown (when non-nil)
// between repetitions outside the timing, and reports setup_s and the
// fixed layer's calls as medians over the repetitions. It returns the last
// repetition's subject.
func repeatSetup(rep *report, setup func() (*subject, error), teardown func()) (*subject, error) {
	var total, fit, toFixed sample
	var s *subject
	for i := 0; i < setupReps; i++ {
		if i > 0 && teardown != nil {
			teardown()
		}
		runtime.GC()
		t0 := clock()
		var err error
		if s, err = setup(); err != nil {
			return nil, err
		}
		total = append(total, (clock() - t0).Seconds())
		fit = append(fit, ms(s.fitTime))
		toFixed = append(toFixed, ms(s.toFixedTime))
	}
	rep.setSample("setup_s", total)
	rep.setSample("fixed.fit_ms", fit)
	rep.setSample("fixed.tofixed_ms", toFixed)
	return s, nil
}

// overheadPct is how much slower the traced operations ran than the
// untraced ones, in percent of the traced rate.
func overheadPct(untraced, traced float64) float64 {
	if traced == 0 {
		return 0
	}
	return 100 * (untraced/traced - 1)
}
