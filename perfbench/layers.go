package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/derive"
	"repro/internal/field"
	"repro/internal/shm"
	"repro/internal/telemetry"
)

// sweepTime is the least time a repeated layer sweep measures for.
const sweepTime = time.Second

// psiSink keeps the sweep's results observable.
var psiSink int64

// deriveSweep evaluates derive's capped Ψ for every vertex against every
// adjacent cell, with the other vertices of the cell as the opposite face,
// which is the bound derivation a NoSpec compression performs.
func deriveSweep(rep *report, s *subject, col *telemetry.Collector) {
	root := col.Span("bench.sweep")
	defer root.End()
	f := s.orig.f3
	m := field.Mesh3D{NX: f.NX, NY: f.NY, NZ: f.NZ}
	u, v, w := s.fixed[0], s.fixed[1], s.fixed[2]
	buf := make([]int, 0, field.MaxVertexCells3D)
	calls := 0
	var sink int64
	d := timed(root, "derive.psi", func() {
		for vid := 0; vid < m.NumVertices(); vid++ {
			buf = m.VertexCells(vid, buf[:0])
			for _, c := range buf {
				var o [3]int
				n := 0
				for _, x := range m.CellVertices(c) {
					if x != vid {
						o[n] = x
						n++
					}
				}
				sink += derive.Psi3DCapped(u, v, w, o[0], o[1], o[2], vid, s.tauFix)
				calls++
			}
		}
	})
	psiSink = sink
	rep.set("derive.psi_calls", float64(calls))
	rep.set("derive.psi_sweep_ms", ms(d))
	rep.set("derive.psi_ns_per_call", float64(d.Nanoseconds())/float64(calls))
}

// containsSweep runs the batched containment predicate over every cell
// until sweepTime has passed. The cells it flags must be exactly the
// cells of the reference critical points.
func containsSweep(rep *report, s *subject, col *telemetry.Collector) {
	root := col.Span("bench.sweep")
	defer root.End()
	f := s.orig.f3
	d := &cp.Detector3D{Mesh: field.Mesh3D{NX: f.NX, NY: f.NY, NZ: f.NZ}, U: s.fixed[0], V: s.fixed[1], W: s.fixed[2]}
	cells := d.Mesh.NumCells()
	out := make([]bool, cells)
	var per sample
	start := time.Now()
	for len(per) < minOps || time.Since(start) < sweepTime {
		t := timed(root, "cp.contains", func() { d.ContainsBatch(nil, out) })
		per = append(per, float64(t.Nanoseconds())/float64(cells))
	}
	want := map[int]bool{}
	for _, p := range s.cps {
		want[p.Cell] = true
	}
	for c, in := range out {
		if in != want[c] {
			rep.check(fmt.Errorf("containment sweep disagrees with detection at cell %d", c))
			return
		}
	}
	rep.check(nil)
	rep.setSample("cp.contains_ns_per_cell", per)
}

// shmSweep compresses and decompresses the 2D field through the shared-memory
// slab pipeline at one and two workers. The container must not depend on
// the worker count, and every decode is checked against the original,
// which also times critical point detection on the decoded field.
func shmSweep(rep *report, s *subject, col *telemetry.Collector) error {
	root := col.Span("bench.sweep")
	defer root.End()
	var comp, decomp [3]sample
	var detect sample
	var res shm.Result
	var blobs [3][]byte
	for _, workers := range []int{1, 2} {
		start := time.Now()
		for len(comp[workers]) == 0 || time.Since(start) < sweepTime {
			var err error
			d := timed(root, "shm.compress", func() { res, err = shmCompress(s, workers) })
			if err != nil {
				return fmt.Errorf("shm compress: %w", err)
			}
			comp[workers] = append(comp[workers], ms(d))
			var dec vfield
			d = timed(root, "shm.decompress", func() { dec, err = shmDecompress(res.Blob, workers) })
			if err != nil {
				return fmt.Errorf("shm decompress: %w", err)
			}
			decomp[workers] = append(decomp[workers], ms(d))
			if blobs[workers] == nil {
				blobs[workers] = res.Blob
			}
			if !bytes.Equal(blobs[workers], res.Blob) {
				err = fmt.Errorf("shm container differs between runs at %d workers", workers)
			} else {
				_, d, err = s.checkDecoded(dec, root)
				detect = append(detect, ms(d))
			}
			rep.check(err)
		}
	}
	if !bytes.Equal(blobs[1], blobs[2]) {
		rep.check(fmt.Errorf("shm container differs between 1 and 2 workers"))
	}
	rep.setSample("shm.compress_ms", comp[2])
	rep.setSample("shm.decompress_ms", decomp[2])
	rep.set("shm.speedup_2w", comp[1].median()/comp[2].median())
	rep.set("shm.slabs", float64(res.Slabs))
	rep.set("shm.retries", float64(res.Retries))
	rep.set("shm.peak_window_mb", float64(res.PeakWindowBytes)/1e6)
	rep.setSample("cp.detect_ms", detect)
	return nil
}

func shmCompress(s *subject, workers int) (shm.Result, error) {
	opts := core.Options{Tau: s.tau, Spec: s.spec, RecSlab: -1}
	return shm.Compress2D(s.orig.f2, s.tr, opts, shm.Options{Workers: workers})
}

func shmDecompress(blob []byte, workers int) (vfield, error) {
	f, err := shm.Decompress2D(blob, workers)
	return vfield{f2: f}, err
}

// setPeakRSS reports peak_rss_mb: the process's resident high-water mark
// (VmHWM), in MB.
func setPeakRSS(rep *report) error {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return fmt.Errorf("peak RSS: %w", err)
			}
			rep.set("peak_rss_mb", kb*1024/1e6)
			return nil
		}
	}
	return errors.New("peak RSS: no VmHWM in /proc/self/status")
}
