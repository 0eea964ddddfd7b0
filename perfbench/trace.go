package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// selfLayers are the layers a traced run reports self time for: the
// modules under internal/ the benchmark calls, plus the benchmark's own
// code (checks, loops) as "bench". The filter layer runs inside core, cp
// and derive calls and is measured by its counters instead.
var selfLayers = []string{"bench", "datagen", "fixed", "core", "cp", "derive",
	"huffman", "encoder", "shm", "codec", "server"}

// finishTrace writes the run's spans as a Chrome trace, builds the
// per-layer self-time table and reports each layer's share of the traced
// time. Every layer the workload measures must have recorded a span.
func finishTrace(rep *report, col *telemetry.Collector, cfg config, name string, layers []string) error {
	snap := col.Snapshot()
	path := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.json", name, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTraceSnapshot(f, snap); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	self := map[string]time.Duration{}
	spans := map[string]int{}
	for _, s := range snap.Spans {
		foldSelf(s, self, spans)
	}
	var total time.Duration
	for _, d := range self {
		total += d
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  self time by layer (Chrome trace: %s)\n", path)
	fmt.Fprintf(&b, "  %-10s %8s %12s %8s\n", "layer", "spans", "self_ms", "share")
	names := make([]string, 0, len(self))
	for l := range self {
		names = append(names, l)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, l := range names {
		fmt.Fprintf(&b, "  %-10s %8d %12.1f %7.2f%%\n", l, spans[l], ms(self[l]), pct(float64(self[l]), float64(total)))
	}
	rep.selfTable = b.String()
	for _, l := range selfLayers {
		if spans[l] == 0 && slices.Contains(layers, l) {
			rep.problem("traced run recorded no span for layer %s", l)
		}
		rep.set("self."+l+"_pct", pct(float64(self[l]), float64(total)))
	}
	return nil
}

// foldSelf adds the self time of s and its descendants to self, keyed by
// layer (the span name up to its first dot). A span's self time is its
// duration minus the part of it its children cover.
func foldSelf(s telemetry.SpanSnapshot, self map[string]time.Duration, spans map[string]int) {
	layer, _, _ := strings.Cut(s.Name, ".")
	spans[layer]++
	kids := append([]telemetry.SpanSnapshot(nil), s.Children...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	covered, end := int64(0), s.StartNS
	for _, k := range kids {
		lo, hi := max(k.StartNS, end), k.StartNS+k.DurationNS
		if hi > lo {
			covered += hi - lo
			end = hi
		}
		foldSelf(k, self, spans)
	}
	self[layer] += time.Duration(s.DurationNS - covered)
}
