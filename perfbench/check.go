package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/encoder"
	"repro/internal/huffman"
	"repro/internal/telemetry"
)

// boundCheck compares original and decoded components in the fixed-point
// domain, where the arithmetic is exact. over counts values whose error
// exceeds τ′; bad counts values outside the codec's pointwise contract
// (THEORY.md §6). NoSpec and ST1 never exceed τ′: the derived bound starts
// at τ′ and only shrinks, and ST1's trial is capped at max(τ′, ξ) = τ′.
// ST2–ST4 verify speculative bounds up to τ′·2^n_l (n_l = 1 for ST2, 3 for
// ST3 and ST4) where the data provably carries no topology, so a strict
// |x − x̂| ≤ τ′ check would fail by design there; over reports how much of a
// field uses that exemption.
func boundCheck(orig, dec [][]int64, tauFix int64, spec core.Speculation) (over, bad int) {
	limit := tauFix
	switch spec {
	case core.ST2:
		limit = tauFix << 1
	case core.ST3, core.ST4:
		limit = tauFix << 3
	}
	for c := range orig {
		for v := range orig[c] {
			e := abs64(orig[c][v] - dec[c][v])
			if e > tauFix {
				over++
			}
			if e > limit {
				bad++
			}
		}
	}
	return over, bad
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// entropyRun is one outside pass over a core container through the entropy
// layers: encoder.Unpack, huffman.Decompress of the two symbol sections,
// then huffman.Compress and encoder.Pack back.
type entropyRun struct {
	unpack, decode, encode, pack time.Duration
	symbols                      int // decoded bound and code symbols
	symbolBytes                  int // bytes of the two Huffman sections
}

// entropyRoundTrip times the entropy layers on a real container and checks
// that re-encoding reproduces both Huffman sections and the whole
// container byte for byte.
func entropyRoundTrip(blob []byte, sp *telemetry.Span) (entropyRun, error) {
	var r entropyRun
	var sections [][]byte
	var err error
	r.unpack = timed(sp, "encoder.unpack", func() { sections, err = encoder.Unpack(blob) })
	if err != nil {
		return r, fmt.Errorf("encoder.Unpack: %w", err)
	}
	if len(sections) != 4 {
		return r, fmt.Errorf("container has %d sections, want 4", len(sections))
	}
	var syms [2][]uint32
	r.decode = timed(sp, "huffman.decode", func() {
		for i := range syms {
			if syms[i], err = huffman.Decompress(sections[1+i]); err != nil {
				return
			}
		}
	})
	if err != nil {
		return r, fmt.Errorf("huffman.Decompress: %w", err)
	}
	var again [2][]byte
	r.encode = timed(sp, "huffman.encode", func() {
		for i := range syms {
			again[i] = huffman.Compress(syms[i])
		}
	})
	for i := range again {
		r.symbols += len(syms[i])
		r.symbolBytes += len(sections[1+i])
		if !bytes.Equal(again[i], sections[1+i]) {
			return r, fmt.Errorf("re-encoded Huffman section %d differs from the original", 1+i)
		}
	}
	var packed []byte
	r.pack = timed(sp, "encoder.pack", func() {
		packed, err = encoder.Pack(sections[0], again[0], again[1], sections[3])
	})
	if err != nil {
		return r, fmt.Errorf("encoder.Pack: %w", err)
	}
	if !bytes.Equal(packed, blob) {
		return r, errors.New("re-packed container differs from the original")
	}
	return r, nil
}
