#!/bin/sh
# predgate.sh [pred flags] — filtered-predicate efficacy gate.
#
# Thin wrapper over `cpbench pred`: runs the predicate microbenchmark
# on the Ocean and Nek5000 golden fields and exits nonzero when the
# filtered sign-of-determinant layer loses its contract — an exact
# fallback rate above 5% on the detection sweep corpus, a Ψ-quotient
# certification rate below 50%, a filtered-vs-reference speedup
# below 1.5× on 3D orientation / 1.35× on the Ψ derivation (the Ψ
# threshold carries ~10% noise headroom under its ~1.5× typical), or
# an SoS table path that disagrees with the generic SoSSign reference
# on a tie of the Nek ST4 compress or beats it by less than 2×.
# Thresholds are overridable with the pred flags, passed through:
#
#	scripts/predgate.sh
#	scripts/predgate.sh -max-fallback 0.10 -min-speedup 1.2
#
# CPBENCH overrides how cpbench is invoked (e.g. a prebuilt binary in
# CI); the default builds from source, so the gate needs only the go
# toolchain.
set -eu

: "${CPBENCH:=go run ./cmd/cpbench}"

exec $CPBENCH pred -gate -count 5 "$@"
