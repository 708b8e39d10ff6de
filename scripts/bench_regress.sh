#!/usr/bin/env bash
# Benchmark regression gate for the evaluation fast path.
#
#   scripts/bench_regress.sh            diff against BENCH_eval.json (exit 1 on regression)
#   scripts/bench_regress.sh --capture  rewrite BENCH_eval.json from this machine
#
# Env knobs: BENCHTIME (default 2s), MAX_REGRESS (fractional ns/op slack,
# default 0.25), MAX_ALLOCS_REGRESS (fractional allocs/op slack, default
# benchdiff's tight 0.02). Per-eval allocation counts are deterministic;
# the whole-run and trace-tier benchmarks jitter by a few allocations
# from goroutine and HTTP scheduling, which the default still absorbs.
set -euo pipefail
cd "$(dirname "$0")/.."

# Without a captured baseline there is nothing to diff against: skip
# cleanly (exit 0) rather than burn benchmark time and fail on a fresh
# checkout. --capture is exactly how that baseline gets created, so it
# proceeds regardless.
if [ "${1:-}" != "--capture" ] && [ ! -f BENCH_eval.json ]; then
  echo "bench_regress: BENCH_eval.json not found; skipping diff" >&2
  echo "bench_regress: capture a baseline first: scripts/bench_regress.sh --capture" >&2
  exit 0
fi

# Every benchmark the gate covers. A rename or deletion must show up
# here as a hard failure, not silently shrink the gate.
gated=(
  BenchmarkCaptureHotLoop
  BenchmarkCaptureSearchShape
  BenchmarkEvalColdVsCompiled
  BenchmarkGARunMemoized
  BenchmarkGenerationBatch
  BenchmarkMeasureExactVsReplay
  BenchmarkMedianOfKReplay
  BenchmarkPeriodicReplayModal
  BenchmarkROMStepBatchKernel
  BenchmarkSolveBatchKernel
  BenchmarkStepTrace
  BenchmarkStepTraceBatch
  BenchmarkStepTraceBatchROM
  BenchmarkTraceDecodeV2
  BenchmarkTraceEncodeV2
  BenchmarkTraceStoreWarmVsCold
  BenchmarkTraceTierWarmVsCold
)
pattern="$(IFS='|'; echo "${gated[*]}")"

out="$(mktemp)"
trap 'rm -f "$out"' EXIT

go test -run '^$' -bench "$pattern" \
  -benchmem -benchtime "${BENCHTIME:-2s}" -count=1 \
  ./internal/cpu/ ./internal/testbed/ ./internal/core/ ./internal/pdn/ ./internal/circuit/ \
  ./internal/tracestore/ ./internal/dist/ | tee "$out"

missing=0
for b in "${gated[@]}"; do
  if ! grep -q "^${b}[/[:space:]-]" "$out"; then
    echo "bench_regress: gated benchmark ${b} produced no result (renamed or deleted?)" >&2
    missing=1
  fi
done
if [ "$missing" -ne 0 ]; then
  echo "bench_regress: refusing to ${1:---diff} with an incomplete benchmark set" >&2
  exit 1
fi

if [ "${1:-}" = "--capture" ]; then
  go run ./cmd/benchdiff -capture BENCH_eval.json \
    -note "captured by scripts/bench_regress.sh --capture; ns/op is machine-relative, allocs/op is not" <"$out"
else
  go run ./cmd/benchdiff -baseline BENCH_eval.json -max-regress "${MAX_REGRESS:-0.25}" \
    -max-allocs-regress "${MAX_ALLOCS_REGRESS:-0.02}" <"$out"
fi
