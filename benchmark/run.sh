#!/usr/bin/env bash
# Builds the benchmark (into .bench_build/ at the repository root), runs the
# percentile unit test, then runs the benchmark.
#
#   benchmark/run.sh             every workload, untraced: end-to-end metrics
#   benchmark/run.sh --traced    every workload, traced: per-layer metrics,
#                                with Chrome traces in .bench_build/traces/
#   benchmark/run.sh --workload <name> --seed <n> [--seconds 15] --trace <0|1>
#                    [--report <file>] [--trace-out <file>]
#                                one run; the last line of standard output is
#                                its JSON result. The window is fixed at 15 s;
#                                --seconds is accepted with that value only
#
# Build output goes to standard error, so the result stays the last line.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"

{
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$build" -j "$(nproc)" --target ptpbench stats_test
  "$build/stats_test"
} 1>&2

commit=unknown
if [[ -e "$root/.git" ]]; then
  commit="$(git -C "$root" describe --always --dirty 2>/dev/null || echo unknown)"
fi

if [[ $# -eq 0 || "${1:-}" == "--traced" ]]; then
  trace=0
  if [[ "${1:-}" == "--traced" ]]; then
    trace=1
    mkdir -p "$build/traces"
  fi
  for workload in mix_hot shuffle_pinned adhoc_cold small_under_large; do
    args=(--workload "$workload" --seed 42 --trace "$trace" --commit "$commit")
    if [[ $trace == 1 ]]; then
      args+=(--trace-out "$build/traces/$workload.trace.json")
    fi
    "$build/ptpbench" "${args[@]}" | grep -v -e '^report: ' -e '^{'
  done
  exit 0
fi

# One run. A traced run without --trace-out writes its trace next to the
# build, named after the workload and seed.
workload="" seed="" trace="" trace_out=""
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
  case "${args[$i]}" in
    --workload) workload="${args[$((i + 1))]:-}" ;;
    --seed) seed="${args[$((i + 1))]:-}" ;;
    --trace) trace="${args[$((i + 1))]:-}" ;;
    --trace-out) trace_out="${args[$((i + 1))]:-}" ;;
  esac
done
extra=(--commit "$commit")
if [[ "$trace" == 1 && -z "$trace_out" ]]; then
  mkdir -p "$build/traces"
  extra+=(--trace-out "$build/traces/$workload-seed$seed.trace.json")
fi
exec "$build/ptpbench" "$@" "${extra[@]}"
