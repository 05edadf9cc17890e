#!/usr/bin/env bash
# Builds sfc_bench from this checkout (first use only) and runs it.
#
#   benchmark/run.sh [--seed S] [--seconds N] [--out DIR]
#       every workload, each in its own process, untraced: prints
#       `workload metric value unit` lines and writes DIR/<workload>.json
#   benchmark/run.sh --trace [--seed S] [--seconds N] [--out DIR]
#       the traced run of every workload: per-layer metrics, plus
#       DIR/<workload>.layers.json and the Chrome trace DIR/<workload>.trace.json
#   benchmark/run.sh --self-check
#       corrupts one reference answer in every workload; exits non-zero when
#       the checker catches it (it must)
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#       one workload; the last line of standard output is the JSON result
#
# The build lives in build-benchmark/ at the root of the checkout; build
# output goes to standard error.  Exits non-zero if the build fails or any
# answer or invariant check fails.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/build-benchmark"

workload=""
seed=1
seconds=20
trace=0
self_check=0
out=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --self-check) self_check=1; shift ;;
    --trace)
      if [[ $# -gt 1 && ( "$2" == 0 || "$2" == 1 ) ]]; then
        trace="$2"; shift 2
      else
        trace=1; shift
      fi ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
out="${out:-$build/runs/seed-$seed}"

mkdir -p "$build"
(
  flock 9
  if [[ ! -f "$build/build.ninja" && ! -f "$build/Makefile" ]]; then
    generator=()
    if command -v ninja > /dev/null; then generator=(-G Ninja); fi
    cmake -S "$root/benchmark" -B "$build" "${generator[@]}" \
      -DCMAKE_BUILD_TYPE=Release >&2
  fi
  cmake --build "$build" --target sfc_bench -j "$(nproc)" >&2
) 9> "$build/.lock"

run_one() {
  local name="$1"
  local args=(--workload "$name" --seed "$seed" --seconds "$seconds"
              --trace "$trace" --work-dir "$build/work/$name-$$" --out "$out")
  if [[ $self_check == 1 ]]; then args+=(--self-check); fi
  "$build/sfc_bench" "${args[@]}"
}

if [[ -n "$workload" ]]; then
  run_one "$workload"
  exit
fi

status=0
for name in $("$build/sfc_bench" --list); do
  if [[ $self_check == 1 ]]; then
    if run_one "$name" > /dev/null; then
      echo "self-check: $name did NOT notice the corrupted reference" >&2
    else
      echo "self-check: $name caught the corrupted reference" >&2
      status=1
    fi
  elif ! run_one "$name" | grep -v '^{'; then
    status=1
  fi
done
echo "results in $out" >&2
exit $status
