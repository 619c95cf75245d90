#!/usr/bin/env bash
# One-command benchmark (README.md): builds a Release copy of the tree into
# build-bench/ at the repository root, then runs the workloads, each in its
# own process.
#
#   bench/suite/run.sh [--workload NAME|all] [--seed S] [--seconds T]
#                      [--trace 0|1|FILE] [--smoke]
#
# The last line of standard output is one JSON object with the keys
# correct, attempted, failed and metrics.  Exit status 0 when every
# correctness gate passed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: no source tree at $root; the benchmark builds the" \
       "repository it is part of" >&2
  exit 1
fi

build="$root/build-bench"
if ! grep -qs "CMAKE_PROJECT_lamport_clocks_dircc_INCLUDE" \
     "$build/CMakeCache.txt"; then
  generator=()
  if command -v ninja > /dev/null; then generator=(-G Ninja); fi
  cmake -S "$root" -B "$build" "${generator[@]}" \
        -DCMAKE_BUILD_TYPE=Release \
        "-DCMAKE_PROJECT_lamport_clocks_dircc_INCLUDE=$here/hook.cmake" >&2
fi
cmake --build "$build" --target lcdc_bench_suite -j "$(nproc)" >&2

exec python3 "$here/report.py" --bin "$build/lcdc_bench_suite" "$@"
