#!/usr/bin/env bash
# Runs the whole benchmark with one command: every workload untraced (the
# end-to-end metrics), then traced (the per-layer metrics), each in a fresh
# process so peak RSS belongs to one workload.
#
#   e2ebench/run_benchmark.sh [seed]        # seed defaults to 1
#
# Prints "<workload> <metric> <value> <unit>" for every metric. The
# scallop-bench-v1 reports (BENCH_e2e_<workload>.json,
# BENCH_e2e_<workload>_layers.json, BENCH_client.json) and the
# <workload>.bench_trace.json spans land in $SCALLOP_BENCH_DIR, or in
# .bench_build/reports when that is unset. Exits non-zero when any output
# check failed.
set -euo pipefail

seed="${1:-1}"
cd "$(dirname "$0")/.."
config() {
  python3 -c "import json; b = json.load(open('BENCHMARK.json')); print($1)"
}
seconds="$(config 'b["run_seconds"]')"
workloads="$(config '" ".join(w["name"] for w in b["workloads"])')"

status=0
for workload in $workloads; do
  for trace in 0 1; do
    if ! out="$(python3 e2ebench/run.py --workload "$workload" --seed "$seed" \
                  --seconds "$seconds" --trace "$trace")"; then
      status=1
    fi
    printf '%s\n' "$out" | grep -v '^{' || true
  done
done
if [[ $status -ne 0 ]]; then
  echo "run_benchmark.sh: an output check failed (see stderr)" >&2
fi
exit "$status"
