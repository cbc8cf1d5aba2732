#!/usr/bin/env bash
# Runs the whole benchmark: for every workload RUNS untraced runs (the
# end-to-end metrics) and then one traced run (the per-layer metrics),
# each in its own process, and prints the total elapsed time.
#
#   benchmark/run.sh [OUT]
#
# OUT is a run-set file (default benchmark/out/runset.json) or, with a
# trailing slash, a directory that gets one <workload>.json each — that
# is how benchmark/baseline/ is produced. Existing run sets are appended
# to. Environment: RUNS (5), SEED (2019), RUN_SECONDS (15), WORKLOADS.
# Compare two run sets with
#   cargo run --release --manifest-path benchmark/Cargo.toml -- compare A B
set -euo pipefail
cd "$(dirname "$0")/.."

out=${1:-benchmark/out/runset.json}
runs=${RUNS:-5}
seed=${SEED:-2019}
seconds=${RUN_SECONDS:-15}
workloads=${WORKLOADS:-ingest_cold relay_warm durable_commit lifecycle fleet_gossip}
commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
bench=(cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- run)

started=$SECONDS
for workload in $workloads; do
  case $out in
    */) file=$out$workload.json ;;
    *) file=$out ;;
  esac
  for ((i = 1; i <= runs; i++)); do
    echo "--- $workload: untraced run $i of $runs"
    "${bench[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" \
      --trace 0 --out "$file" --commit "$commit" | sed '$d'
  done
  echo "--- $workload: traced run"
  "${bench[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" \
    --trace 1 --out "$file" --commit "$commit" | sed '$d'
done
echo "benchmark finished in $((SECONDS - started)) s; results in $out"
