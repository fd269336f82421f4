#!/bin/bash
# Regenerates every table and figure; writes one output file per
# experiment under results/. Keeps going past a binary that fails, then
# exits non-zero naming every one that did.
set -u
cd "$(dirname "$0")"
export ACCELFLOW_DURATION_MS="${ACCELFLOW_DURATION_MS:-120}"
BINS="table01_connectivity table02_traces table03_params table04_paths \
      fig02_traces \
      fig01_breakdown fig03_overhead fig05_datasizes fig11_latency fig12_loads \
      fig13_ablation fig14_throughput fig15_relief_suite fig16_serverless \
      fig17_breakdown fig18_chiplets fig19_pes fig20_generations \
      sens_interchiplet sens_speedup sens_instances sens_overflow \
      ext_priority q2_branches \
      stats_glue stats_utilization stats_energy stats_events stats_area stats_profile diag_timeline export_csv"
cargo build --release -p accelflow-bench 2>/dev/null
failed=""
for b in $BINS; do
  echo "== running $b =="
  cargo run --release -q -p accelflow-bench --bin "$b" > "results/$b.txt" 2>&1 || {
    echo "FAILED: $b"
    failed="$failed $b"
  }
done
if [ -n "$failed" ]; then
  echo "failed:$failed"
  exit 1
fi
echo "all experiments done"
