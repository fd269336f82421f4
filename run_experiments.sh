#!/bin/bash
# Regenerates every table and figure; writes one output file per
# experiment under results/. Keeps going past an experiment that fails,
# then exits non-zero naming every one that did.
set -u
cd "$(dirname "$0")"
export ACCELFLOW_DURATION_MS="${ACCELFLOW_DURATION_MS:-120}"
cargo build --release -q -p accelflow-bench || exit 1
BIN="${CARGO_TARGET_DIR:-target}/release/experiments"
failed=""
for id in $($BIN --list); do
  echo "== running $id =="
  $BIN "$id" > "results/$id.txt" 2>&1 || {
    echo "FAILED: $id"
    failed="$failed $id"
  }
done
if [ -n "$failed" ]; then
  echo "failed:$failed"
  exit 1
fi
echo "all experiments done"
