#!/bin/sh
# Prints perfbench's exact proxies at seed 42 as one sorted JSON object
# keyed by workload: counts and simulated results that depend only on
# the code, never on the host. CI diffs this against
# ci/perf_proxies.json; docs/BENCHMARKS.md says how to recapture it.
# Needs jq and a release perfbench:
#   cargo build --release --offline --manifest-path perfbench/Cargo.toml
set -eu
cd "$(dirname "$0")/.."
e2e='^(allocs_per_req|sim_p99_us|served_pct|slo_window_pct|max_rps)$'
layer='^(sim\.events|machine\.ev\..+|workloads\.(arrivals|allocs_per_arrival|heap_bytes_per_arrival)|snapshot\.bytes|control\..+)$'
for w in fig11_crn fig14_search diurnal_cluster; do
  for trace in 0 1; do
    perfbench/target/release/perfbench --workload "$w" --seed 42 --seconds 0 --trace "$trace" | tail -n 1
  done | jq -s --arg w "$w" --arg e2e "$e2e" --arg layer "$layer" '
    def pick($re): .metrics | with_entries(select(.key | test($re)) | .value |= .value);
    {($w): ({correct: all(.[]; .correct), failed: (map(.failed) | add)}
      + (.[0] | pick($e2e)) + (.[1] | pick($layer)))}'
done | jq -s -S add
