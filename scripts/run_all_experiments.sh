#!/usr/bin/env bash
# Regenerates every table and figure of the paper plus the ablations.
# Results (text + JSON) land in results/. A failing experiment does not
# stop the rest; the failures are listed at the end and the exit code is 1.
set -uo pipefail
cd "$(dirname "$0")/.."
mkdir -p results

failed=()
run() {
  local name="$1"
  shift
  echo "=== $name ==="
  if ! ( "$@" 2>&1 | tee "results/${name}.txt" ); then
    echo "FAILED: $name"
    failed+=("$name")
  fi
  echo
}

run table1_schema     cargo run -q --release -p sisg-bench --bin table1_schema
run table2_datasets   cargo run -q --release -p sisg-bench --bin table2_datasets
run table3_hitrate    cargo run -q --release -p sisg-bench --bin table3_hitrate
run fig3_ctr          cargo run -q --release -p sisg-bench --bin fig3_ctr
run fig4_cold_users   cargo run -q --release -p sisg-bench --bin fig4_cold_users
run fig5_tsne         cargo run -q --release -p sisg-bench --bin fig5_tsne
run fig6_cold_items   cargo run -q --release -p sisg-bench --bin fig6_cold_items
run fig7a_workers     cargo run -q --release -p sisg-bench --bin fig7a_workers
run fig7b_corpus      cargo run -q --release -p sisg-bench --bin fig7b_corpus
run ablation_partition cargo run -q --release -p sisg-bench --bin ablation_partition
run ablation_atns     cargo run -q --release -p sisg-bench --bin ablation_atns
run ablation_beta     cargo run -q --release -p sisg-bench --bin ablation_beta
run ablation_ann      cargo run -q --release -p sisg-bench --bin ablation_ann

if (( ${#failed[@]} )); then
  echo "${#failed[@]} experiment(s) FAILED: ${failed[*]}"
  exit 1
fi
echo "all experiments complete"
