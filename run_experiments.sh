#!/usr/bin/env bash
# Regenerates every table/figure recorded in EXPERIMENTS.md.
# Usage: ./run_experiments.sh [scale]   (default scale 1.0)
set -euo pipefail
export XCLEAN_SCALE="${1:-1}"
cargo build --release -p xclean-eval --bins
mkdir -p results
for exp in datasets querysets examples mrr precision beta_sweep \
           gamma_sweep timing slca ablation prior smoothing walk_profile \
           variant_profile; do
    echo "== exp_${exp} (scale $XCLEAN_SCALE) =="
    "./target/release/exp_${exp}" | tee "results/exp_${exp}.txt"
done
echo "JSON copies: target/experiments/"
