#!/usr/bin/env bash
# Regenerates every table/figure recorded in EXPERIMENTS.md into results/.
# Usage: ./run_experiments.sh [scale]   (default scale 1.0)
set -euo pipefail
export XCLEAN_SCALE="${1:-1}"
cargo build --release -p xclean-eval --bin exp
mkdir -p results
# `exp` with no argument lists every experiment and exits non-zero.
for exp in $(./target/release/exp || true); do
    echo "== exp ${exp} (scale $XCLEAN_SCALE) =="
    ./target/release/exp "${exp}" | tee "results/exp_${exp}.txt"
done
echo "JSON copies: target/experiments/"
