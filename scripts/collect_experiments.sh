#!/usr/bin/env bash
# The exact runs behind EXPERIMENTS.md: full-size Table 1, the access-mix
# distribution, the ablations, scaling, memory, and the micro-costs. Run on
# an otherwise idle machine; each bench prints its own paper-vs-measured
# context. Builds into its own build-experiments/ tree (Ninja), so a build/
# tree configured with another generator is left alone. Output lands in
# experiments_out/.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build-experiments -G Ninja
cmake --build build-experiments
mkdir -p experiments_out

VFT_BENCH_SCALE=8 VFT_BENCH_ITERS=5 ./build-experiments/bench/bench_table1 \
  | tee experiments_out/e1_table1.txt
./build-experiments/bench/bench_figure1 | tee experiments_out/e2_figure1.txt
./build-experiments/bench/bench_rulefreq | tee experiments_out/e3_rulefreq.txt
VFT_BENCH_SCALE=4 ./build-experiments/bench/bench_ablation \
  | tee experiments_out/e456_ablation.txt
VFT_BENCH_SCALE=4 ./build-experiments/bench/bench_scaling \
  | tee experiments_out/e10_scaling.txt
./build-experiments/bench/bench_memory | tee experiments_out/e12_memory.txt
./build-experiments/bench/bench_micro --benchmark_min_time=0.1 \
  | tee experiments_out/e9_micro.txt
