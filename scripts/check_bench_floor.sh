#!/usr/bin/env bash
# CI perf guard over the bench_hotpath JSON artifact.
#
# Parses BENCH_hotpath.json (path as $1, default build/bench/BENCH_hotpath.json)
# and fails when a guarded hot-path row regresses more than 2x against its
# pinned floor. Floors are the ns costs measured on the reference machine
# (Xeon @ 2.1 GHz, AVX2) when the row was introduced; CI runners are
# slower and noisier than the reference box, which is exactly why the
# trip-wire is a 2x band and not the floor itself - it catches "the fast
# path fell off a cliff" (a missed inline resolve, a devirtualization
# regression, a kernel falling back to scalar), not machine-to-machine
# scatter.
#
# Guarded rows:
#   abi_dispatch / read8   abi_ns   - the header-inlined ABI fast path
#   sampling / sampled_out drop_ns  - the inline drop-policy skip
#   range_memcpy / b4096   vft_ns   - SIMD range interposition, L1 copies
#   range_memcpy / b65536  vft_ns   - SIMD range interposition, L2 copies
#   atomic_dispatch / load acquire_ns - armed fast-epoch acquire load
#   atomic_dispatch / load relaxed_ns - locked accumulate relaxed load
#   history / same_epoch_write on_ns  - same-epoch writes with the access
#                                       history installed: the history records
#                                       only on the slow path, so this row
#                                       pins "installed but never touched"
#                                       at the inline fast-path cost
#
# Ratio rows (range_memcpy ratio vs raw memcpy) are deliberately NOT
# guarded: the ratio divides by raw memcpy throughput, which varies more
# across runners than the vft side does.
set -u

JSON="${1:-build/bench/BENCH_hotpath.json}"

if [[ ! -f "$JSON" ]]; then
  echo "check_bench_floor: $JSON not found" >&2
  exit 1
fi

# Pinned floors (ns) and the 2x regression ceilings derived from them.
# Reference values from BENCH_hotpath.json at the PR that added each row.
#   abi_dispatch read8 abi_ns:      3.08
#   sampling sampled_out drop_ns:   3.25
#   range_memcpy b4096 vft_ns:    322
#   range_memcpy b65536 vft_ns:  4680
#   atomic_dispatch load acquire_ns: 31.2
#   atomic_dispatch load relaxed_ns: 56.1
#   history same_epoch_write on_ns:  3.45
fail=0
check() {
  local section="$1" name="$2" field="$3" floor="$4"
  local value
  value=$(python3 - "$JSON" "$section" "$name" "$field" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for rec in doc.get("records", []):
    if rec.get("section") == sys.argv[2] and rec.get("name") == sys.argv[3]:
        print(rec[sys.argv[4]])
        break
EOF
)
  if [[ -z "$value" ]]; then
    echo "FAIL  $section/$name: row missing from $JSON" >&2
    fail=1
    return
  fi
  # Regression trip-wire: measured > 2x the pinned floor.
  if python3 -c "import sys; sys.exit(0 if float('$value') <= 2.0 * float('$floor') else 1)"; then
    printf 'ok    %-28s %-10s %10s ns  (floor %s, ceiling %s)\n' \
      "$section/$name" "$field" "$value" "$floor" \
      "$(python3 -c "print(2.0 * float('$floor'))")"
  else
    printf 'FAIL  %-28s %-10s %10s ns  exceeds 2x floor %s\n' \
      "$section/$name" "$field" "$value" "$floor" >&2
    fail=1
  fi
}

check abi_dispatch read8       abi_ns   3.08
check sampling     sampled_out drop_ns  3.25
check range_memcpy b4096       vft_ns   322
check range_memcpy b65536      vft_ns   4680
check atomic_dispatch load     acquire_ns 31.2
check atomic_dispatch load     relaxed_ns 56.1
check history      same_epoch_write on_ns 3.45

if [[ "$fail" -ne 0 ]]; then
  echo "check_bench_floor: hot-path regression detected" >&2
  exit 1
fi
echo "check_bench_floor: all guarded rows within 2x of their pinned floors"
