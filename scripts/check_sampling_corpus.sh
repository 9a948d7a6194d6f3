#!/usr/bin/env bash
# The budgeted always-on deployment check (ISSUE 7 acceptance):
#   1. recall: every racy corpus program is detected under
#      `vft run --budget 5` within a bounded number of seeded runs
#      (the controller starts at full rate, so detection is normally
#      immediate - the seed loop only covers throttled unlucky draws);
#   2. precision: the norace program stays quiet under the same budget;
#   3. plumbing: the run banner prints the effective sampling config and
#      the achieved rate/overhead, and the JSON report carries the
#      "sampling" block with matching counters;
#   4. stats artifact: each run's sampling block is collected into
#      sampling_stats.json for the CI artifact upload;
#   5. repeatability: three fixed-rate runs with one seed sample the same
#      accesses (each thread's stream is seeded from the seed and the
#      thread's epoch, not from an address ASLR moves).
#
# Usage: check_sampling_corpus.sh <vft> <workdir> <norace_bin> \
#                                 <racy_bin>...
set -u

VFT="$1"
WORK="$2"
NORACE="$3"
shift 3
RACY=("$@")

MAX_SEEDS=8

rm -rf "$WORK"
mkdir -p "$WORK"
cd "$WORK"

fail() {
  echo "sampling_corpus: FAIL: $*" >&2
  exit 1
}

# --- 1. recall: every racy program within MAX_SEEDS seeded runs ----------
for bin in "${RACY[@]}"; do
  name=$(basename "$bin")
  found=""
  for seed in $(seq 1 "$MAX_SEEDS"); do
    if "$VFT" run --budget 5 --sampling "seed=$seed" \
        --expect race --report "$name.seed$seed.json" -- "$bin" \
        > "$name.seed$seed.out" 2>&1; then
      found="$seed"
      break
    fi
  done
  [ -n "$found" ] || fail "$name: no race within $MAX_SEEDS seeded runs at --budget 5"
  echo "sampling_corpus: $name detected at seed $found"
  cp "$name.seed$found.json" "$name.json"
  cp "$name.seed$found.out" "$name.out"
done

# --- 2. precision: norace stays quiet under the budget -------------------
"$VFT" run --budget 5 --expect none --report norace.json -- "$NORACE" \
  > norace.out 2>&1 || fail "norace program was not silent under --budget 5"

# --- 3. banner + report plumbing -----------------------------------------
grep -q "vft run: sampling: " norace.out \
  || fail "run banner missing the effective sampling config line"
grep -q "budget=5" norace.out \
  || fail "banner sampling config does not show budget=5"
grep -q "vft run: sampling achieved: " norace.out \
  || fail "run summary missing the achieved rate/overhead line"
grep -q '"sampling": {' norace.json \
  || fail "JSON report missing the sampling block"
grep -q '"budget_pct": 5' norace.json \
  || fail "report sampling block does not carry budget_pct=5"
for key in achieved_rate overhead_pct sampled skipped rate_ppm; do
  grep -q "\"$key\":" norace.json \
    || fail "report sampling block missing \"$key\""
done

# A racy run's report must carry the block too (detection and sampling
# accounting coexist).
first=$(basename "${RACY[0]}")
grep -q '"sampling": {' "$first.json" \
  || fail "racy report $first.json missing the sampling block"

# --- 4. stats artifact ---------------------------------------------------
# One JSON object per run: { "program": ..., "sampling": {...} }, for the
# CI artifact. python3 is part of the toolchain image.
python3 - <<'EOF' || fail "could not assemble sampling_stats.json"
import glob
import json

rows = []
for path in sorted(glob.glob("*.json")):
    if path == "sampling_stats.json":
        continue
    with open(path) as f:
        try:
            doc = json.load(f)
        except ValueError:
            continue  # crash-salvaged partial report
    if "sampling" in doc:
        rows.append({"program": path[:-5], "sampling": doc["sampling"]})

assert rows, "no reports carried a sampling block"
with open("sampling_stats.json", "w") as f:
    json.dump(rows, f, indent=2, sort_keys=True)
EOF

# --- 5. repeatability ----------------------------------------------------
# The norace program: every thread's access count is fixed (race_hot_loop's
# spin is not - how often it polls depends on scheduling). No --report: the
# temp report keeps these runs out of the stats artifact.
for i in 1 2 3; do
  "$VFT" run --sampling rate=0.05,seed=3 -- "$NORACE" > "repeat$i.out" 2>&1
  grep -o "vft run: sampling achieved: .*" "repeat$i.out" \
    | grep -o "sampled=[0-9]* skipped=[0-9]*" > "repeat$i.counts"
  [ -s "repeat$i.counts" ] || fail "run $i printed no sampled=/skipped= counts"
done
if ! cmp -s repeat1.counts repeat2.counts || ! cmp -s repeat1.counts repeat3.counts; then
  fail "seeded rate=0.05 runs sampled differently: $(cat repeat*.counts | tr '\n' ' ')"
fi
echo "sampling_corpus: seeded runs repeat ($(cat repeat1.counts))"

echo "sampling_corpus: OK (stats in $PWD/sampling_stats.json)"
