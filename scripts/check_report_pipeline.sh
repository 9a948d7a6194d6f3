#!/usr/bin/env bash
# End-to-end check of the race-report pipeline (ISSUE 6 acceptance):
#   1. dedup: the hot-loop racer folds 1000 same-stack occurrences into
#      exactly one error context with count >= 1000;
#   2. fleet merge: merging three runs sums counts and is byte-stable
#      across input orderings;
#   3. suppressions: a rule hides the plain write-write race from the
#      report body while the suppressed counters still record it;
#   4. symbolization: offline `vft report symbolize` resolves >= 2
#      frames of the racing access to module+symbol (file:line when
#      debug info is present);
#   5. crash salvage: a target that SIGSEGVs mid-run still yields a
#      partial report and a RACE verdict;
#   6. one report format: with a text --report the verdict still comes
#      from the target's JSON document (the partial flag included), and
#      the text is that document's `vft report show` rendering.
#
# Usage: check_report_pipeline.sh <vft> <hot_loop> <plain_ww> <crash> \
#                                 <norace> <supp_file> <workdir>
set -u

VFT="$1"
HOT="$2"
PLAIN="$3"
CRASH="$4"
NORACE="$5"
SUPP="$6"
WORK="$7"

fail() {
  echo "report_pipeline: FAIL: $*" >&2
  exit 1
}

# Fail fast on a miswired harness: a missing corpus binary would
# otherwise show up as a misleading verdict failure deep in the legs.
for bin in "$VFT" "$HOT" "$PLAIN" "$CRASH" "$NORACE"; do
  [ -x "$bin" ] || fail "required binary '$bin' missing or not executable (rebuild the corpus/tools targets)"
done
[ -f "$SUPP" ] || fail "suppression file '$SUPP' not found"

rm -rf "$WORK"
mkdir -p "$WORK"
cd "$WORK"

# --- 1. dedup: three runs of the hot loop --------------------------------
for i in 1 2 3; do
  "$VFT" run --expect race --report "r$i.json" -- "$HOT" \
    || fail "hot-loop run $i did not report a race"
done

# Exactly one context reaches the 1000-occurrence threshold; the spin
# side context stays small. Canonical rendering puts one context per
# "count": line.
big=$(grep -c '"count": [0-9]\{4,\}' r1.json)
[ "$big" = "1" ] || fail "expected exactly 1 context with count >= 1000 in r1.json, got $big"
grep -q '"clean_exit": true' r1.json || fail "clean run not marked clean_exit"

# Every captured stack must carry the access site plus at least one
# caller frame (the wrapper's frame stays live across the detector, so
# the frame-pointer walk reaches the target's caller chain).
python3 - r1.json <<'EOF' || fail "a racing access captured fewer than 2 frames"
import json, sys
doc = json.load(open(sys.argv[1]))
stacks = [a.get("stack", []) for c in doc["contexts"] for a in c["accesses"]]
captured = [s for s in stacks if s]
assert captured, "no stacks captured at all"
assert all(len(s) >= 2 for s in captured), [len(s) for s in captured]
EOF

# --- 2. merge: sums counts, byte-stable across orders --------------------
"$VFT" report merge --out m123.json r1.json r2.json r3.json \
  || fail "merge r1 r2 r3 failed"
"$VFT" report merge --out m312.json r3.json r1.json r2.json \
  || fail "merge r3 r1 r2 failed"
"$VFT" report merge --out m231.json r2.json r3.json r1.json \
  || fail "merge r2 r3 r1 failed"
cmp -s m123.json m312.json || fail "merge output depends on input order (123 vs 312)"
cmp -s m123.json m231.json || fail "merge output depends on input order (123 vs 231)"
grep -q '"runs": 3' m123.json || fail "merged report does not say runs: 3"

sum_races() { sed -n 's/.*"summary": {"races": \([0-9]*\).*/\1/p' "$1"; }
r1=$(sum_races r1.json); r2=$(sum_races r2.json); r3=$(sum_races r3.json)
m=$(sum_races m123.json)
[ "$m" = "$((r1 + r2 + r3))" ] \
  || fail "merged races $m != $r1 + $r2 + $r3"

# --- 3. suppressions: hidden but counted ---------------------------------
"$VFT" run --suppressions "$SUPP" --expect none --report rsupp.json -- "$PLAIN" \
  || fail "suppressed plain_write_write still visible (expect none failed)"
grep -q '"suppressed_by": "corpus-plain-write-write"' rsupp.json \
  || fail "suppressed context does not name its rule"
sed -n 's/.*"suppressed": \([0-9]*\).*/\1/p' rsupp.json | head -1 | grep -qv '^0$' \
  || fail "suppressed counter is zero in rsupp.json"
# The same binary without the suppression must still race.
"$VFT" run --expect race -- "$PLAIN" \
  || fail "plain_write_write stopped racing without suppressions"
# And suppressions must not disturb a clean program's verdict.
"$VFT" run --suppressions "$SUPP" --expect none -- "$NORACE" \
  || fail "norace verdict changed under suppressions"

# --- 4. offline symbolization -------------------------------------------
if command -v addr2line >/dev/null 2>&1; then
  "$VFT" report symbolize --out sym.json m123.json || fail "symbolize failed"
  nsym=$(grep -o '"symbol": "[^"]*"' sym.json | wc -l)
  [ "$nsym" -ge 2 ] || fail "symbolize resolved $nsym frames, want >= 2"
else
  echo "report_pipeline: addr2line not found, skipping symbolize leg" >&2
fi

# --- 5. crash salvage ----------------------------------------------------
"$VFT" run --expect race --report rcrash.json -- "$CRASH" \
  || fail "crashing racy target did not yield a RACE verdict"
grep -q '"clean_exit": false' rcrash.json \
  || fail "salvaged crash report not marked clean_exit: false"

# --- 6. one report format -------------------------------------------------
"$VFT" run --expect race --report "$WORK/crash.txt" -- "$CRASH" > crash_txt.out \
  || fail "crashing racy target did not yield a RACE verdict with a text report"
grep -q "(partial)" crash_txt.out \
  || fail "text-report crash run not flagged (partial)"
grep -q "^summary: races=[1-9]" crash.txt \
  || fail "text report has no summary: line with the salvaged races"
# The same run's JSON: a wrapper copies what the target left at
# $VFT_REPORT before vft run reads it. The wrapper shell is preloaded
# too, so it ends by exec instead of exit - a preloaded exit would write
# the shell's own report over the target's.
"$VFT" run --expect race --report same.txt -- sh -c \
  '"$1"; LD_PRELOAD= cp "$VFT_REPORT" same.json; LD_PRELOAD= exec true' \
  sh "$CRASH" > same.out 2>&1 \
  || fail "wrapped crash run did not yield a RACE verdict"
"$VFT" report show same.json > same_show.txt \
  || fail "vft report show could not read the run's JSON"
cmp -s same.txt same_show.txt \
  || fail "text report differs from vft report show of the same run's JSON"

echo "report_pipeline: OK (merged races=$m over 3 runs)"
exit 0
