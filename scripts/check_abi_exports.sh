#!/usr/bin/env bash
# Pins the exported surface of the LD_PRELOAD library: the vft_* C ABI,
# the __tsan_* instrumentation surface, and the interposed pthread and
# libc names. Diffs the sorted `nm -D --defined-only` names of
# libvft_preload.so against a golden list, so a refactor that drops,
# renames or adds an exported symbol fails instead of silently changing
# what a target binary links against. C++-mangled names (_Z*) are the
# analysis library's inline functions and vtables, not surface, and are
# left out.
#
# Also checks the library's TLS model: it must import no __tls_get_addr
# and carry the STATIC_TLS dynamic flag, i.e. every thread-local is
# initial-exec (-ftls-model=initial-exec in the top-level CMakeLists.txt),
# reached with one %fs-relative load instead of a call.
#
# Usage: bash scripts/check_abi_exports.sh LIBVFT_PRELOAD_SO [GOLDEN]
#   GOLDEN defaults to tests/golden/preload_exports.txt.
# After an intended surface change, regenerate the golden with
#   nm -D --defined-only LIB | awk '{print $NF}' | grep -v '^_Z' |
#     LC_ALL=C sort -u > tests/golden/preload_exports.txt
set -euo pipefail

lib="${1:?usage: check_abi_exports.sh LIBVFT_PRELOAD_SO [GOLDEN]}"
golden="${2:-$(dirname "$0")/../tests/golden/preload_exports.txt}"

if [[ ! -f "$lib" ]]; then
  echo "check_abi_exports: $lib not found" >&2
  exit 1
fi

actual=$(nm -D --defined-only "$lib" | awk '{print $NF}' | grep -v '^_Z' |
         LC_ALL=C sort -u)

if ! diff -u "$golden" <(printf '%s\n' "$actual"); then
  echo "FAIL  exported surface of $lib differs from $golden" >&2
  echo "      (lines with - vanished, lines with + are new)" >&2
  exit 1
fi
echo "ok    $(wc -l < "$golden") exported names match $golden"

imports=$(nm -D --undefined-only "$lib" | awk '{print $NF}')
if grep -q '^__tls_get_addr' <<<"$imports"; then
  echo "FAIL  $lib imports __tls_get_addr: its thread-locals must be" >&2
  echo "      initial-exec (one %fs-relative load, no call per access)" >&2
  exit 1
fi
dynamic=$(readelf -d "$lib")
if ! grep -q 'STATIC_TLS' <<<"$dynamic"; then
  echo "FAIL  $lib carries no STATIC_TLS flag: its thread-locals must be" >&2
  echo "      initial-exec (the library is loaded at process start only)" >&2
  exit 1
fi
echo "ok    initial-exec TLS: no __tls_get_addr import, STATIC_TLS set"
