#!/bin/sh
# Kill-and-resume determinism smoke (CI runs it under ctest, label: fuzz).
#
#   kill_resume_smoke.sh <path-to-search_server> [search] [crash-at-eval]
#
# Proves the anytime layer's crash-recovery contract end to end on a real
# process boundary, not just in-process gtest:
#   1. fresh run           -> reference RESULT line
#   2. crash run           -> search_server kills itself (std::_Exit 137)
#                             mid-controller-design, leaving whatever
#                             checkpoint the atomic rename path last
#                             published
#   3. resume run          -> must report resumed=1 and reproduce the
#                             reference best schedule / Pall bits / eval
#                             count exactly
#   4. damaged-resume run  -> the primary checkpoint is truncated on disk;
#                             the loader must reject it, fall back to the
#                             .prev snapshot (fallback=1) and still
#                             converge bit-identically
set -u

BIN=${1:?usage: kill_resume_smoke.sh <path-to-search_server> [search] [crash-at-eval]}
SEARCH=${2:-hybrid}
CRASH_AT=${3:-15}

TMP=$(mktemp -d) || exit 1
trap 'rm -rf "$TMP"' EXIT INT TERM
CK="$TMP/ck.snap"
fail=0

# The invariant part of a RESULT line: strip the fields that legitimately
# differ between a fresh and a resumed run (stop/resumed/fallback/
# checkpoint counters); best schedule, Pall bit pattern, and the distinct
# evaluation count must match exactly.
invariant() {
  sed -E 's/ stop=[a-z_]+| resumed=[0-9]+| fallback=[0-9]+| checkpoints=[0-9]+//g'
}

echo "kill_resume_smoke: search=$SEARCH crash-at-eval=$CRASH_AT"

fresh=$("$BIN" --search "$SEARCH")
if [ $? -ne 0 ]; then
  echo "FAIL: fresh run did not exit 0"
  exit 1
fi
echo "fresh:   $fresh"

"$BIN" --search "$SEARCH" --checkpoint "$CK" --crash-at-eval "$CRASH_AT"
status=$?
if [ "$status" -ne 137 ]; then
  echo "FAIL: crash run exited $status, expected 137 (simulated hard kill)"
  exit 1
fi
if [ ! -f "$CK" ]; then
  echo "FAIL: crash run left no checkpoint at $CK"
  exit 1
fi

resumed=$("$BIN" --search "$SEARCH" --checkpoint "$CK")
if [ $? -ne 0 ]; then
  echo "FAIL: resume run did not exit 0"
  exit 1
fi
echo "resumed: $resumed"
case "$resumed" in
  *" resumed=1 "*) ;;
  *) echo "FAIL: resume run did not report resumed=1"; fail=1 ;;
esac
if [ "$(echo "$fresh" | invariant)" != "$(echo "$resumed" | invariant)" ]; then
  echo "FAIL: resumed result differs from the uninterrupted run"
  fail=1
fi

# Damage the primary checkpoint (truncate to half) and resume again: the
# framing check must reject it and the .prev fallback must serve.
size=$(wc -c < "$CK")
truncate -s $((size / 2)) "$CK"
if [ ! -f "$CK.prev" ]; then
  echo "FAIL: no $CK.prev rotation snapshot on disk"
  exit 1
fi
damaged=$("$BIN" --search "$SEARCH" --checkpoint "$CK")
if [ $? -ne 0 ]; then
  echo "FAIL: damaged-checkpoint resume did not exit 0"
  exit 1
fi
echo "damaged: $damaged"
case "$damaged" in
  *" fallback=1 "*) ;;
  *) echo "FAIL: damaged-checkpoint run did not report fallback=1"; fail=1 ;;
esac
if [ "$(echo "$fresh" | invariant)" != "$(echo "$damaged" | invariant)" ]; then
  echo "FAIL: fallback-resumed result differs from the uninterrupted run"
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "kill_resume_smoke: OK ($SEARCH crash+resume and corrupt+fallback both bit-identical)"
