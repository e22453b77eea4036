#!/bin/sh
# Fuzz golden (CI runs it under ctest, label: golden, on 40 seeds, and
# as its own step on 200 seeds).
#
#   fuzz_golden.sh <path-to-fuzz_invariants> <golden-file> <seeds>
#
# Runs a bounded invariant sweep (seeds [1, 1 + seeds), search-identity
# tier on a stride of 1000) and requires both its stdout, less the
# "... N/M systems ok" progress lines a sweep prints every 50 seeds, and
# its --summary file to equal the committed golden byte for byte. Every
# invariant must still hold (the sweep exits non-zero otherwise), and
# the summary's counts, including the total first-miss reduction, must
# not move: a change that claims to keep every bit proves it here, and a
# change that moves a bit re-pins the golden in a reviewed diff.
set -u

BIN=${1:?usage: fuzz_golden.sh <path-to-fuzz_invariants> <golden-file> <seeds>}
GOLDEN=${2:?usage: fuzz_golden.sh <path-to-fuzz_invariants> <golden-file> <seeds>}
SEEDS=${3:?usage: fuzz_golden.sh <path-to-fuzz_invariants> <golden-file> <seeds>}

TMP=$(mktemp -d) || exit 1
trap 'rm -rf "$TMP"' EXIT INT TERM

if ! "$BIN" --seeds "$SEEDS" --search-stride 1000 \
    --summary "$TMP/summary" > "$TMP/stdout"; then
  echo "fuzz_golden: the sweep failed"
  cat "$TMP/stdout"
  exit 1
fi
sed '/^\.\.\. [0-9]*\/[0-9]* systems ok$/d' "$TMP/stdout" > "$TMP/printed"
fail=0
for out in printed summary; do
  if ! cmp -s "$TMP/$out" "$GOLDEN"; then
    echo "fuzz_golden: $out differs from $GOLDEN"
    diff -u "$GOLDEN" "$TMP/$out"
    fail=1
  fi
done
exit $fail
