#!/bin/sh
# price_design --smoke golden (CI runs it under ctest, label: golden).
#
#   price_golden.sh <path-to-price_design> <golden-file>
#
# Runs price_design --smoke, masks the design_s column, the only wall-time
# column ("  0.31" at the end of a grid row becomes " X"), and requires the
# output to equal the committed golden byte for byte: every row's loss,
# feasibility, design and evaluation counts by stage, and each system's
# best schedule. A change that claims to keep the design search's budget
# and results proves it here; one that moves them re-pins the golden in a
# reviewed diff.
set -u

BIN=${1:?usage: price_golden.sh <path-to-price_design> <golden-file>}
GOLDEN=${2:?usage: price_golden.sh <path-to-price_design> <golden-file>}

TMP=$(mktemp -d) || exit 1
trap 'rm -rf "$TMP"' EXIT INT TERM

if ! "$BIN" --smoke > "$TMP/raw"; then
  echo "price_golden: price_design failed"
  exit 1
fi
sed -E 's/ +[0-9]+\.[0-9]+$/ X/' "$TMP/raw" > "$TMP/masked"
if ! cmp -s "$TMP/masked" "$GOLDEN"; then
  echo "price_golden: output differs from $GOLDEN"
  diff -u "$GOLDEN" "$TMP/masked"
  exit 1
fi
