#!/bin/sh
# reproduce_paper golden (CI runs it under ctest, label: golden).
#
#   reproduce_golden.sh <path-to-reproduce_paper> <golden-file>
#
# Runs reproduce_paper, masks the bracketed wall times ("[12.4 s" becomes
# "[X s") and requires the output to equal the committed golden byte for
# byte: Table I (every app's cold/warm WCET pair), Tables II-III, the
# Fig. 6 traces and the Sec. V search counts. A change that claims to keep
# every printed figure proves it here; one that moves a figure re-pins the
# golden in a reviewed diff.
set -u

BIN=${1:?usage: reproduce_golden.sh <path-to-reproduce_paper> <golden-file>}
GOLDEN=${2:?usage: reproduce_golden.sh <path-to-reproduce_paper> <golden-file>}

TMP=$(mktemp -d) || exit 1
trap 'rm -rf "$TMP"' EXIT INT TERM

if ! "$BIN" > "$TMP/raw"; then
  echo "reproduce_golden: reproduce_paper failed"
  exit 1
fi
sed -E 's/\[[0-9.]+ s/[X s/' "$TMP/raw" > "$TMP/masked"
if ! cmp -s "$TMP/masked" "$GOLDEN"; then
  echo "reproduce_golden: output differs from $GOLDEN"
  diff -u "$GOLDEN" "$TMP/masked"
  exit 1
fi
