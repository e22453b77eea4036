#!/bin/sh
# Reachability gate (run from the repo root; CI runs it on every push).
#
# Every module in src/ must be reachable from the pipeline's entry points:
# search_server (the Stage-2 search driver), fuzz_invariants (the invariant
# harness) and the perfbench workloads (perfbench/src/*). The roots are
# listed by name, so a new tool does not keep a module alive by including
# it. The gate computes the `#include "..."` closure over src/ from those
# roots; a reached header also pulls in its .cpp. Any src/**/*.hpp outside
# the closure is reached only by its own tests, benches, examples or other
# tools, and fails the gate: delete it, or wire it into the pipeline.
set -u

seen=$(mktemp)
queue=$(mktemp)
trap 'rm -f "$seen" "$queue"' EXIT

ls tools/search_server.cpp tools/fuzz_invariants.cpp perfbench/src/* > "$queue"
while [ -s "$queue" ]; do
  includes=$(grep -hoE '^#include "[^"]+"' $(cat "$queue") |
             sed -E 's/^#include "(.*)"/src\/\1/' | sort -u)
  : > "$queue"
  for hdr in $includes; do
    [ -f "$hdr" ] || continue  # perfbench-local headers are roots already
    grep -qxF "$hdr" "$seen" && continue
    echo "$hdr" >> "$seen"
    echo "$hdr" >> "$queue"
    [ -f "${hdr%.hpp}.cpp" ] && echo "${hdr%.hpp}.cpp" >> "$queue"
  done
done

unreached=$(find src -name '*.hpp' | sort | grep -vxF -f "$seen")
if [ -n "$unreached" ]; then
  echo "check_reachability: headers no pipeline entry point reaches:"
  echo "$unreached" | sed 's/^/  /'
  echo "check_reachability: FAILED"
  exit 1
fi
echo "check_reachability: every src/ header is reached from search_server, fuzz_invariants or perfbench/"
