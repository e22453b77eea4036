#!/bin/sh
# Reachability gate (run from the repo root; CI runs it on every push).
#
# Everything in src/ must be reachable from the pipeline's entry points:
# search_server (the Stage-2 search driver), fuzz_invariants (the invariant
# harness) and the perfbench workloads (perfbench/src/*). The roots are
# listed by name, so a new tool does not keep code alive by calling it.
#
# 1. Modules. The gate computes the `#include "..."` closure over src/ from
#    those roots; a reached header also pulls in its .cpp. Any
#    src/**/*.hpp outside the closure is reached only by its own tests,
#    benches, examples or other tools, and fails the gate: delete it, or
#    wire it into the pipeline.
#
# 2. Functions. A reached header keeps every function it declares alive,
#    so the gate also links the three roots with section garbage
#    collection (g++ and GNU ld: -ffunction-sections, --gc-sections,
#    --print-gc-sections) in a scratch build directory. Every global
#    function of libcatsched.a (nm type T) whose section all three links
#    drop fails the gate, unless ALLOW_UNLINKED lists it. Inline and
#    template code (weak, COMDAT) is out of scope, and so are file-local
#    helpers, which -Wunused-function reports. The build uses -fno-inline:
#    at -O2 a function whose every caller inlined it loses its own section
#    and would read as dead, although the pipeline runs its code.
#
#    ALLOW_UNLINKED holds one entry a line, `<demangled name>  # <reason
#    it stays>`; an entry without a reason fails the gate. Shrink this
#    list, never grow it: an entry that is no longer defined, or that a
#    root links again, fails the gate too.
set -u
export LC_ALL=C  # one collation for sort and comm

ALLOW_UNLINKED="
"

seen=$(mktemp)
queue=$(mktemp)
build=$(mktemp -d)
trap 'rm -rf "$seen" "$queue" "$build"' EXIT

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

# --- 2. link-time function GC ----------------------------------------------
cxxflags="-fno-inline -ffunction-sections -fdata-sections"
ldflags="-fuse-ld=bfd -Wl,--gc-sections -Wl,--print-gc-sections"

# The .text sections of libcatsched.a one link dropped, as symbol names.
dropped() {
  sed -nE "s/.*removing unused section '\.text\.([^']+)' in file '[^']*libcatsched\.a\(.*/\1/p" |
    sort -u
}

configure() {
  cmake -S "$1" -B "$2" -DCMAKE_CXX_COMPILER=g++ \
    -DCMAKE_CXX_FLAGS="$cxxflags" -DCMAKE_EXE_LINKER_FLAGS="$ldflags" \
    -DCATSCHED_BUILD_TESTS=OFF -DCATSCHED_BUILD_BENCHES=OFF > "$build/log" 2>&1
}

link_root() {  # <build dir> <target> <out>
  if ! cmake --build "$1" -j4 --target "$2" > "$build/log" 2>&1; then
    cat "$build/log"
    echo "check_reachability: building $2 failed"
    exit 1
  fi
  dropped < "$build/log" > "$3"
  if [ ! -s "$3" ]; then
    echo "check_reachability: the $2 link reported no dropped section (not GNU ld?)"
    exit 1
  fi
}

configure . "$build/main" || { cat "$build/log"; exit 1; }
link_root "$build/main" search_server "$build/search_server.dropped"
link_root "$build/main" fuzz_invariants "$build/fuzz_invariants.dropped"
configure perfbench "$build/perfbench" || { cat "$build/log"; exit 1; }
link_root "$build/perfbench" perfbench "$build/perfbench.dropped"

nm --defined-only "$build/main/libcatsched.a" |
  awk '$2 == "T" { print $3 }' | sort -u > "$build/global"
c++filt < "$build/global" | sort -u > "$build/defined"
comm -12 "$build/search_server.dropped" "$build/fuzz_invariants.dropped" |
  comm -12 - "$build/perfbench.dropped" |
  comm -12 - "$build/global" | c++filt | sort -u > "$build/unlinked"

fail=0
unexplained=$(echo "$ALLOW_UNLINKED" | grep -v '^ *$' | grep -v '#')
if [ -n "$unexplained" ]; then
  echo "check_reachability: ALLOW_UNLINKED entries without a reason:"
  echo "$unexplained" | sed 's/^/  /'
  fail=1
fi
echo "$ALLOW_UNLINKED" | sed -nE 's/^ *([^#]*[^# ]) *#.*/\1/p' | sort -u \
  > "$build/allowed"
extra=$(comm -23 "$build/unlinked" "$build/allowed")
if [ -n "$extra" ]; then
  echo "check_reachability: functions no pipeline entry point links:"
  echo "$extra" | sed 's/^/  /'
  fail=1
fi
comm -13 "$build/unlinked" "$build/allowed" > "$build/stale"
while IFS= read -r name; do
  if grep -qxF "$name" "$build/defined"; then
    echo "check_reachability: ALLOW_UNLINKED lists $name, which a root links again (drop the entry)"
  else
    echo "check_reachability: ALLOW_UNLINKED lists $name, which is no longer defined (drop the entry)"
  fi
  fail=1
done < "$build/stale"
if [ "$fail" -ne 0 ]; then
  echo "check_reachability: FAILED"
  exit 1
fi
echo "check_reachability: every global src/ function is linked by search_server, fuzz_invariants or perfbench/"
