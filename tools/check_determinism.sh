#!/bin/sh
# Determinism lint (run from the repo root; CI runs it on every push).
#
# The repo's replay contracts (fuzz seeds, memo bit-identity, serial ==
# parallel search results) all rest on every randomized component being
# (a) seeded explicitly and (b) platform-pinned. This gate mechanically
# bans the constructs that silently break them in src/ and tools/:
#
#   1. Nondeterministic sources — rand()/srand(), std::random_device,
#      time(NULL)/time(nullptr), and clock/chrono-seeded engines. Banned
#      everywhere, no allowlist: a single call makes a run unreproducible.
#
#   2. Standard-library RNG engines and distributions (std::mt19937*,
#      std::minstd_*, std::uniform_*_distribution, std::normal_distribution,
#      std::bernoulli_distribution). Distribution output is implementation-
#      defined (libstdc++ and libc++ disagree), so seeds do not replay
#      across toolchains. New code must use testgen::SplitMix64
#      (src/testgen/rng.hpp), whose draw sequence is pinned by
#      known-answer tests. Pre-existing deterministically-seeded uses are
#      grandfathered in ALLOW_STD_RNG below — shrink this list, never grow
#      it. Every listed file must exist and still hit the std-RNG pattern,
#      so a stale entry fails the gate and the list can only shrink.
#
#   3. Range-for iteration over std::unordered_ containers — iteration
#      order is unspecified, so any reduction over it is a portability
#      hazard. Iterate a sorted or index-ordered vector mirror instead.
#      A provably order-FREE use (e.g. copying one map into another) may
#      carry a `determinism-ok: <reason>` comment on the flagged line to
#      suppress the finding.
#
# Tests and benches are out of scope: gtest sweeps may use std RNGs freely
# (they assert properties, not pinned sequences).
set -u

fail=0

# Grandfathered std-RNG users: every engine here is constructed from an
# explicit opts.seed, so runs replay on ONE toolchain; they predate the
# SplitMix64 contract and migrate opportunistically.
#   structure.cpp: only make_random_program, whose trees feed the
#     BM_StaticWcetAnalysis* kernels; it stays on std::mt19937 so their
#     history stays comparable (sample_paths is on SplitMix64).
ALLOW_STD_RNG="
src/cache/structure.cpp
src/opt/pso.cpp
"

STD_RNG_RE='std::(mt19937|minstd_rand|uniform_int_distribution|uniform_real_distribution|normal_distribution|bernoulli_distribution)'

allowed() {
  # NB: POSIX sh has no local variables — do not reuse the caller's names.
  needle=$1
  for allow_f in $ALLOW_STD_RNG; do
    [ "$allow_f" = "$needle" ] && return 0
  done
  return 1
}

scan_files=$(find src tools -name '*.hpp' -o -name '*.cpp' | sort)

# --- 1. nondeterministic sources: banned outright --------------------------
for f in $scan_files; do
  hits=$(grep -nE '\b(srand|rand) *\(|std::random_device|\btime *\( *(NULL|nullptr) *\)' "$f")
  if [ -n "$hits" ]; then
    echo "check_determinism: nondeterministic source in $f:"
    echo "$hits" | sed 's/^/  /'
    fail=1
  fi
  # A clock used as an RNG seed (chrono-seeded engines). Clocks are fine
  # for *measuring*; they must never feed an engine or a seed variable.
  hits=$(grep -nE '(mt19937|minstd|seed).*(chrono::|steady_clock|system_clock|high_resolution_clock)|(chrono::|steady_clock|system_clock|high_resolution_clock).*(mt19937|minstd|_seed\b|\bseed\b)' "$f" |
         grep -vE '^\s*[0-9]+:\s*(//|\*|///)')
  if [ -n "$hits" ]; then
    echo "check_determinism: clock-seeded RNG in $f:"
    echo "$hits" | sed 's/^/  /'
    fail=1
  fi
done

# --- 2. std RNG engines/distributions outside the grandfather list --------
for f in $scan_files; do
  if allowed "$f"; then
    continue
  fi
  hits=$(grep -nE "$STD_RNG_RE" "$f")
  if [ -n "$hits" ]; then
    echo "check_determinism: std RNG in non-allowlisted file $f (use testgen::SplitMix64):"
    echo "$hits" | sed 's/^/  /'
    fail=1
  fi
done

# Stale allowlist entries: a file that is gone or no longer draws from a
# std RNG must leave the list.
for allow_f in $ALLOW_STD_RNG; do
  if [ ! -f "$allow_f" ]; then
    echo "check_determinism: ALLOW_STD_RNG lists missing file $allow_f (drop the entry)"
    fail=1
  elif ! grep -qE "$STD_RNG_RE" "$allow_f"; then
    echo "check_determinism: ALLOW_STD_RNG lists $allow_f, which has no std RNG left (drop the entry)"
    fail=1
  fi
done

# --- 3. iteration over unordered containers --------------------------------
# Two layers: (a) range-for directly over an expression mentioning
# "unordered"; (b) range-for over any identifier the same file declares as
# a std::unordered_ container (extracted from the declaration's trailing
# name). Heuristic by design — it catches the direct reduction pattern,
# not aliases passed across functions.
for f in $scan_files; do
  hits=$(grep -nE 'for *\(.*:.*unordered' "$f" | grep -v 'determinism-ok')
  names=$(grep -oE 'std::unordered_(map|set|multimap|multiset)<[^;{]*> +[a-zA-Z_][a-zA-Z0-9_]*' "$f" |
          sed -E 's/.*> +//' | sort -u)
  for name in $names; do
    more=$(grep -nE "for *\(.*: *(this->)?${name}[) ]" "$f" |
           grep -v 'determinism-ok')
    if [ -n "$more" ]; then
      hits="${hits}${hits:+
}${more}"
    fi
  done
  if [ -n "$hits" ]; then
    echo "check_determinism: range-for over an unordered container in $f:"
    echo "$hits" | sed 's/^/  /'
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "check_determinism: FAILED (see above)"
  exit 1
fi
echo "check_determinism: OK"
