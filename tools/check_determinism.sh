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
#   2. Implementation-defined draws — every std::*_distribution,
#      std::generate_canonical, std::shuffle and std::sample. The standard
#      fixes the output of its engines (std::mt19937_64's 10000th value is
#      pinned in [rand.predef]), but not what these make of it: libstdc++
#      and libc++ disagree, so seeds would not replay across toolchains.
#      Draw from an engine directly (src/opt/pso.cpp scales the top 53 bits
#      of mt19937_64 into [0, 1)) or use testgen::SplitMix64
#      (src/testgen/rng.hpp); known-answer tests pin both. No allowlist.
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

STD_DRAW_RE='std::([a-z_]+_distribution|generate_canonical|shuffle|sample)\b'

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

# --- 2. implementation-defined draws: banned outright --------------------
for f in $scan_files; do
  hits=$(grep -nE "$STD_DRAW_RE" "$f" | grep -vE '^\s*[0-9]+:\s*(//|\*|///)')
  if [ -n "$hits" ]; then
    echo "check_determinism: implementation-defined draw in $f (draw from the engine or use testgen::SplitMix64):"
    echo "$hits" | sed 's/^/  /'
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
