#!/bin/sh
# Docs hygiene gate (run from the repo root; CI runs it on every push):
#   * every src/<module>/ directory must be covered in docs/ARCHITECTURE.md
#   * every bench/bench_*.cpp target must be covered in docs/BENCHMARKS.md
#   * every tools/*.cpp developer tool must be covered in docs/ARCHITECTURE.md
#   * docs/ARCHITECTURE.md must carry the "Test generation & fuzzing" and
#     "Robustness & failure semantics" sections, docs/BENCHMARKS.md the
#     fuzz_invariants sweep and bench_snapshot checkpoint-overhead entries
#     (these surfaces must stay documented, not just listed)
#   * README must link both documents
#   * every *.md name cited in src/, tests/, bench/, tools/ or examples/
#     must resolve to a file
# Exits non-zero listing everything missing, so adding a module or bench
# without documenting it fails the build.
set -u

fail=0

if [ ! -f docs/ARCHITECTURE.md ]; then
  echo "check_docs: docs/ARCHITECTURE.md is missing"
  exit 1
fi
if [ ! -f docs/BENCHMARKS.md ]; then
  echo "check_docs: docs/BENCHMARKS.md is missing"
  exit 1
fi

for dir in src/*/; do
  mod=$(basename "$dir")
  # grep -w: "src/cache" must not be satisfied by e.g. "src/cache_foo".
  if ! grep -qw "src/$mod" docs/ARCHITECTURE.md; then
    echo "check_docs: module src/$mod is not documented in docs/ARCHITECTURE.md"
    fail=1
  fi
done

for bench in bench/bench_*.cpp; do
  name=$(basename "$bench" .cpp)
  # grep -w: "bench_parallel" must not match inside "bench_parallel_scaling"
  # ('_' is a word constituent, so -w rejects the prefix match).
  if ! grep -qw "$name" docs/BENCHMARKS.md; then
    echo "check_docs: bench target $name is not documented in docs/BENCHMARKS.md"
    fail=1
  fi
done

for tool in tools/*.cpp; do
  name=$(basename "$tool" .cpp)
  if ! grep -qw "$name" docs/ARCHITECTURE.md; then
    echo "check_docs: tool $name is not documented in docs/ARCHITECTURE.md"
    fail=1
  fi
done

if ! grep -q "Test generation & fuzzing" docs/ARCHITECTURE.md; then
  echo "check_docs: docs/ARCHITECTURE.md lacks the 'Test generation & fuzzing' section"
  fail=1
fi
if ! grep -q "Robustness & failure semantics" docs/ARCHITECTURE.md; then
  echo "check_docs: docs/ARCHITECTURE.md lacks the 'Robustness & failure semantics' section"
  fail=1
fi
if ! grep -qw "bench_snapshot" docs/BENCHMARKS.md; then
  echo "check_docs: the checkpoint-overhead bench is not documented in docs/BENCHMARKS.md"
  fail=1
fi
if ! grep -qw "fuzz_invariants" docs/BENCHMARKS.md; then
  echo "check_docs: the fuzz_invariants sweep is not documented in docs/BENCHMARKS.md"
  fail=1
fi
# The static-analysis story (PR 9): the three-domain writeup, the
# first-miss bound-tightness numbers, and the README before/after table
# must not silently rot.
if ! grep -q "Static cache analysis" docs/ARCHITECTURE.md; then
  echo "check_docs: docs/ARCHITECTURE.md lacks the 'Static cache analysis' section"
  fail=1
fi
if ! grep -qi "first-miss" docs/BENCHMARKS.md; then
  echo "check_docs: docs/BENCHMARKS.md does not cover the first-miss bound tightness"
  fail=1
fi
if ! grep -q "AM-only bound" README.md; then
  echo "check_docs: README.md lacks the first-miss before/after bound table"
  fail=1
fi

# The anytime-search story (PR 10): the portfolio/driver API writeup,
# the racing bench entry, and the README evals-to-best table must not
# silently rot.
if ! grep -q "Search portfolio & driver API" docs/ARCHITECTURE.md; then
  echo "check_docs: docs/ARCHITECTURE.md lacks the 'Search portfolio & driver API' section"
  fail=1
fi
if ! grep -qw "portfolio_search" docs/BENCHMARKS.md; then
  echo "check_docs: docs/BENCHMARKS.md does not cover the portfolio racing bench"
  fail=1
fi
if ! grep -q "unique evals" README.md; then
  echo "check_docs: README.md lacks the portfolio evals-to-best table"
  fail=1
fi

for doc in docs/ARCHITECTURE.md docs/BENCHMARKS.md; do
  if ! grep -q "$doc" README.md; then
    echo "check_docs: README.md does not link $doc"
    fail=1
  fi
done

# Every *.md a source file cites must exist: a path from the repo root,
# or, for a bare name, a file of that name somewhere in the repo.
for ref in $(grep -rnoE '[A-Za-z0-9_./-]+\.md\b' src tests bench tools examples); do
  name=${ref#*:*:}
  case $name in
    */*) [ -f "$name" ] && continue ;;
    *) [ -n "$(find . -name "$name" | head -n 1)" ] && continue ;;
  esac
  echo "check_docs: ${ref%:*} cites $name, which does not exist"
  fail=1
done

if [ "$fail" -eq 0 ]; then
  echo "check_docs: all modules, bench targets, and README links covered"
fi
exit "$fail"
