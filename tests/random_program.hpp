#pragma once
// Structured programs for the static-analysis tests, benches and examples:
// a seeded random tree generator and the exhaustive path enumeration the
// analyses are checked against by concrete simulation. The generator draws
// from std::mt19937 and its std:: distributions, so a seed replays the same
// tree only on one standard library; the BM_StaticWcetAnalysis* kernels in
// bench/bench_micro.cpp and every test input built here keep their trees.

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cache/structure.hpp"

namespace catsched::testref {

/// Number of branch nodes in the tree (path count is <= 2^this per
/// loop-free program).
inline std::size_t branch_count(const cache::Stmt& stmt) {
  std::size_t n = stmt.kind == cache::Stmt::Kind::branch ? 1 : 0;
  for (const auto& c : stmt.children) n += branch_count(c);
  return n;
}

namespace detail {

/// Append every extension of `prefixes` through `stmt` (cross product of
/// path choices), respecting the cap.
inline void extend_paths(const cache::Stmt& stmt,
                         std::vector<std::vector<std::uint64_t>>& prefixes,
                         std::size_t max_paths) {
  using Kind = cache::Stmt::Kind;
  switch (stmt.kind) {
    case Kind::block:
      for (auto& p : prefixes) {
        p.insert(p.end(), stmt.lines.begin(), stmt.lines.end());
      }
      return;
    case Kind::seq:
      for (const auto& c : stmt.children) {
        extend_paths(c, prefixes, max_paths);
      }
      return;
    case Kind::branch: {
      auto else_prefixes = prefixes;  // copy before then-arm mutates
      extend_paths(stmt.children[0], prefixes, max_paths);
      extend_paths(stmt.children[1], else_prefixes, max_paths);
      if (prefixes.size() + else_prefixes.size() > max_paths) {
        throw std::length_error("enumerate_paths: path explosion");
      }
      prefixes.insert(prefixes.end(),
                      std::make_move_iterator(else_prefixes.begin()),
                      std::make_move_iterator(else_prefixes.end()));
      return;
    }
    case Kind::loop:
      for (int i = 0; i < stmt.bound; ++i) {
        extend_paths(stmt.children[0], prefixes, max_paths);
      }
      return;
  }
}

}  // namespace detail

/// Enumerate every execution path of the tree as a concrete line trace
/// (loops unrolled `bound` times; both branch arms taken).
/// \throws std::length_error if the path count would exceed \p max_paths.
inline std::vector<std::vector<std::uint64_t>> enumerate_paths(
    const cache::Stmt& root, std::size_t max_paths = 4096) {
  std::vector<std::vector<std::uint64_t>> paths{{}};
  detail::extend_paths(root, paths, max_paths);
  return paths;
}

/// Options for the seeded random program generator.
struct RandomProgramOptions {
  std::uint32_t seed = 1;
  std::size_t max_depth = 3;        ///< nesting depth of branch/loop nodes
  std::size_t max_block_lines = 8;  ///< lines per straight-line block
  std::size_t address_lines = 64;   ///< line addresses drawn from [0, this)
  int max_loop_bound = 6;
  double branch_probability = 0.3;  ///< vs. loop at interior nodes
  std::size_t stmts_per_seq = 3;
};

namespace detail {

inline cache::Stmt random_stmt(std::mt19937& rng,
                               const RandomProgramOptions& opts,
                               std::size_t depth) {
  using cache::Stmt;
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_int_distribution<std::uint64_t> addr(
      0, static_cast<std::uint64_t>(opts.address_lines) - 1);
  std::uniform_int_distribution<std::size_t> block_len(1,
                                                       opts.max_block_lines);

  auto random_block = [&] {
    std::vector<std::uint64_t> lines(block_len(rng));
    for (auto& l : lines) l = addr(rng);
    return Stmt::block(std::move(lines));
  };

  if (depth >= opts.max_depth) return random_block();

  std::vector<Stmt> stmts;
  for (std::size_t i = 0; i < opts.stmts_per_seq; ++i) {
    const double roll = coin(rng);
    if (roll < 0.5) {
      stmts.push_back(random_block());
    } else if (roll < 0.5 + 0.5 * opts.branch_probability) {
      stmts.push_back(Stmt::branch(random_stmt(rng, opts, depth + 1),
                                   random_stmt(rng, opts, depth + 1)));
    } else {
      std::uniform_int_distribution<int> bound(1, opts.max_loop_bound);
      stmts.push_back(
          Stmt::loop(random_stmt(rng, opts, depth + 1), bound(rng)));
    }
  }
  return Stmt::seq(std::move(stmts));
}

}  // namespace detail

/// Deterministic random structured program (same seed -> same tree).
inline cache::StructuredProgram make_random_program(
    std::string name, const RandomProgramOptions& opts) {
  std::mt19937 rng(opts.seed);
  cache::StructuredProgram p;
  p.name = std::move(name);
  p.root = detail::random_stmt(rng, opts, 0);
  return p;
}

}  // namespace catsched::testref
