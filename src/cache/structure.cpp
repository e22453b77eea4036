#include "cache/structure.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "testgen/rng.hpp"

namespace catsched::cache {

Stmt Stmt::block(std::vector<std::uint64_t> lines) {
  Stmt s;
  s.kind = Kind::block;
  s.lines = std::move(lines);
  return s;
}

Stmt Stmt::seq(std::vector<Stmt> stmts) {
  Stmt s;
  s.kind = Kind::seq;
  s.children = std::move(stmts);
  return s;
}

Stmt Stmt::branch(Stmt then_branch, Stmt else_branch) {
  Stmt s;
  s.kind = Kind::branch;
  s.children.push_back(std::move(then_branch));
  s.children.push_back(std::move(else_branch));
  return s;
}

Stmt Stmt::loop(Stmt body, int bound) {
  if (bound < 1) {
    throw std::invalid_argument("Stmt::loop: bound must be >= 1");
  }
  Stmt s;
  s.kind = Kind::loop;
  s.children.push_back(std::move(body));
  s.bound = bound;
  return s;
}

std::uint64_t Stmt::max_path_accesses() const {
  constexpr std::uint64_t kCap = std::numeric_limits<std::uint64_t>::max() / 2;
  switch (kind) {
    case Kind::block:
      return lines.size();
    case Kind::seq: {
      std::uint64_t sum = 0;
      for (const auto& c : children) {
        sum += c.max_path_accesses();
        if (sum > kCap) throw std::overflow_error("max_path_accesses");
      }
      return sum;
    }
    case Kind::branch:
      return std::max(children[0].max_path_accesses(),
                      children[1].max_path_accesses());
    case Kind::loop: {
      const std::uint64_t body = children[0].max_path_accesses();
      if (body > kCap / static_cast<std::uint64_t>(bound)) {
        throw std::overflow_error("max_path_accesses");
      }
      return body * static_cast<std::uint64_t>(bound);
    }
  }
  return 0;
}

std::size_t Stmt::branch_count() const {
  std::size_t n = kind == Kind::branch ? 1 : 0;
  for (const auto& c : children) n += c.branch_count();
  return n;
}

namespace {

/// Append every extension of `prefixes` through `stmt` (cross product of
/// path choices), respecting the cap.
void extend_paths(const Stmt& stmt,
                  std::vector<std::vector<std::uint64_t>>& prefixes,
                  std::size_t max_paths) {
  switch (stmt.kind) {
    case Stmt::Kind::block:
      for (auto& p : prefixes) {
        p.insert(p.end(), stmt.lines.begin(), stmt.lines.end());
      }
      return;
    case Stmt::Kind::seq:
      for (const auto& c : stmt.children) {
        extend_paths(c, prefixes, max_paths);
      }
      return;
    case Stmt::Kind::branch: {
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
    case Stmt::Kind::loop:
      for (int i = 0; i < stmt.bound; ++i) {
        extend_paths(stmt.children[0], prefixes, max_paths);
      }
      return;
  }
}

}  // namespace

std::vector<std::vector<std::uint64_t>> enumerate_paths(
    const Stmt& root, std::size_t max_paths) {
  std::vector<std::vector<std::uint64_t>> paths{{}};
  extend_paths(root, paths, max_paths);
  return paths;
}

Program flatten_to_program(const StructuredProgram& program) {
  if (program.root.branch_count() != 0) {
    throw std::invalid_argument(
        "flatten_to_program: tree contains branches (no single path)");
  }
  auto paths = enumerate_paths(program.root, 1);
  Program p;
  p.name = program.name;
  p.trace = std::move(paths.front());
  return p;
}

namespace {

void sample_one(const Stmt& stmt, testgen::SplitMix64& rng,
                std::vector<std::uint64_t>& out) {
  switch (stmt.kind) {
    case Stmt::Kind::block:
      out.insert(out.end(), stmt.lines.begin(), stmt.lines.end());
      return;
    case Stmt::Kind::seq:
      for (const auto& c : stmt.children) sample_one(c, rng, out);
      return;
    case Stmt::Kind::branch:
      sample_one(stmt.children[rng.chance(0.5) ? 0 : 1], rng, out);
      return;
    case Stmt::Kind::loop:
      for (int i = 0; i < stmt.bound; ++i) {
        sample_one(stmt.children[0], rng, out);
      }
      return;
  }
}

}  // namespace

std::vector<std::vector<std::uint64_t>> sample_paths(const Stmt& root,
                                                     std::size_t count,
                                                     std::uint32_t seed) {
  testgen::SplitMix64 rng(seed);
  std::vector<std::vector<std::uint64_t>> paths(count);
  for (auto& p : paths) sample_one(root, rng, p);
  return paths;
}

namespace {

Stmt random_stmt(std::mt19937& rng, const RandomProgramOptions& opts,
                 std::size_t depth) {
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

}  // namespace

StructuredProgram make_random_program(std::string name,
                                      const RandomProgramOptions& opts) {
  std::mt19937 rng(opts.seed);
  StructuredProgram p;
  p.name = std::move(name);
  p.root = random_stmt(rng, opts, 0);
  return p;
}

}  // namespace catsched::cache
