#include "cache/structure.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
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

}  // namespace catsched::cache
