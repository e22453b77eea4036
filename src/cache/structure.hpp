#pragma once
/// \file structure.hpp
/// \brief Structured control-program representation for static WCET
///        analysis: a tree of straight-line blocks, two-way branches and
///        bounded loops ("timing schema" form). The existing Program type
///        is one concrete path; a StructuredProgram describes *all* paths,
///        which is what the paper's WCET references [12]/[13] analyze.

#include <cstdint>
#include <string>
#include <vector>

#include "cache/program.hpp"

namespace catsched::cache {

/// One node of the program tree. Built through the factory functions, which
/// maintain the children/bound invariants per kind.
struct Stmt {
  enum class Kind {
    block,   ///< straight-line run of instruction-fetch line addresses
    seq,     ///< children executed in order
    branch,  ///< children[0] = then, children[1] = else (may be empty seq)
    loop     ///< children[0] executed `bound` times (bound >= 1)
  };

  Kind kind = Kind::block;
  std::vector<std::uint64_t> lines;  ///< block only
  std::vector<Stmt> children;
  int bound = 0;  ///< loop only

  static Stmt block(std::vector<std::uint64_t> lines);
  static Stmt seq(std::vector<Stmt> stmts);
  static Stmt branch(Stmt then_branch, Stmt else_branch);
  /// \throws std::invalid_argument if bound < 1.
  static Stmt loop(Stmt body, int bound);

  /// Total instruction-fetch accesses on the longest (fully unrolled,
  /// max-branch) path. \throws std::overflow_error on absurd loop nests.
  std::uint64_t max_path_accesses() const;
};

/// A named structured program.
struct StructuredProgram {
  std::string name;
  Stmt root;
};

/// Draw \p count random execution paths (every branch decided by a fair
/// deterministic coin, independently per loop iteration): concrete traces
/// that probe a bound's soundness without enumerating every path.
std::vector<std::vector<std::uint64_t>> sample_paths(const Stmt& root,
                                                     std::size_t count,
                                                     std::uint32_t seed);

}  // namespace catsched::cache
