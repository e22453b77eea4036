#pragma once
/// \file set_steady.hpp
/// \brief Every app's cold/warm pair from one-set walks. The program is
///        split once into one pruned tree per cache set it fetches a line
///        of; each distinct tree, up to a renaming of its lines, is walked
///        once under a one-set cache (cold, then the warm chain, with a
///        leaf sink); the per-set leaves are added back onto the whole
///        program's leaves and folded through the timing schema.
///
/// Why it is exact. Both abstract domains act on each set alone (access,
/// join and age_set touch one set, and a loop fixpoint restricted to one
/// set is that set's own fixpoint), and cache/static_wcet charges only
/// fetches. So every leaf of a whole-program walk (a counted block
/// instance, see analyze_static_wcet) is, in every column, the sum over
/// sets of the same leaf in the walk of the program pruned to that set,
/// from that set of the entry state; fold_leaves composes the sums. The
/// cold entry is empty in every set. Warm pass k enters from pass k-1's
/// exit, so set s runs its own chain, and the whole program's pass k is
/// the sum over sets of set s's pass min(k, K_s), where K_s is the first
/// pass whose exit equals its entry: the whole chain's exit equals its
/// entry exactly when every set's does, after max_s K_s passes. The warm
/// bound is the first of those passes with the greatest wcet_cycles, as in
/// analyze_static_steady_wcet.
///
/// A set's generic exit, the join of its cold exit and every warm exit
/// (that set of the whole generic exit), is its cold exit. Persistence:
/// every walk starts it empty and its transfer never reads the must
/// state, so every pass ends in the same persistence state. Must: the
/// transfer is monotone and the cold entry is the empty state, which every
/// entry refines, so every warm exit refines the cold exit, and the join
/// (intersection, maximal age) of the cold exit with states that refine it
/// is the cold exit. So the leaves from the generic exit are warm pass 1's.
///
/// The split. A set's pruned tree keeps the subtrees that fetch a line of
/// the set, each block cut to those lines, a seq of one such child
/// replaced by the child and a branch arm with none an empty seq; what is
/// pruned leaves the set's state unchanged, so the pruned walk's leaves
/// are the whole walk's leaves on the set's support (the leaves whose
/// block fetches a line of the set), in order. Both domains compare lines
/// only for identity, so lines are renamed 0, 1, ... in order of first
/// use: one pass over the program writes every set's renamed tree as a
/// postfix word encoding, and a tree is built and walked only for an
/// encoding not seen before in the program. Most sets of a program look
/// alike, so few of them walk at all.

#include <cstdint>
#include <span>
#include <vector>

#include "cache/absint.hpp"
#include "cache/static_wcet.hpp"
#include "cache/structure.hpp"

namespace catsched::cache {

/// The cold and guaranteed-warm bounds of one program: the counts of
/// analyze_static_steady_wcet's `cold` and `warm`, without their exit
/// states.
struct SteadyPair {
  StaticWcetCounts cold;
  StaticWcetCounts warm;
};

/// One program's split by cache set, its one-set steady walks and the
/// cold/warm pair they fold to (see the file header). Immutable once
/// built by analyze_set_steady.
class SetSteady {
public:
  /// One cache set the program fetches a line of.
  struct Set {
    std::uint32_t set = 0;    ///< the cache set's index
    std::uint32_t shape = 0;  ///< its renamed pruned tree: shapes()[shape]
    /// support()[support_begin, + support_size): the whole walk's leaves
    /// whose block fetches a line of the set, ascending.
    std::uint32_t support_begin = 0;
    std::uint32_t support_size = 0;
    /// lines()[lines_begin, + lines_size): every line of the set the
    /// program fetches, ascending (its footprint in the set).
    std::uint32_t lines_begin = 0;
    std::uint32_t lines_size = 0;
  };

  /// One distinct renamed pruned tree and its walks under a one-set cache
  /// of the program's ways and cycle costs.
  struct Shape {
    StructuredProgram tree;  ///< lines renamed 0, 1, ... by first use
    /// The cold exit, which is the generic exit (see the file header).
    CachePair exit;
    /// K: the first warm pass whose exit equals its entry (>= 1).
    std::uint32_t passes = 0;
    std::uint32_t leaves = 0;  ///< leaves per walk, the support's size
    /// walked()[walked + p * leaves, + leaves): pass p's leaves, the cold
    /// pass at p = 0, warm pass p for p = 1..passes. Warm pass 1 is the
    /// walk from `exit`.
    std::uint32_t walked = 0;
  };

  /// The generic exit of one set in its own lines: the (line, age) entries
  /// of the must and the persistence state, ascending by line.
  struct SetExit {
    std::vector<LineAge> must;
    std::vector<LineAge> persistence;
  };

  const SteadyPair& pair() const noexcept { return pair_; }
  /// Ascending by set.
  std::span<const Set> sets() const noexcept { return sets_; }
  std::span<const Shape> shapes() const noexcept { return shapes_; }
  /// Every set's support, set by set (see Set).
  std::span<const std::uint32_t> support() const noexcept { return support_; }
  /// Every set's lines, set by set (see Set).
  std::span<const std::uint64_t> lines() const noexcept { return lines_; }
  std::span<const PassCounts> walked() const noexcept { return walked_; }

  /// The whole program's leaves from its generic exit: every set's warm
  /// pass 1 leaves added onto its support (\p out is overwritten).
  void exit_leaves(std::vector<PassCounts>& out) const;

  /// Set \p i's generic exit with its own lines.
  /// \throws std::out_of_range if i >= sets().size().
  SetExit set_exit(std::size_t i) const;

private:
  friend std::vector<SetSteady> analyze_set_steady(
      std::span<const StructuredProgram> programs, const CacheConfig& config);

  /// Zeroes \p out, then adds every set's leaves of warm pass
  /// min(pass, K_s) (pass 0: the cold pass) onto its support.
  void scatter(std::uint32_t pass, std::vector<PassCounts>& out) const;

  SteadyPair pair_;
  std::vector<Set> sets_;
  std::vector<Shape> shapes_;
  std::vector<std::uint32_t> support_;
  std::vector<std::uint64_t> lines_;
  /// Parallel to lines_, set by set: the line renamed k sits at + ids_[k].
  std::vector<std::uint32_t> ids_;
  std::vector<PassCounts> walked_;
  std::size_t leaf_count_ = 0;  ///< leaves of one whole-program walk
};

/// Split and walk every program (one SetSteady each, in order) on the
/// cache \p config. Its pair equals analyze_static_steady_wcet's cold and
/// warm counts bit for bit, in every column.
/// \throws std::runtime_error as analyze_static_steady_wcet does, if a
///         set's warm chain does not stabilize within 64 passes.
/// \throws std::invalid_argument as CacheConfig::validate does.
std::vector<SetSteady> analyze_set_steady(
    std::span<const StructuredProgram> programs, const CacheConfig& config);

}  // namespace catsched::cache
