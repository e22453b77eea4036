#pragma once
/// \file static_wcet.hpp
/// \brief Structural static WCET analysis: walk the program tree with
///        abstract must/persistence cache states, classify every
///        instruction fetch (AH/FM/NC), and compose a guaranteed
///        execution-cycle upper bound with the classic timing schema
///        (seq = sum, branch = max, loop = first iteration + (bound-1) x
///        steady iteration).
///
/// First-miss accounting. An FM access point (persistent: provably never
/// evicted since its last load — see cache/absint) misses at most once
/// over the WHOLE execution, so it is charged a hit wherever it occurs
/// plus a ONE-TIME miss-minus-hit penalty that is deliberately kept
/// outside the scalable cycle column: loops scale their steady pass by
/// (bound-1) but add the penalty once, which is what turns "n misses"
/// into "1 miss + (n-1) hits" for a line that survives every iteration —
/// including when the single real miss hides in a late iteration behind a
/// branch, where charging the miss to the first iteration would be
/// unsound. At branch joins the cycle and penalty columns take their
/// maxima INDEPENDENTLY (per-field max): picking one arm by combined cost
/// is unsound once an enclosing loop scales the cycle column, because the
/// un-picked arm's cycles may dominate at higher iteration counts.
///
/// Because a per-field max can exceed the single-arm maximum the AM-only
/// schema takes, the walk carries a second, penalty-free cycle column
/// that reproduces the classic AM-only bound exactly (reported as
/// `am_only_cycles`), and the reported WCET is the minimum of the two
/// compositions — so the persistence-aware bound is never looser than the
/// AM-only one, by construction.
///
/// This is the one WCET analysis of the pipeline, which runs it one cache
/// set at a time: every app's cold/warm pair (core::SystemModel::
/// analyze_wcets, and the context analyzer's base) is cache/set_steady's
/// walks of the app's core::Application::analysis_program() pruned to each
/// set, folded back with fold_leaves, and equals
/// analyze_static_steady_wcet on the whole program bit for bit in every
/// column; a trace-only app is a single block. On a single path the
/// analysis is exact, so there it equals the CacheSim replay of cache/wcet
/// (the test reference). It bounds all paths, and its warm-entry mode
/// certifies the paper's "guaranteed WCET reduction" E^gu (Sec. II-B)
/// without replaying a single fetch.

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/absint.hpp"
#include "cache/structure.hpp"

namespace catsched::cache {

/// The counts one walk of a subtree (or one block instance) adds up: both
/// cycle columns (see the file header: `cycles` plus the one-time
/// `penalty` is the first-miss composition, `am_cycles` the classic
/// AM-only one) and the classification counts. Also the unit of the leaf
/// sink of analyze_static_wcet.
struct PassCounts {
  std::uint64_t cycles = 0;     ///< FM-mode scalable column
  std::uint64_t penalty = 0;    ///< one-time FM penalty: NEVER scaled
  std::uint64_t am_cycles = 0;  ///< AM-only column (penalty-free)
  std::uint64_t ah = 0;
  std::uint64_t fm = 0;
  std::uint64_t nc = 0;

  PassCounts& operator+=(const PassCounts& rhs) {
    cycles += rhs.cycles;
    penalty += rhs.penalty;
    am_cycles += rhs.am_cycles;
    ah += rhs.ah;
    fm += rhs.fm;
    nc += rhs.nc;
    return *this;
  }
  /// Column-wise difference; unsigned wrap-around, so adding it back to
  /// the subtrahend restores the minuend exactly.
  PassCounts& operator-=(const PassCounts& rhs) {
    cycles -= rhs.cycles;
    penalty -= rhs.penalty;
    am_cycles -= rhs.am_cycles;
    ah -= rhs.ah;
    fm -= rhs.fm;
    nc -= rhs.nc;
    return *this;
  }
  /// Loop steady-pass scaling: a first-miss point misses at most once over
  /// the WHOLE execution, so its penalty is charged once per pass, not per
  /// iteration — everything scales except `penalty`.
  PassCounts& scale(std::uint64_t n) {
    cycles *= n;
    am_cycles *= n;
    ah *= n;
    fm *= n;
    nc *= n;
    return *this;
  }
  bool operator==(const PassCounts&) const = default;
};

/// Subtree-analysis memo keyed on (statement identity, entry abstract
/// state): a loop body analyzed twice from the same CachePair — which
/// happens on every stabilized fixpoint (the steady-state pass re-runs the
/// final probe) and whenever warm-entry re-analysis revisits states the
/// cold pass already saw — is computed once. One instance is bound to one
/// StructuredProgram (keys hold statement addresses) and one CacheConfig.
/// The pipeline's one-set walks take none; it serves the whole-program
/// reference walks: the fuzz harness's steady walks and re-analyses of
/// every context (testgen/invariants.cpp) and perfbench's traced replay.
/// Not thread-safe; use one memo per analysis thread.
class StaticAnalysisMemo {
public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  const Stats& stats() const noexcept { return stats_; }
  std::size_t size() const noexcept { return entries_.size(); }
  void clear() noexcept {
    entries_.clear();
    stats_ = Stats{};
  }

  /// Memoized subtree outcome: its counts and the exit state.
  struct SubtreeResult {
    PassCounts counts;
    CachePair exit;
  };

  /// Analysis-internal lookup (the key pairs a statement address with the
  /// entry must/persistence pair). Exposed for the analyzer only.
  using Key = std::pair<const void*, CachePair>;
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      return (reinterpret_cast<std::uintptr_t>(k.first) *
              0x9e3779b97f4a7c15ull) ^
             CachePairHash{}(k.second);
    }
  };
  const SubtreeResult* find(const Key& key) {
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    ++stats_.hits;
    return &it->second;
  }
  void store(Key key, SubtreeResult result) {
    entries_.emplace(std::move(key), std::move(result));
  }

private:
  std::unordered_map<Key, SubtreeResult, KeyHash> entries_;
  Stats stats_;
};

/// The numbers of one static analysis pass (the bound, its columns and the
/// classification counts), without the exit state.
struct StaticWcetCounts {
  std::uint64_t wcet_cycles = 0;  ///< guaranteed upper bound on any path
  /// The classic AM-only bound (every non-AH access charged a miss on
  /// every occurrence): what the bound would be without first-miss.
  /// wcet_cycles = min(FM composition, am_only_cycles) <= am_only_cycles.
  std::uint64_t am_only_cycles = 0;
  /// One-time first-miss penalty cycles folded into wcet_cycles (0 when
  /// first-miss never fires).
  std::uint64_t fm_penalty_cycles = 0;
  /// Access classification counts over the worst-case composition (loop
  /// bodies weighted by their iteration counts).
  std::uint64_t always_hit = 0;
  std::uint64_t first_miss = 0;
  std::uint64_t not_classified = 0;

  double wcet_seconds(const CacheConfig& config) const noexcept {
    return static_cast<double>(wcet_cycles) * config.cycle_seconds();
  }
};

/// Outcome of one static analysis pass: its counts plus the exit state.
struct StaticWcetResult : StaticWcetCounts {
  CachePair exit_state;  ///< abstract cache after the program
};

/// Analyze a structured program from a given abstract entry state (cold
/// pair if omitted; taken by value, so a caller done with its state can
/// move it in). With a non-null \p memo, loop-body analyses are
/// memoized per (statement, entry-state) — bit-identical results
/// (gtest-enforced differentially), repeated fixpoint work computed once.
/// The memo must only ever be used with this program/config pair.
///
/// With a non-null \p leaves, the walk also appends one PassCounts per
/// counted block instance, in walk order: a seq's children in order, a
/// branch's then arm before its else arm, and a loop's first pass before
/// its steady pass (the steady pass only when bound > 1). Fixpoint probes
/// are not counted, so a block contributes 2^(enclosing loops with
/// bound > 1) leaves. A memo hit carries no leaves, so the first and
/// steady passes then walk the body directly; probes still use the memo.
/// fold_leaves turns the leaves back into this result's counts.
/// \throws std::runtime_error if a loop fixpoint fails to stabilize within
///         the safety cap (cannot happen for finite age domains unless the
///         implementation is broken -- the cap turns a hang into an error).
StaticWcetResult analyze_static_wcet(
    const StructuredProgram& program, const CacheConfig& config,
    std::optional<CachePair> entry = std::nullopt,
    StaticAnalysisMemo* memo = nullptr,
    std::vector<PassCounts>* leaves = nullptr);

/// Compose leaves (in analyze_static_wcet's leaf order for \p root) with
/// the walk's own timing schema: a seq sums its children, a loop is its
/// first pass plus its steady pass scaled by bound - 1 (the penalty never
/// scaled), a branch takes each cycle column's maximum with the counts of
/// the arm of more cycles (a tie goes to the then arm). Folding a walk's
/// own leaves reproduces its counts; so does folding leaves summed column
/// by column over per-set walks of the same tree shape, since every leaf
/// is a sum over sets (cache/set_steady).
/// \throws std::invalid_argument if \p leaves does not hold exactly one
///         entry per counted block instance of \p root.
StaticWcetCounts fold_leaves(const Stmt& root,
                             std::span<const PassCounts> leaves);

/// Cold analysis plus the warm analysis iterated to its exit-state
/// fixpoint: the warm pass re-analyzes the program from the previous
/// pass's exit state — the paper's consecutive-execution scenario (the
/// previous task of the same application just ran; no other application
/// touched the cache) — so the warm bound holds for steady re-execution,
/// and `generic_exit` — the join over every per-run exit state in the
/// chain — is a sound abstract cache for "this application just finished
/// a burst of ANY length", the state the schedule-dependent entry
/// derivation (cache/schedule_wcet) ages through interfering programs.
struct StaticSteadyWcet {
  StaticWcetResult cold;
  /// Warm-re-execution bound: the WORST pass of the warm chain, sound for
  /// the 2nd-and-later runs of any burst (their entries only refine the
  /// cold exit, and per-pass bounds are non-increasing along the chain —
  /// for single-path programs the chain stabilizes in one pass and this
  /// equals the simulator's steady warm value).
  StaticWcetResult warm;
  CachePair generic_exit;  ///< join of cold + every warm exit state

  /// Guaranteed reduction E^gu = cold bound - warm bound (>= 0 by
  /// monotonicity of the must domain).
  std::uint64_t reduction_cycles() const noexcept {
    return cold.wcet_cycles - warm.wcet_cycles;
  }
};

/// Iterate warm re-analyses from the cold exit until the exit state maps to
/// itself (a finite-domain fixpoint; typically 1-2 passes). All passes
/// share \p memo (optional), so later passes mostly replay memoized
/// subtrees.
/// \throws std::runtime_error if the exit chain does not stabilize within
///         64 passes (cannot happen for finite age domains unless the
///         implementation is broken -- the cap turns a hang into an error).
StaticSteadyWcet analyze_static_steady_wcet(const StructuredProgram& program,
                                            const CacheConfig& config,
                                            StaticAnalysisMemo* memo = nullptr);

}  // namespace catsched::cache
