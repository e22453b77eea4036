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
/// that reproduces the classic AM-only bound exactly, and the reported
/// WCET is the minimum of the two compositions — so the persistence-aware
/// bound is never looser than the AM-only one, by construction. The walk
/// itself is mode-independent (both columns are always maintained, and
/// classification never alters the abstract states), so one
/// StaticAnalysisMemo serves FM-on and FM-off analyses interchangeably
/// and the two modes are bit-identical wherever no FM point fires.
///
/// This is the analysis-side counterpart of analyze_wcet() in wcet.hpp
/// (which *simulates* one concrete trace): it bounds all paths, and its
/// warm-entry mode certifies the paper's "guaranteed WCET reduction"
/// E^gu (Sec. II-B) without replaying a single fetch.

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>

#include "cache/absint.hpp"
#include "cache/structure.hpp"
#include "sched/timing.hpp"

namespace catsched::cache {

/// Subtree-analysis memo keyed on (statement identity, entry abstract
/// state): a loop body analyzed twice from the same CachePair — which
/// happens on every stabilized fixpoint (the steady-state pass re-runs the
/// final probe) and whenever warm-entry re-analysis revisits states the
/// cold pass already saw — is computed once. One instance is bound to one
/// StructuredProgram (keys hold statement addresses) and one CacheConfig:
/// the per-(app, entry-state) reuse unit, and the foundation for
/// schedule-dependent WCET re-analysis where the same program is re-walked
/// from many entry states. Not thread-safe; use one memo per analysis
/// thread.
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

  /// Memoized subtree outcome: both cycle columns (FM-mode cycles + one-
  /// time penalty, and the AM-only composition), classification counts,
  /// and the exit state. Mode-independent — see the file header — so one
  /// memo serves FM-on and FM-off analyses of the same program.
  struct SubtreeResult {
    std::uint64_t cycles = 0;          ///< FM-mode scalable cycle column
    std::uint64_t fm_penalty = 0;      ///< one-time (never scaled) penalty
    std::uint64_t am_only_cycles = 0;  ///< classic AM-only composition
    std::uint64_t always_hit = 0;
    std::uint64_t first_miss = 0;
    std::uint64_t not_classified = 0;
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

/// Whether the reported bound may exploit first-miss (persistence)
/// classifications. The abstract walk is identical in both modes (see the
/// file header); `off` reproduces the classic AM-only bound exactly, which
/// is what the benches and invariants compare against.
enum class FirstMiss { off, on };

/// Outcome of one static analysis pass.
struct StaticWcetResult {
  std::uint64_t wcet_cycles = 0;  ///< guaranteed upper bound on any path
  /// The classic AM-only bound (every non-AH access charged a miss on
  /// every occurrence). With FirstMiss::on, wcet_cycles =
  /// min(FM composition, am_only_cycles) <= am_only_cycles; with
  /// FirstMiss::off the two are equal.
  std::uint64_t am_only_cycles = 0;
  /// One-time first-miss penalty cycles folded into wcet_cycles (0 when
  /// first-miss is off or never fires).
  std::uint64_t fm_penalty_cycles = 0;
  /// Access classification counts over the worst-case composition (loop
  /// bodies weighted by their iteration counts). With FirstMiss::off,
  /// first-miss points are reported as not_classified.
  std::uint64_t always_hit = 0;
  std::uint64_t first_miss = 0;
  std::uint64_t not_classified = 0;
  CachePair exit_state;  ///< abstract cache after the program

  double wcet_seconds(const CacheConfig& config) const noexcept {
    return static_cast<double>(wcet_cycles) * config.cycle_seconds();
  }
};

/// Analyze a structured program from a given abstract entry state (cold
/// pair if omitted). With a non-null \p memo, loop-body analyses are
/// memoized per (statement, entry-state) — bit-identical results
/// (gtest-enforced differentially), repeated fixpoint work computed once.
/// The memo must only ever be used with this program/config pair.
/// \throws std::runtime_error if a loop fixpoint fails to stabilize within
///         the safety cap (cannot happen for finite age domains unless the
///         implementation is broken -- the cap turns a hang into an error).
StaticWcetResult analyze_static_wcet(
    const StructuredProgram& program, const CacheConfig& config,
    const std::optional<CachePair>& entry = std::nullopt,
    StaticAnalysisMemo* memo = nullptr, FirstMiss first_miss = FirstMiss::on);

/// Cold + warm analysis in one call: the warm pass re-analyzes the program
/// starting from the cold pass's exit state, which is exactly the paper's
/// consecutive-execution scenario (the previous task of the same
/// application just ran; no other application touched the cache).
struct StaticAppWcet {
  StaticWcetResult cold;
  StaticWcetResult warm;

  /// Guaranteed reduction E^gu = cold bound - warm bound (>= 0 by
  /// monotonicity of the must domain).
  std::uint64_t reduction_cycles() const noexcept {
    return cold.wcet_cycles - warm.wcet_cycles;
  }
};
/// Both passes share one subtree memo (\p memo optional): loop fixpoints
/// the warm pass re-reaches from the same abstract states as the cold pass
/// are handed back instead of re-iterated.
StaticAppWcet analyze_static_app_wcet(const StructuredProgram& program,
                                      const CacheConfig& config,
                                      StaticAnalysisMemo* memo = nullptr,
                                      FirstMiss first_miss = FirstMiss::on);

/// Convert to the scheduler-facing WCET pair (seconds).
sched::AppWcet to_app_wcet(const StaticAppWcet& analysis,
                           const CacheConfig& config);

/// Cold analysis plus the warm analysis iterated to its exit-state
/// fixpoint: the warm bound then holds for steady re-execution (mirroring
/// analyze_wcet's `steady` contract on the simulator side), and
/// `generic_exit` — the join over every per-run exit state in the chain —
/// is a sound abstract cache for "this application just finished a burst
/// of ANY length", the state the schedule-dependent entry derivation
/// (cache/schedule_wcet) ages through interfering programs.
struct StaticSteadyWcet {
  StaticWcetResult cold;
  /// Warm-re-execution bound: the WORST pass of the warm chain, sound for
  /// the 2nd-and-later runs of any burst (their entries only refine the
  /// cold exit, and per-pass bounds are non-increasing along the chain —
  /// for single-path programs the chain stabilizes in one pass and this
  /// equals the simulator's steady warm value).
  StaticWcetResult warm;
  CachePair generic_exit;  ///< join of cold + every warm exit state
  int warm_iterations = 0; ///< warm passes until the exit state stabilized

  std::uint64_t reduction_cycles() const noexcept {
    return cold.wcet_cycles - warm.wcet_cycles;
  }
};

/// Iterate warm re-analyses from the cold exit until the exit state maps to
/// itself (a finite-domain fixpoint; typically 1-2 passes). All passes
/// share \p memo, so later passes mostly replay memoized subtrees.
/// \throws std::runtime_error if the exit chain does not stabilize within
///         \p max_iterations (the analysis-side analogue of analyze_wcet's
///         "no steady warm state").
StaticSteadyWcet analyze_static_steady_wcet(const StructuredProgram& program,
                                            const CacheConfig& config,
                                            StaticAnalysisMemo* memo = nullptr,
                                            int max_iterations = 64,
                                            FirstMiss first_miss =
                                                FirstMiss::on);

}  // namespace catsched::cache
