#pragma once
/// \file schedule_wcet.hpp
/// \brief Schedule-dependent WCET analysis: context-sensitive bounds for
///        the first task of a burst, given WHICH applications ran since the
///        app's previous burst (partial cache survival between non-adjacent
///        bursts). The paper's timing model is the binary special case:
///        mask 0 is the guaranteed-warm bound, "everything interfered" is
///        the cold bound; real schedules live strictly in between.
///
/// Derivation per (app, interference mask):
///   1. take the app's generic exit state (cache/static_wcet's
///      StaticSteadyWcet: the join over every per-run exit — sound for a
///      burst of any length);
///   2. age its must state through the interfering programs' union cache
///      footprint (per set, `d` distinct conflicting lines age a surviving
///      LRU line by at most `d` — the CRPD evicting-cache-block
///      argument); the persistence state is left untouched — it is
///      run-local (reset at every analysis entry, see cache/absint), which
///      is precisely what makes its first-miss guarantees
///      interference-proof: the one covered miss IS the re-fetch after
///      whatever the interference evicted;
///   3. re-analyze the program from that entry state through the existing
///      analyze_static_wcet(program, entry, memo) path — the shared
///      per-app StaticAnalysisMemo turns repeated loop fixpoints into
///      lookups.
///
/// merge_footprint + age_through_interference is the reference form of
/// step 2. The analyzer derives the same entry state without building the
/// union: only the sets where the generic exit's must state holds entries
/// ("live" sets) can change, and aging live set `s` by any amount at or
/// above its cap `ways - (youngest age in s)` evicts every entry in it,
/// while below the cap the youngest entry survives at an age that tells
/// the amounts apart. So the per-live-set key min(d_s, cap_s) — a capped
/// distinct-line count read straight off the interferers' sorted per-set
/// footprints — is equal for two masks exactly when their entry states
/// are, and step 3 runs once per distinct key ("entry class"); every
/// other mask of the class shares its bit-identical result.
///
/// Soundness contract (gtest-enforced, randomized + differential):
///   warm <= context(mask) <= cold for every mask, and no concrete CacheSim
///   replay of the same interference sequence ever exceeds the bound.

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/program.hpp"
#include "cache/static_wcet.hpp"
#include "cache/structure.hpp"
#include "sched/timing.hpp"

namespace catsched::cache {

/// Per-set distinct-line footprint of one program: every line ANY path may
/// fetch, bucketed by cache set (the program's evicting cache blocks in
/// CRPD terms, kept per set with the line identities so unions of several
/// interferers do not double-count shared sets).
struct CacheFootprint {
  /// One sorted, deduplicated line vector per cache set.
  std::vector<std::vector<std::uint64_t>> lines_per_set;

  std::size_t total_lines() const noexcept;
};

/// Footprint of a concrete worst-case-path trace.
CacheFootprint compute_footprint(const Program& program,
                                 const CacheConfig& config);
/// Footprint of a structured program: every line in the tree (all branch
/// arms), an upper bound on what any path fetches.
CacheFootprint compute_footprint(const Stmt& root, const CacheConfig& config);

/// In-place union (same config assumed): after the call, \p into covers
/// every line either footprint covers.
void merge_footprint(CacheFootprint& into, const CacheFootprint& other);

/// Entry-state derivation: age \p state's must component through the
/// interference \p footprint — per set, by the number of distinct
/// interfering lines (an upper bound on how much LRU aging the
/// interferers can inflict on a surviving line). The persistence component
/// is left unchanged (see the file header).
void age_through_interference(CachePair& state,
                              const CacheFootprint& footprint);

/// One context-sensitive bound.
struct ContextWcet {
  StaticWcetResult analysis;  ///< re-analysis from the derived entry state
  std::uint64_t cycles = 0;   ///< bound clamped into [warm, cold]
  double seconds = 0.0;       ///< cycles in seconds
  /// True iff the raw analysis already satisfied warm <= raw <= cold (it
  /// always should, by must-domain monotonicity; the clamp is a defensive
  /// soundness floor/ceiling and the invariant suite asserts this flag).
  bool naturally_ordered = false;
};

/// The schedule-dependent WCET engine for one application set on one
/// shared cache. Thread-safe and lazily memoized: analyze_context computes
/// each (app, mask) bound exactly once — concurrent searches observe
/// bit-identical values — masks with the same entry class share one
/// re-analysis, and repeated loop fixpoints across classes of one app
/// resolve through a shared StaticAnalysisMemo. Locking is per
/// app (shared_mutex: memoized lookups take the shared side and proceed
/// concurrently; only a first-time analysis of the SAME app serializes),
/// so the parallel searches' hot path — pure memo hits — never contends
/// across apps. Implements sched::ContextWcetLookup, so it plugs straight
/// into the context-sensitive derive_timing overloads.
class ScheduleWcetAnalyzer final : public sched::ContextWcetLookup {
public:
  /// \p first_miss selects whether bounds may exploit the persistence
  /// (first-miss) classification; FirstMiss::off reproduces the AM-only
  /// bounds exactly (the walk is shared, see cache/static_wcet).
  /// \throws std::invalid_argument if \p programs is empty or num_apps
  ///         exceeds 64 (interference-mask width); std::runtime_error if
  ///         any program has no steady warm state.
  ScheduleWcetAnalyzer(std::vector<StructuredProgram> programs,
                       const CacheConfig& config,
                       FirstMiss first_miss = FirstMiss::on);

  /// Lift concrete worst-case-path traces (core::SystemModel's program
  /// images) into single-block structured programs. The analysis of a
  /// single path is exact, so cold/warm agree with the simulator's
  /// analyze_wcet (gtest-enforced) — and since a branch-free sequential
  /// walk keeps every persistence counter at or above the corresponding
  /// must age, first-miss never fires on lifted traces and the bounds are
  /// bit-identical in both FirstMiss modes.
  static std::unique_ptr<ScheduleWcetAnalyzer> from_traces(
      const std::vector<Program>& programs, const CacheConfig& config);

  std::size_t num_apps() const noexcept { return apps_.size(); }
  const CacheConfig& config() const noexcept { return config_; }
  FirstMiss first_miss() const noexcept { return first_miss_; }

  /// Cold/steady-warm analysis of one app (mask-independent base).
  const StaticSteadyWcet& base(std::size_t app) const;
  /// Union footprint the app inflicts on others.
  const CacheFootprint& footprint(std::size_t app) const;

  /// Scheduler-facing cold/warm pairs (seconds), ordered like the apps.
  std::vector<sched::AppWcet> app_wcets() const;

  /// The context-sensitive bound for (app, mask); bits of \p mask select
  /// interfering apps (the app's own bit is ignored). mask 0 returns the
  /// guaranteed-warm bound. Computed once, then a lookup.
  /// \throws std::out_of_range on a bad app index.
  const ContextWcet& analyze_context(std::size_t app,
                                     std::uint64_t mask) const;

  /// sched::ContextWcetLookup: analyze_context(app, mask).seconds.
  double context_wcet_seconds(std::size_t app,
                              std::uint64_t mask) const override;

  /// Materialize every mask over \p num_apps interferers into a plain
  /// table (2^(n-1) analyses per app: small systems only).
  /// \throws std::invalid_argument if num_apps() > 12.
  sched::ContextWcetTable full_table() const;

  /// Lazy-memoization counters, for the benches' hit-rate reporting. All
  /// three are deterministic: the same at every thread count.
  struct Stats {
    std::uint64_t context_requests = 0;  ///< analyze_context calls
    std::uint64_t context_analyses = 0;  ///< distinct (app, mask) computed
    /// Entry classes actually re-analyzed (distinct aged entry states over
    /// the non-zero masks computed); the other analyses reused a class.
    std::uint64_t reanalyses = 0;
  };
  Stats stats() const;

private:
  /// Per live set (see the file header), the capped interference count,
  /// LEB128-encoded into a byte string: one byte per set below 128 ways,
  /// so a class costs little next to its ContextWcet.
  using EntryKey = std::string;
  struct LiveSet {
    std::uint32_t set = 0;
    std::uint32_t cap = 0;  ///< ways - youngest must age in the set
  };

  struct AppState {
    StructuredProgram program;
    StaticSteadyWcet steady;
    CacheFootprint footprint;
    /// Sets where steady.generic_exit's must state holds entries, ascending.
    std::vector<LiveSet> live;
    StaticAnalysisMemo memo;  ///< shared across this app's contexts
    ContextWcet warm;         ///< mask 0, filled on its first request
    std::unordered_map<EntryKey, ContextWcet> classes;
    /// Every computed mask, pointing at `warm` or into `classes`.
    std::unordered_map<std::uint64_t, const ContextWcet*> contexts;
    /// Scratch for the exclusive side: the capped counts per live set and
    /// their encoding.
    std::vector<std::uint32_t> amounts;
    EntryKey key;
    /// Scratch: unmerged tails of the interferers' lines in one set.
    std::vector<std::pair<const std::uint64_t*, const std::uint64_t*>> heads;
    /// Guards memo + contexts + classes + scratch (shared = lookup,
    /// exclusive = compute).
    mutable std::shared_mutex mu;
  };

  /// Fills st.amounts and st.key for \p mask (non-zero, canonical).
  void entry_key_locked(AppState& st, std::uint64_t mask) const;
  const ContextWcet& compute_context_locked(AppState& st,
                                            std::uint64_t mask) const;

  CacheConfig config_;
  FirstMiss first_miss_ = FirstMiss::on;
  /// unique_ptr elements: AppState holds a (non-movable) shared_mutex.
  std::vector<std::unique_ptr<AppState>> apps_;
  mutable std::atomic<std::uint64_t> context_requests_{0};
  mutable std::atomic<std::uint64_t> context_analyses_{0};
  mutable std::atomic<std::uint64_t> reanalyses_{0};
};

}  // namespace catsched::cache
