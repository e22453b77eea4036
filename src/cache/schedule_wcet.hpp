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
///   3. analyze the program from that entry state — for every app, as a
///      fold of per-set parts (below); analyze_static_wcet from the aged
///      entry is the reference it equals in every column.
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
/// Sum of parts. Both abstract domains work per set (access, join and
/// age_set each touch one set), and a loop fixpoint restricted to one set
/// is that set's own fixpoint. So every block instance the walk counts (a
/// "leaf", see analyze_static_wcet) is the sum over sets of the same
/// leaf in the walk of the program restricted to each set, in every
/// column. Only the composition above the leaves does not split: a branch
/// takes each column's maximum over its arms. So the restriction keeps
/// the whole tree shape (every seq, loop and branch; each block cut to
/// the set's lines), leaf k of every part is leaf k of `base`, and a class
/// is
///   fold(base + Σ_{live s, a_s > 0} (part_s(a_s) − part_s(0)))
/// leaf by leaf, where fold_leaves composes the leaves with the walk's
/// own timing schema and wcet = min(cycles + penalty, am_only). `base` is
/// the whole program's leaves from the unaged generic exit, and part_s(a)
/// the leaves of set s's restriction analyzed under a one-set cache from
/// that set of the generic exit aged by a — at most ways + 1 parts per
/// live set, each computed once and kept as its change on the leaves that
/// fetch a line of s. The split of the tree and `base` are built on the
/// app's first non-zero mask, a set's parts on its first non-zero amount:
/// an app the search only ever asks for warm costs nothing extra.
///
/// Soundness contract (gtest-enforced, randomized + differential):
///   warm <= context(mask) <= cold for every mask, and no concrete CacheSim
///   replay of the same interference sequence ever exceeds the bound.

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

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
  StaticWcetCounts analysis;  ///< analysis from the derived entry state
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
/// fold, and the classes of one app share its per-set parts. Locking is
/// per
/// app (shared_mutex: memoized lookups take the shared side and proceed
/// concurrently; only a first-time analysis of the SAME app serializes),
/// so the parallel searches' hot path — pure memo hits — never contends
/// across apps. Implements sched::ContextWcetLookup, so it plugs straight
/// into the context-sensitive derive_timing overloads.
class ScheduleWcetAnalyzer final : public sched::ContextWcetLookup {
public:
  /// One program per app, as core::Application::analysis_program() gives
  /// it (a trace-only app is one block).
  /// \throws std::invalid_argument if \p programs is empty or num_apps
  ///         exceeds 64 (interference-mask width).
  ScheduleWcetAnalyzer(std::vector<StructuredProgram> programs,
                       const CacheConfig& config);

  std::size_t num_apps() const noexcept { return apps_.size(); }
  const CacheConfig& config() const noexcept { return config_; }

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
    /// Entry classes computed (distinct aged entry states over the
    /// non-zero masks computed), each a fold of per-set parts; the other
    /// analyses reused a class.
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

  /// One live set's share of the program (see the file header).
  struct SetShare {
    /// The whole tree, each block restricted to this set's lines.
    StructuredProgram program;
    /// The leaves whose block fetches a line of this set, ascending; every
    /// other leaf of `program` is zero from any entry.
    std::vector<std::uint32_t> support;
    std::vector<PassCounts> unaged;  ///< part(0)'s leaves on `support`
    /// changes[a]: part(a) − part(0) on `support` (a in 1..cap), computed
    /// on first use. `support`, `unaged` and these slots are filled on the
    /// set's first non-zero amount.
    std::vector<std::optional<std::vector<PassCounts>>> changes;
  };
  struct SetShares {
    /// The program's leaves from the unaged generic exit.
    std::vector<PassCounts> base;
    std::vector<SetShare> sets;  ///< parallel to AppState::live
  };

  struct AppState {
    StructuredProgram program;
    StaticSteadyWcet steady;
    CacheFootprint footprint;
    /// Sets where steady.generic_exit's must state holds entries, ascending.
    std::vector<LiveSet> live;
    StaticAnalysisMemo memo;  ///< the steady passes' and the base's
    /// The parts the classes are summed from; built on the first non-zero
    /// mask.
    std::unique_ptr<SetShares> shares;
    ContextWcet warm;         ///< mask 0, filled on its first request
    std::unordered_map<EntryKey, ContextWcet> classes;
    /// Every computed mask, pointing at `warm` or into `classes`.
    std::unordered_map<std::uint64_t, const ContextWcet*> contexts;
    /// Scratch for the exclusive side: the capped counts per live set,
    /// their encoding, one class' leaves and one part's.
    std::vector<std::uint32_t> amounts;
    EntryKey key;
    std::vector<PassCounts> leaves;
    std::vector<PassCounts> part;
    /// Scratch: unmerged tails of the interferers' lines in one set.
    std::vector<std::pair<const std::uint64_t*, const std::uint64_t*>> heads;
    /// Guards memo + shares + contexts + classes + scratch (shared =
    /// lookup, exclusive = compute).
    mutable std::shared_mutex mu;
  };

  /// Fills st.amounts and st.key for \p mask (non-zero, canonical).
  void entry_key_locked(AppState& st, std::uint64_t mask) const;
  /// Fills st.shares: `base`, the split by live set and no part yet.
  void build_shares_locked(AppState& st) const;
  /// Live set number \p i's change at aging \p amount (>= 1), computed on
  /// first use.
  const std::vector<PassCounts>& change_locked(AppState& st, std::size_t i,
                                               std::uint32_t amount) const;
  /// The class of st.amounts: base plus the aged parts' changes, leaf by
  /// leaf, folded through the timing schema.
  StaticWcetCounts sum_of_parts_locked(AppState& st) const;
  const ContextWcet& compute_context_locked(AppState& st,
                                            std::uint64_t mask) const;

  CacheConfig config_;
  /// unique_ptr elements: AppState holds a (non-movable) shared_mutex.
  std::vector<std::unique_ptr<AppState>> apps_;
  mutable std::atomic<std::uint64_t> context_requests_{0};
  mutable std::atomic<std::uint64_t> context_analyses_{0};
  mutable std::atomic<std::uint64_t> reanalyses_{0};
};

}  // namespace catsched::cache
