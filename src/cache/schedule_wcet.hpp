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
///   1. take the app's generic exit state (the join over every per-run
///      exit of its steady chain — sound for a burst of any length; set by
///      set it is the cold exit, and the analyzer holds it so, see
///      cache/set_steady);
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
/// distinct-line count — is equal for two masks exactly when their entry
/// states are, and step 3 runs once per distinct key ("entry class");
/// every other mask of the class shares its bit-identical result. The key
/// covers only the "contested" live sets, those some other app's
/// footprint touches: every other live set's count is 0 under every mask.
/// The other apps' lines in a contested set fall into "owner classes": a
/// line's class is the mask of the apps that fetch it. The distinct lines
/// the masked apps fetch are the lines of the classes the mask meets, so
/// d_s is the sum of those classes' sizes (where no line is shared, every
/// class is one app). Sets with the same list of classes form a group,
/// with one column of sizes per class, and a mask adds whole columns.
///
/// Sum of parts. Every block instance the walk counts (a "leaf", see
/// analyze_static_wcet) is, in every column, the sum over sets of the
/// same leaf in the walk of the program pruned to each set (see
/// cache/set_steady). Only the composition above the leaves does not
/// split: a branch takes each column's maximum over its arms. A class is
///   fold(base + Σ_{contested s, a_s > 0} (part_s(a_s) − part_s(0)))
/// leaf by leaf, where fold_leaves composes the leaves with the walk's
/// own timing schema and wcet = min(cycles + penalty, am_only). part_s(a)
/// is the walk of set s's pruned tree under a one-set cache from the
/// set's generic exit aged by a; it lives on the set's "support", the
/// leaves whose block fetches a line of s. `base` is the whole program's
/// leaves from the unaged generic exit: the sum of every touched set's
/// part_s(0), which is the set's first warm pass, since its generic exit
/// is its cold exit (see cache/set_steady). The constructor's
/// analyze_set_steady gives all of it: the split by set, each set's
/// renamed pruned tree ("shape"), support and generic exit, and the
/// cold/warm pair. A set's generic exit is a function of its shape, so
/// each shape's part at each amount is walked once — at most ways + 1 —
/// and kept as its change on the support; most sets of a program look
/// alike, so few parts walk at all. The one-set states of a walk sit in
/// AbstractCacheState's inline buffer: it does not touch the heap. The
/// contested sets and `base` are built on the app's first non-zero mask,
/// a shape's parts on its first non-zero amount: an app the search only
/// ever asks for warm costs nothing beyond its pair.
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
#include <vector>

#include "cache/set_steady.hpp"
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

  /// Cold/steady-warm pair of one app (mask-independent base).
  const SteadyPair& base(std::size_t app) const;

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
  /// Per contested set (see the file header), the capped interference
  /// count, LEB128-encoded into a byte string: one byte per set below 128
  /// ways, so a class costs little next to its ContextWcet.
  using EntryKey = std::string;

  /// One contested set: a live set some other app touches, with its
  /// support and shape in the app's SetSteady.
  struct Contested {
    std::uint32_t set = 0;
    std::uint32_t cap = 0;  ///< ways - youngest must age in the set
    /// The support: SetSteady::support()[support_begin, + support_size), the
    /// leaves whose block fetches a line of this set, ascending; every
    /// other leaf of the whole walk has no share of the set.
    std::uint32_t support_begin = 0;
    std::uint32_t support_size = 0;
    /// The set's renamed pruned tree: SetSteady::shapes()[shape].
    std::uint32_t shape = 0;
  };
  /// Contested sets whose interferers' lines fall into the same owner
  /// classes (see the file header): a mask's count in each is min(the sum
  /// of the sizes of the classes it meets, cap).
  struct Group {
    std::uint64_t touch = 0;  ///< bit j: app j interferes
    std::uint32_t first = 0;  ///< SetShares::contested[first, + count)
    std::uint32_t count = 0;
    /// SetShares::classes[classes, + columns): the class masks, ascending.
    std::uint32_t classes = 0;
    std::uint32_t columns = 0;
    /// SetShares::sizes[sizes + r * count + k]: the lines of class r in
    /// set first + k, capped at its cap (one column per class, so a mask
    /// adds whole columns).
    std::uint32_t sizes = 0;
  };

  struct SetShares {
    /// The program's leaves from the unaged generic exit
    /// (SetSteady::exit_leaves).
    std::vector<PassCounts> base;
    /// The groups' sets, group by group.
    std::vector<Contested> contested;
    std::vector<Group> groups;
    std::vector<std::uint64_t> classes;
    std::vector<std::uint32_t> sizes;
    /// part_at[shape * (ways + 1) + a]: where the change part(a) - part(0)
    /// of that shape sits in `parts`, on its support; kUnset until first
    /// used. A set's generic exit is a function of its renamed pruned
    /// tree, so sets of one shape share every part.
    std::vector<std::uint32_t> part_at;
    std::vector<PassCounts> parts;
  };
  static constexpr std::uint32_t kUnset = UINT32_MAX;

  struct AppState {
    StructuredProgram program;
    /// The split by set, its one-set walks and the cold/warm pair.
    SetSteady steady;
    /// The contested sets and the parts the classes are summed from;
    /// built on the first non-zero mask.
    std::unique_ptr<SetShares> shares;
    ContextWcet warm;         ///< mask 0, filled on its first request
    std::unordered_map<EntryKey, ContextWcet> classes;
    /// Every computed mask, pointing at `warm` or into `classes`.
    std::unordered_map<std::uint64_t, const ContextWcet*> contexts;
    /// Scratch for the exclusive side: the capped counts per contested
    /// set, their encoding, one class' leaves and one part's.
    std::vector<std::uint32_t> amounts;
    EntryKey key;
    std::vector<PassCounts> leaves;
    std::vector<PassCounts> part;
    /// Guards shares + contexts + classes + scratch (shared = lookup,
    /// exclusive = compute).
    mutable std::shared_mutex mu;
  };

  /// Fills st.amounts and st.key for \p mask (non-zero, canonical).
  void entry_key_locked(AppState& st, std::uint64_t mask) const;
  /// Fills st.shares: `base`, the contested sets with their groups,
  /// supports and shapes, and no part yet.
  void build_shares_locked(std::size_t app, AppState& st) const;
  /// Computes contested set number \p i's change at aging \p amount
  /// (>= 1) on its support; returns where it sits in SetShares::parts.
  std::uint32_t change_locked(AppState& st, std::size_t i,
                              std::uint32_t amount) const;
  /// The class of st.amounts (those of \p mask): base plus the aged
  /// parts' changes, leaf by leaf, folded through the timing schema.
  StaticWcetCounts sum_of_parts_locked(AppState& st, std::uint64_t mask) const;
  const ContextWcet& compute_context_locked(std::size_t app, AppState& st,
                                            std::uint64_t mask) const;

  CacheConfig config_;
  /// unique_ptr elements: AppState holds a (non-movable) shared_mutex.
  std::vector<std::unique_ptr<AppState>> apps_;
  mutable std::atomic<std::uint64_t> context_requests_{0};
  mutable std::atomic<std::uint64_t> context_analyses_{0};
  mutable std::atomic<std::uint64_t> reanalyses_{0};
};

}  // namespace catsched::cache
