#pragma once
/// \file timing.hpp
/// \brief Control timing parameter derivation (paper Sec. II-C): from
///        cold/warm WCETs and a schedule, compute every sampling period
///        h_i(j) and sensing-to-actuation delay tau_i(j), the schedule
///        period, and the idle-time feasibility check (paper eq. (4)).

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sched/schedule.hpp"

namespace catsched::sched {

/// Cold- and warm-cache WCETs of one application's control task, in
/// seconds. Produced by cache::analyze_wcet or entered directly (e.g. the
/// paper's Table I).
struct AppWcet {
  double cold_seconds = 0.0;  ///< WCET without cache reuse, Ewc(1)
  double warm_seconds = 0.0;  ///< WCET with cache reuse, Ewc(j >= 2)
};

/// Schedule-dependent (context-sensitive) WCET source. The binary
/// cold/warm pair assumes a burst-opening task lost its whole cache; a
/// context lookup instead bounds it given WHICH applications ran since the
/// app's previous task (partial cache survival between non-adjacent
/// bursts). Implemented by cache::ScheduleWcetAnalyzer (lazy, memoized
/// static re-analysis) and by the plain ContextWcetTable below.
class ContextWcetLookup {
public:
  virtual ~ContextWcetLookup() = default;

  /// Sound WCET bound in seconds for one task of \p app given that exactly
  /// the applications in \p mask (bit i = app i, own bit never set) ran
  /// since the app's previous task. Never called with mask == 0 — that is
  /// the guaranteed-warm case, served by AppWcet::warm_seconds directly.
  /// Implementations must stay within [warm_seconds, cold_seconds] of the
  /// app (derive_timing validates and throws otherwise: an out-of-range
  /// bound would be unsound or break the cold fallback ordering) and must
  /// be deterministic per (app, mask) — the parallel search engines call
  /// concurrently and rely on bit-identical values.
  virtual double context_wcet_seconds(std::size_t app,
                                      std::uint64_t mask) const = 0;
};

/// Materialized per-context WCET table: mask -> seconds per app, with the
/// cold/warm pair as base. Missing masks fall back to the cold bound
/// (always sound); mask 0 is the warm bound. The plain-data counterpart of
/// the lazy analyzer, for tests, benches and small systems.
struct ContextWcetTable final : public ContextWcetLookup {
  std::vector<AppWcet> base;
  std::vector<std::unordered_map<std::uint64_t, double>> contexts;

  double context_wcet_seconds(std::size_t app,
                              std::uint64_t mask) const override;
};

/// Steady-state interference mask of every task in a cyclic sequence:
/// masks[k] has bit a set iff app a runs strictly between task k and the
/// cyclically-previous task of app seq[k]. masks[k] == 0 exactly when the
/// task is guaranteed warm (previous task is the same app).
/// \throws std::invalid_argument if num_apps > 64 (mask width).
std::vector<std::uint64_t> compute_context_masks(
    const std::vector<std::size_t>& seq, std::size_t num_apps);

/// One control interval of an application: from the sensing of one of its
/// tasks to the sensing of its next task.
struct Interval {
  double h = 0.0;    ///< sampling period of this task
  double tau = 0.0;  ///< sensing-to-actuation delay (= task WCET)
  bool warm = false; ///< true if this task runs on a reused (warm) cache
  bool operator==(const Interval&) const = default;
};

/// All control intervals of one application across a schedule period, in
/// execution order of its tasks (cyclic).
struct AppTiming {
  std::vector<Interval> intervals;

  /// Longest sampling period h_i^max (idle-time constraint, eq. (4)).
  double h_max() const;
  /// Index of the interval with the longest h (the idle gap; the paper's
  /// worst-case settling phase starts here).
  std::size_t longest_interval() const;

  bool operator==(const AppTiming&) const = default;
};

/// Timing of every application under one schedule.
struct ScheduleTiming {
  std::vector<AppTiming> apps;
  double period = 0.0;  ///< schedule (hyper)period in seconds

  bool operator==(const ScheduleTiming&) const = default;
};

/// Derive timing for a periodic schedule (m1..mn). Task j of app i is warm
/// iff j >= 2 (another app ran since otherwise); with a single application
/// every steady-state task is warm.
/// \throws std::invalid_argument if sizes mismatch or any WCET is invalid
///         (cold <= 0 or warm outside (0, cold]).
ScheduleTiming derive_timing(const std::vector<AppWcet>& wcets,
                             const PeriodicSchedule& schedule);

/// Derive timing for a general interleaved schedule. A task is warm iff the
/// cyclically-previous task belongs to the same application.
ScheduleTiming derive_timing(const std::vector<AppWcet>& wcets,
                             const InterleavedSchedule& schedule);

/// Derive timing directly from a raw task sequence (one app index per
/// task). derive_timing on a schedule equals derive_timing on
/// schedule.task_sequence() bit-for-bit; this overload is the reference the
/// incremental path (derive_timing_delta) is differentially tested against,
/// since a moved task sequence need not start on a segment boundary.
/// \throws std::invalid_argument on empty sequence, out-of-range app index,
///         or an app in [0, num_apps) with no task.
ScheduleTiming derive_timing(const std::vector<AppWcet>& wcets,
                             const std::vector<std::size_t>& seq,
                             std::size_t num_apps);

/// Context-sensitive timing derivation: warm tasks (mask 0) keep the warm
/// bound, every burst-opening task gets its schedule-dependent bound from
/// \p contexts instead of the cold bound. Interval construction, start
/// accumulation and period are the exact same code path as the binary
/// overloads, so with a lookup that always returns the cold bound the
/// result is bit-identical to derive_timing(wcets, seq, num_apps).
/// \throws std::invalid_argument on the binary overloads' conditions, on
///         num_apps > 64, or on a lookup value outside [warm, cold].
ScheduleTiming derive_timing(const std::vector<AppWcet>& wcets,
                             const ContextWcetLookup& contexts,
                             const std::vector<std::size_t>& seq,
                             std::size_t num_apps);
ScheduleTiming derive_timing(const std::vector<AppWcet>& wcets,
                             const ContextWcetLookup& contexts,
                             const InterleavedSchedule& schedule);

/// A single-task edit to a schedule's task sequence — the delta between an
/// interleaved schedule and one of its insert/remove neighbors (growing or
/// shrinking a burst, inserting a fresh segment, removing a singleton
/// segment are all one-task edits at the sequence level).
struct TaskMove {
  enum class Kind { insert, remove };
  Kind kind = Kind::insert;
  /// insert: index in the NEW sequence where the task lands, in [0, T];
  /// remove: index in the BASE sequence of the task to drop, in [0, T).
  std::size_t pos = 0;
  /// Application of the inserted task (ignored for remove).
  std::size_t app = 0;
};

/// Expanded steady-state pattern of one schedule: the per-task arrays the
/// timing derivation runs on, kept so a neighbor (one-task move) can be
/// re-derived incrementally instead of from scratch. Built once per base
/// schedule by expand_timing, consumed by derive_timing_delta.
struct TimingPattern {
  std::vector<std::size_t> seq;     ///< app index per task
  std::vector<unsigned char> warm;  ///< steady-state warm classification
  std::vector<double> exec;         ///< per-task WCET (warm or cold)
  std::vector<double> start;        ///< task start offsets within the period
  double period = 0.0;
  ScheduleTiming timing;            ///< == derive_timing of the schedule
};

/// Expand a schedule into its per-task pattern plus derived timing.
/// pattern.timing is bit-identical to derive_timing(wcets, schedule).
TimingPattern expand_timing(const std::vector<AppWcet>& wcets,
                            const InterleavedSchedule& schedule);

/// Same, from a raw task sequence (see the seq overload of derive_timing).
TimingPattern expand_timing(const std::vector<AppWcet>& wcets,
                            const std::vector<std::size_t>& seq,
                            std::size_t num_apps);

/// Incremental re-derivation: timing of the schedule obtained by applying
/// \p move to \p base, bit-identical to derive_timing on the moved task
/// sequence (differentially gtest-enforced). Only the affected warm/cold
/// classifications are re-derived and only start offsets at or after the
/// move position are re-accumulated (the clean prefix is reused verbatim,
/// which is what keeps the result bit-exact: the dirty tail is recomputed
/// with the same operation sequence the from-scratch derivation uses).
/// If \p app_unchanged is non-null it receives one flag per app: true iff
/// that app's interval list is value-identical to the base schedule's (the
/// evaluator uses this to reuse the app's design without re-quantizing).
/// Binary cold/warm only: under context-sensitive WCETs a one-task move
/// can change interference masks far from the edit, so no delta form
/// exists in that mode.
/// \throws std::invalid_argument on an out-of-range move, or a removal
///         that would leave an app with no task.
ScheduleTiming derive_timing_delta(const std::vector<AppWcet>& wcets,
                                   const TimingPattern& base,
                                   const TaskMove& move,
                                   std::vector<bool>* app_unchanged = nullptr);

/// Apply a task move to a sequence (the incremental path's notion of the
/// moved schedule; helper for tests and move construction).
std::vector<std::size_t> apply_move(const std::vector<std::size_t>& seq,
                                    const TaskMove& move);

/// A left rotation of one contiguous sub-range of a schedule's task
/// sequence — the delta between an interleaved schedule and its
/// adjacent-segment-swap neighbor: swapping segments A|B (lengths a, b)
/// rotates the combined range of length a + b left by a. Non-wrapping
/// only (pos + len <= sequence length); a swap involving the last segment
/// rotates the whole canonical sequence and keeps no descriptor.
struct BlockRotation {
  std::size_t pos = 0;    ///< first task of the rotated range
  std::size_t len = 0;    ///< range length, >= 2
  std::size_t shift = 0;  ///< left-rotation amount, in (0, len)
};

/// Apply a block rotation to a sequence (helper for tests and descriptor
/// verification).
/// \throws std::invalid_argument on an out-of-range or degenerate rotation.
std::vector<std::size_t> apply_rotation(const std::vector<std::size_t>& seq,
                                        const BlockRotation& rot);

/// Incremental re-derivation for segment swaps: timing of the schedule
/// whose task sequence is \p base's with \p rot applied, bit-identical to
/// derive_timing on the rotated sequence (differentially gtest-enforced).
/// A rotation preserves every adjacency except three seams (the range
/// head, the internal block boundary, and the first task after the
/// range), so exactly those classifications are patched; start offsets
/// reuse the clean prefix and replay the accumulate_starts recurrence
/// over the dirty tail; interval counts never change, so every app's base
/// interval list is copied wholesale and patched in place. \p app_unchanged
/// receives per-app flags exactly like derive_timing_delta.
/// Binary cold/warm only (see derive_timing_delta for the context-mode
/// rationale).
/// \throws std::invalid_argument on an out-of-range or degenerate rotation.
ScheduleTiming derive_timing_rotation(
    const std::vector<AppWcet>& wcets, const TimingPattern& base,
    const BlockRotation& rot, std::vector<bool>* app_unchanged = nullptr);

/// Paper eq. (4): h_i^max <= tidle_i for every application.
/// \throws std::invalid_argument if tidle size mismatches.
bool idle_feasible(const ScheduleTiming& timing,
                   const std::vector<double>& tidle);

}  // namespace catsched::sched
