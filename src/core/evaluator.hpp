#pragma once
/// \file evaluator.hpp
/// \brief Stage 1 of the framework: evaluate the overall control
///        performance of one schedule (paper Sec. III + eq. (2)), with
///        per-application memoization keyed on the application's timing
///        pattern (a schedule change that leaves an app's intervals
///        untouched reuses its design).

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/fault.hpp"
#include "core/parallel.hpp"
#include "core/system_model.hpp"
#include "sched/schedule.hpp"

namespace catsched::core {

/// Quantize an interval list to picoseconds for use as a design-memo key
/// (two timing patterns closer than 1 ps are the same design problem).
/// \throws std::invalid_argument if any h/tau is non-finite or beyond the
///         quantization range (~9e6 s): std::llround on such values would
///         be undefined behavior, so they are rejected before keying.
std::vector<std::int64_t> quantize_intervals(
    const std::vector<sched::Interval>& intervals);

/// Evaluator behavior knobs (beyond the design options).
struct EvaluatorOptions {
  /// Schedule-dependent WCETs: burst-opening tasks are bounded per
  /// interference context (which apps ran since this app's previous task,
  /// via cache::ScheduleWcetAnalyzer) instead of the binary cold bound.
  /// Context bounds are sound and sit in [warm, cold], so they can only
  /// shorten periods — schedules the cold/warm pair rejects on idle time
  /// can become feasible. Off (the default) keeps the paper's binary
  /// model bit-identically.
  bool context_wcets = false;

  /// Fault injection (tests and the robustness tools only): every
  /// controller design the evaluator actually runs is guarded by
  /// FaultPlan::on_evaluation(), so an armed plan throws FaultInjected
  /// from inside whatever thread computes the design — a pool worker under
  /// a batching pool. Must outlive the evaluator; null = no injection.
  /// A thrown fault leaves the design-memo entry retryable (the memo's
  /// compute-once protocol resets an exceptional compute to empty), so a
  /// caller that catches the failure can re-evaluate and succeed.
  FaultPlan* fault = nullptr;
};

/// Per-application outcome inside one schedule evaluation.
struct AppEvaluation {
  control::DesignResult design;
  double settling_time = 0.0;  ///< s_i (infinity if never settles)
  double performance = 0.0;    ///< P_i = 1 - s_i / s_i^max (paper eq. (2))
  bool feasible = false;       ///< P_i >= 0 and design feasible (eq. (3))
  /// Quantized timing pattern this evaluation was designed for, and its
  /// fingerprint: the hinted evaluation compares an app's fingerprint
  /// against these to reuse the evaluation without a design-memo round trip.
  std::vector<std::int64_t> pattern_key;
  std::uint64_t pattern_hash = 0;
};

/// Outcome of evaluating one schedule.
struct ScheduleEvaluation {
  sched::ScheduleTiming timing;
  std::vector<AppEvaluation> apps;
  double pall = 0.0;          ///< weighted overall performance (eq. (2))
  bool idle_feasible = false; ///< eq. (4)
  bool control_feasible = false;  ///< eq. (3) for every app
  bool feasible() const noexcept {
    return idle_feasible && control_feasible;
  }
};

/// Evaluates schedules for a fixed SystemModel. Holds the WCET analysis
/// results and a memo of per-application designs.
///
/// Thread-safe: evaluate() and evaluate_cached() may be called
/// concurrently (the design and schedule memos are sharded compute-once
/// maps, the counters are atomic), which is what the batch evaluation of
/// opt::race_drivers relies on.
/// Results are deterministic: a design is computed exactly once per timing
/// pattern and design_controller itself is deterministic.
class Evaluator {
public:
  /// Runs the cache/WCET analysis once up front. With a non-null \p pool,
  /// evaluate() fans all per-app designs of one schedule across the pool
  /// (keeping the per-app memo in the path, so each timing pattern is
  /// still designed once), and each design batches its candidate grid and
  /// PSO generations there too — bit-identical to the serial evaluation,
  /// per the parallel_for determinism contract (enforced by
  /// tests/test_design_batch.cpp).
  /// \throws whatever SystemModel::validate/analyze_wcets throw.
  Evaluator(SystemModel model, control::DesignOptions design_opts = {},
            ThreadPool* pool = nullptr, EvaluatorOptions opts = {});

  /// Out of line: the context analyzer is only forward-declared here (see
  /// system_model.hpp), so the unique_ptr must be destroyed in the .cpp.
  ~Evaluator();

  /// The batching pool this evaluator was constructed with (nullptr =
  /// serial designs). The pool must outlive the evaluator's evaluate calls.
  ThreadPool* pool() const noexcept { return pool_; }

  const SystemModel& model() const noexcept { return model_; }
  const std::vector<sched::AppWcet>& wcets() const noexcept { return wcets_; }

  /// True when schedule-dependent WCETs are active (EvaluatorOptions).
  bool context_wcets() const noexcept { return context_ != nullptr; }
  /// The lazy context analyzer (nullptr when contexts are off); exposed
  /// for the benches' per-context stats and memo hit rates.
  const cache::ScheduleWcetAnalyzer* context_analyzer() const noexcept {
    return context_.get();
  }

  /// Cheap feasibility: idle-time constraint only (paper eq. (4)).
  bool idle_feasible(const sched::PeriodicSchedule& s) const;
  bool idle_feasible(const sched::InterleavedSchedule& s) const;

  /// Full evaluation: per-app holistic controller design + Pall.
  ScheduleEvaluation evaluate(const sched::PeriodicSchedule& s);
  ScheduleEvaluation evaluate(const sched::InterleavedSchedule& s);

  /// Full evaluation with a base hint (the anchored evaluation every
  /// search's neighbor objective takes): timing is derived from scratch,
  /// but apps whose interval lists match the hint's are reused without
  /// re-quantization, and quantized-fingerprint matches skip the
  /// design-memo round trip. Bit-identical to evaluate(s) for ANY hint
  /// (matching lists imply the same design-memo entry).
  ScheduleEvaluation evaluate(const sched::InterleavedSchedule& s,
                              const ScheduleEvaluation& base_hint);

  /// Memoized variant of the hinted evaluation (same schedule memo as
  /// evaluate_cached, so either path may own a key — the values are
  /// bit-identical).
  const ScheduleEvaluation& evaluate_cached(
      const sched::InterleavedSchedule& s, const std::string& key,
      const ScheduleEvaluation& base_hint);

  /// Memoized whole-schedule evaluation, keyed on the canonical segment
  /// string: however many searches (or threads) revisit a segment pattern,
  /// its timing derivation and per-app designs run once. The reference
  /// stays valid for the evaluator's lifetime (sharded compute-once map).
  const ScheduleEvaluation& evaluate_cached(const sched::InterleavedSchedule& s);
  /// Same, for callers that already hold the canonical key (s.to_string())
  /// and shouldn't pay for building it twice.
  const ScheduleEvaluation& evaluate_cached(const sched::InterleavedSchedule& s,
                                            const std::string& key);

  /// Distinct schedules evaluated through evaluate_cached().
  int schedule_evaluations() const { return static_cast<int>(schedule_memo_.size()); }

  /// Number of per-application designs actually run (cache misses).
  int designs_run() const noexcept { return designs_run_.load(); }
  /// Number of per-application design requests (incl. memo hits).
  int design_requests() const noexcept { return design_requests_.load(); }
  /// Evaluations completed against a base hint (schedule-memo misses taken
  /// by the anchored path).
  int neighbor_evaluations() const noexcept {
    return neighbor_evaluations_.load();
  }
  /// AppEvaluations reused from a base evaluation without touching the
  /// design memo (identical interval list or fingerprint match).
  int apps_reused() const noexcept { return apps_reused_.load(); }

private:
  AppEvaluation evaluate_app(std::size_t app,
                             const std::vector<sched::Interval>& intervals);
  AppEvaluation evaluate_app_keyed(std::size_t app,
                                   const std::vector<sched::Interval>& intervals,
                                   std::vector<std::int64_t> key);
  /// The serial Pall reduction shared by both evaluate() paths (one code
  /// path = bit-identical sums).
  void reduce_apps(ScheduleEvaluation& out, std::vector<AppEvaluation>& evs);
  /// Mode dispatch: binary or context-sensitive timing derivation.
  sched::ScheduleTiming derive(const sched::InterleavedSchedule& s) const;

  using MemoKey = std::pair<std::size_t, std::vector<std::int64_t>>;

  SystemModel model_;
  control::DesignOptions design_opts_;
  ThreadPool* pool_ = nullptr;
  /// Schedule-dependent WCET engine (EvaluatorOptions::context_wcets);
  /// nullptr in binary mode. Thread-safe and compute-once internally, so
  /// the parallel searches stay bit-identical to serial runs.
  std::unique_ptr<cache::ScheduleWcetAnalyzer> context_;
  std::vector<sched::AppWcet> wcets_;
  FaultPlan* fault_ = nullptr;  ///< EvaluatorOptions::fault (may be null)
  std::vector<double> tidle_;  ///< per-app idle-time limits (fixed by model)
  ConcurrentMemoMap<MemoKey, AppEvaluation, IndexedVectorHash> memo_;
  ConcurrentMemoMap<std::string, ScheduleEvaluation> schedule_memo_;
  std::atomic<int> designs_run_{0};
  std::atomic<int> design_requests_{0};
  std::atomic<int> neighbor_evaluations_{0};
  std::atomic<int> apps_reused_{0};
};

}  // namespace catsched::core
