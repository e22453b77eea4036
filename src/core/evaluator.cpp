#include "core/evaluator.hpp"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cache/schedule_wcet.hpp"

namespace catsched::core {

namespace {

/// Largest magnitude (seconds) that survives the 1 ps quantization within
/// std::int64_t: 9e6 s * 1e12 = 9e18 < 2^63 - 1. Anything bigger (or
/// non-finite) would make std::llround undefined behavior.
constexpr double kMaxQuantizableSeconds = 9.0e6;

std::int64_t quantize_seconds(double v) {
  if (!std::isfinite(v) || std::abs(v) > kMaxQuantizableSeconds) {
    throw std::invalid_argument(
        "quantize_intervals: interval outside the quantizable range "
        "(non-finite or |t| > 9e6 s)");
  }
  return static_cast<std::int64_t>(std::llround(v * 1e12));
}

}  // namespace

std::vector<std::int64_t> quantize_intervals(
    const std::vector<sched::Interval>& intervals) {
  std::vector<std::int64_t> key;
  key.reserve(intervals.size() * 2);
  for (const auto& iv : intervals) {
    key.push_back(quantize_seconds(iv.h));
    key.push_back(quantize_seconds(iv.tau));
  }
  return key;
}

Evaluator::Evaluator(SystemModel model, control::DesignOptions design_opts,
                     ThreadPool* pool, EvaluatorOptions opts)
    : model_(std::move(model)), design_opts_(design_opts), pool_(pool),
      fault_(opts.fault) {
  model_.validate();
  if (opts.context_wcets) {
    // The analyzer's static cold/warm base replaces the simulator-derived
    // pair so every bound in the evaluator comes from one sound analysis
    // (they agree bit-for-bit on trace programs; gtest-enforced).
    context_ = model_.make_context_analyzer();
    wcets_ = context_->app_wcets();
  } else {
    wcets_ = model_.analyze_wcets();
  }
  tidle_ = model_.tidle_vector();
}

Evaluator::~Evaluator() = default;

sched::ScheduleTiming Evaluator::derive(
    const sched::InterleavedSchedule& s) const {
  return context_ ? sched::derive_timing(wcets_, *context_, s)
                  : sched::derive_timing(wcets_, s);
}

bool Evaluator::idle_feasible(const sched::PeriodicSchedule& s) const {
  return idle_feasible(sched::InterleavedSchedule::from_periodic(s));
}

bool Evaluator::idle_feasible(const sched::InterleavedSchedule& s) const {
  return sched::idle_feasible(derive(s), tidle_);
}

AppEvaluation Evaluator::evaluate_app(
    std::size_t app, const std::vector<sched::Interval>& intervals) {
  return evaluate_app_keyed(app, intervals, quantize_intervals(intervals));
}

AppEvaluation Evaluator::evaluate_app_keyed(
    std::size_t app, const std::vector<sched::Interval>& intervals,
    std::vector<std::int64_t> key) {
  ++design_requests_;
  const MemoKey memo_key{app, std::move(key)};
  // Compute-once: concurrent requests for the same timing pattern run the
  // expensive design exactly once and all observe the finished result.
  // An exceptional compute (a real failure or an injected one) does not
  // latch the once-flag, so the entry stays retryable — no memo poisoning.
  return memo_.get_or_compute(memo_key, [&] {
    if (fault_ != nullptr) fault_->on_evaluation();
    const Application& a = model_.apps[app];
    control::DesignSpec spec;
    spec.plant = a.plant;
    spec.umax = a.umax;
    spec.r = a.r;
    spec.y0 = a.y0;
    spec.smax = a.smax;

    AppEvaluation ev;
    ev.design = control::design_controller(spec, intervals, design_opts_, pool_);
    ++designs_run_;
    ev.settling_time = ev.design.settling_time;
    ev.performance = std::isfinite(ev.settling_time)
                         ? 1.0 - ev.settling_time / a.smax
                         : -std::numeric_limits<double>::infinity();
    ev.feasible = ev.design.feasible && ev.performance >= 0.0;
    // Fingerprint for the hinted path: schedules whose quantized pattern
    // matches reuse this evaluation without a design-memo round trip.
    ev.pattern_key = memo_key.second;
    ev.pattern_hash = VectorHash{}(memo_key.second);
    return ev;
  });
}

ScheduleEvaluation Evaluator::evaluate(const sched::PeriodicSchedule& s) {
  return evaluate(sched::InterleavedSchedule::from_periodic(s));
}

const ScheduleEvaluation& Evaluator::evaluate_cached(
    const sched::InterleavedSchedule& s) {
  return evaluate_cached(s, s.to_string());
}

const ScheduleEvaluation& Evaluator::evaluate_cached(
    const sched::InterleavedSchedule& s, const std::string& key) {
  return schedule_memo_.get_or_compute(key, [&] { return evaluate(s); });
}

ScheduleEvaluation Evaluator::evaluate(const sched::InterleavedSchedule& s,
                                       const ScheduleEvaluation& base_hint) {
  const std::size_t napps = model_.num_apps();
  if (base_hint.apps.size() != napps ||
      base_hint.timing.apps.size() != napps) {
    return evaluate(s);  // unusable hint (e.g. default-constructed)
  }
  ++neighbor_evaluations_;
  ScheduleEvaluation out;
  out.timing = derive(s);
  out.idle_feasible = sched::idle_feasible(out.timing, tidle_);
  // Same fan-out/serial-reduction shape as evaluate(): reused apps cost a
  // copy, changed apps re-enter the design memo — so parallel runs stay
  // bit-identical to serial and to the unhinted evaluation.
  std::vector<AppEvaluation> evs(napps);
  const auto body = [&](std::size_t i) {
    const AppEvaluation& prior = base_hint.apps[i];
    const std::vector<sched::Interval>& intervals =
        out.timing.apps[i].intervals;
    if (intervals == base_hint.timing.apps[i].intervals) {
      // Identical interval list: the quantized key would match too, so
      // skip re-quantization entirely.
      evs[i] = prior;
      ++apps_reused_;
      return;
    }
    std::vector<std::int64_t> key = quantize_intervals(intervals);
    if (VectorHash{}(key) == prior.pattern_hash && key == prior.pattern_key) {
      // Sub-picosecond drift only: same design problem as the base.
      evs[i] = prior;
      ++apps_reused_;
      return;
    }
    evs[i] = evaluate_app_keyed(i, intervals, std::move(key));
  };
  if (pool_ == nullptr) {
    for (std::size_t i = 0; i < napps; ++i) body(i);
  } else {
    parallel_for(pool_, napps, body);
  }
  reduce_apps(out, evs);
  return out;
}

const ScheduleEvaluation& Evaluator::evaluate_cached(
    const sched::InterleavedSchedule& s, const std::string& key,
    const ScheduleEvaluation& base_hint) {
  return schedule_memo_.get_or_compute(key,
                                       [&] { return evaluate(s, base_hint); });
}

void Evaluator::reduce_apps(ScheduleEvaluation& out,
                            std::vector<AppEvaluation>& evs) {
  out.control_feasible = true;
  out.pall = 0.0;
  out.apps.reserve(evs.size());
  for (std::size_t i = 0; i < evs.size(); ++i) {
    AppEvaluation& ev = evs[i];
    out.control_feasible = out.control_feasible && ev.feasible;
    if (std::isfinite(ev.performance)) {
      out.pall += model_.apps[i].weight * ev.performance;
    } else {
      out.pall = -std::numeric_limits<double>::infinity();
    }
    out.apps.push_back(std::move(ev));
  }
}

ScheduleEvaluation Evaluator::evaluate(const sched::InterleavedSchedule& s) {
  ScheduleEvaluation out;
  out.timing = derive(s);
  out.idle_feasible = sched::idle_feasible(out.timing, tidle_);
  const std::size_t napps = model_.num_apps();
  // Batched per-app designs: every app of this schedule lands in its own
  // index-addressed slot (fanned across pool_ when present; each design
  // additionally batches its PSO generations on the same pool), then Pall
  // is reduced serially in app order — bit-identical to the serial loop.
  // The per-app memo stays in the path, so a pattern shared with another
  // schedule (or requested concurrently) is still designed exactly once.
  std::vector<AppEvaluation> evs(napps);
  const auto body = [&](std::size_t i) {
    evs[i] = evaluate_app(i, out.timing.apps[i].intervals);
  };
  // Inline serial loop: no std::function round trip on the hot
  // (memoized-design) path.
  if (pool_ == nullptr) {
    for (std::size_t i = 0; i < napps; ++i) body(i);
  } else {
    parallel_for(pool_, napps, body);
  }
  reduce_apps(out, evs);
  return out;
}

}  // namespace catsched::core
