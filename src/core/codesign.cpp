#include "core/codesign.hpp"

#include <stdexcept>
#include <vector>

namespace catsched::core {

opt::DiscreteObjective make_objective(Evaluator& evaluator) {
  return [&evaluator](const std::vector<int>& m) {
    // Through the evaluator's schedule memo: the anchored path hints with
    // the base schedule's cached evaluation, so the plain objective must
    // land its results in the same place (also dedups across searches).
    const ScheduleEvaluation& ev = evaluator.evaluate_cached(
        sched::InterleavedSchedule::from_periodic(sched::PeriodicSchedule(m)));
    return opt::EvalOutcome{ev.pall, ev.feasible()};
  };
}

opt::NeighborObjective make_neighbor_objective(Evaluator& evaluator) {
  return [&evaluator](const std::vector<int>& base,
                      const std::vector<int>& point) {
    const auto lift = [](const std::vector<int>& m) {
      return sched::InterleavedSchedule::from_periodic(
          sched::PeriodicSchedule(m));
    };
    const sched::InterleavedSchedule s = lift(point);
    const ScheduleEvaluation& ev = evaluator.evaluate_cached(
        s, s.to_string(), evaluator.evaluate_cached(lift(base)));
    return opt::EvalOutcome{ev.pall, ev.feasible()};
  };
}

opt::CheapFeasible make_cheap_feasible(const Evaluator& evaluator) {
  return [&evaluator](const std::vector<int>& m) {
    return evaluator.idle_feasible(sched::PeriodicSchedule(m));
  };
}

CodesignResult find_optimal_schedule(
    Evaluator& evaluator, const std::vector<std::vector<int>>& starts,
    const opt::HybridOptions& opts, ThreadPool* pool) {
  if (starts.empty()) {
    throw std::invalid_argument("find_optimal_schedule: no start points");
  }
  CodesignResult res;
  res.search = opt::hybrid_search_multistart(
      make_objective(evaluator), make_cheap_feasible(evaluator), starts,
      opts, pool, make_neighbor_objective(evaluator));
  res.schedules_evaluated = res.search.unique_evaluations;
  if (res.search.combined.found_feasible) {
    res.found = true;
    res.best_schedule = sched::PeriodicSchedule(res.search.combined.best);
    // The winner was evaluated during the search: a memo hit, not a rerun.
    res.best_evaluation = evaluator.evaluate_cached(
        sched::InterleavedSchedule::from_periodic(res.best_schedule));
  }
  return res;
}

ExhaustiveCodesignResult exhaustive_codesign(Evaluator& evaluator,
                                             const opt::HybridOptions& opts,
                                             ThreadPool* pool) {
  ExhaustiveCodesignResult res;
  res.details = opt::exhaustive_search(make_objective(evaluator),
                                       make_cheap_feasible(evaluator),
                                       evaluator.model().num_apps(), opts,
                                       pool);
  if (res.details.found_feasible) {
    res.found = true;
    res.best_schedule = sched::PeriodicSchedule(res.details.best);
    res.best_evaluation = evaluator.evaluate(res.best_schedule);
  }
  return res;
}

}  // namespace catsched::core
