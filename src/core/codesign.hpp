#pragma once
/// \file codesign.hpp
/// \brief Stage 2 of the framework (paper Sec. IV): find the schedule
///        maximizing overall control performance, by hybrid search or
///        exhaustively. Ties the Evaluator to opt::discrete_search.

#include "core/evaluator.hpp"
#include "opt/discrete_search.hpp"

namespace catsched::core {

/// Result of a schedule optimization.
struct CodesignResult {
  sched::PeriodicSchedule best_schedule;
  ScheduleEvaluation best_evaluation;
  bool found = false;
  int schedules_evaluated = 0;  ///< unique schedule evaluations
  opt::MultiStartResult search;  ///< per-start details (hybrid only)
};

/// Adapter: the expensive discrete objective (full schedule evaluation).
opt::DiscreteObjective make_objective(Evaluator& evaluator);

/// Adapter: the anchored neighbor objective — evaluates a point through the
/// evaluator's hinted evaluate_cached against its base schedule's
/// evaluation, reusing per-app evaluations whose timing is unchanged.
/// Bit-identical to make_objective (the hinted path's contract); anchored
/// proposals (the hybrid lanes' +-1 neighborhoods) route their memo misses
/// through it.
opt::NeighborObjective make_neighbor_objective(Evaluator& evaluator);

/// Adapter: the cheap pre-filter (idle-time feasibility, eq. (4)).
opt::CheapFeasible make_cheap_feasible(const Evaluator& evaluator);

/// Run the hybrid search (Sec. IV) from the given start schedules, one
/// lock-step lane per start. With a \p pool, each round's neighbor
/// candidates of all lanes are batched across the workers; results,
/// including the per-start evaluation split, are bit-identical to the
/// serial run (see opt::hybrid_search_multistart).
/// \throws std::invalid_argument if starts is empty.
CodesignResult find_optimal_schedule(
    Evaluator& evaluator, const std::vector<std::vector<int>>& starts,
    const opt::HybridOptions& opts = {}, ThreadPool* pool = nullptr);

/// Exhaustive baseline over the idle-feasible region.
struct ExhaustiveCodesignResult {
  sched::PeriodicSchedule best_schedule;
  ScheduleEvaluation best_evaluation;
  bool found = false;
  opt::ExhaustiveResult details;
};
/// With a \p pool, the enumerated region is evaluated across the workers
/// and reduced in enumeration order — bit-identical to the serial run.
ExhaustiveCodesignResult exhaustive_codesign(
    Evaluator& evaluator, const opt::HybridOptions& opts = {},
    ThreadPool* pool = nullptr);

}  // namespace catsched::core
