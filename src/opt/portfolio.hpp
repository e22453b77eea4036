#pragma once
/// \file portfolio.hpp
/// \brief Racing metaheuristic portfolio on the unified anytime-search
///        API: N SearchDrivers (hybrid walks from diverse starts, a beam
///        variant, simulated annealing, a GA, integer compass search)
///        race against ONE shared EvalCache and ONE ThreadPool in
///        deterministic rounds. A point any strategy evaluates is free for
///        all the others — the paper's "a schedule costs once" accounting
///        (Sec. IV) extended across heterogeneous strategies.
///
/// Round protocol (all portfolio-side steps serial, in fixed strategy
/// order — the only parallelism is inside the cache's batch evaluation,
/// which is bit-identical at every thread count):
///   1. every live driver proposes a batch;
///   2. the union of the batches, deduplicated in strategy order, is
///      evaluated as one batch through the shared memo (misses only cost
///      once; each is charged to the point's first proposer);
///   3. every driver observes its own outcomes;
///   4. a strategy whose best has trailed the incumbent for
///      `elimination_rounds` consecutive rounds is retired (the incumbent
///      holder is never behind, so it can never retire).
/// The race is therefore bit-identical serial vs. any pool, and resumable:
/// the shared cache journals completed evaluations, and a resumed run
/// replays the same rounds through memo hits (free, not counted against
/// the budget) until it fast-forwards past the kill point.

#include <cstdint>
#include <string>
#include <vector>

#include "opt/search_driver.hpp"

namespace catsched::opt {

/// Portfolio knobs. The per-strategy option blocks feed the drivers
/// verbatim except bounds/tolerance, which the portfolio-level fields
/// override so every strategy searches the same box under the same
/// acceptance slack.
struct PortfolioOptions {
  double tolerance = 0.0;  ///< hybrid/beam acceptance slack (Sec. IV)
  int min_value = 1;
  int max_value = 64;
  int max_rounds = 200;        ///< safety cap on race rounds
  int elimination_rounds = 6;  ///< trailing rounds before a retirement;
                               ///< <= 0 disables racing elimination
  std::uint64_t seed = 1;      ///< base seed; strategy index offsets it

  BeamDriverOptions beam;        ///< width/max_steps (bounds overridden)
  AnnealDriverOptions anneal;    ///< schedule/batch (bounds overridden)
  GeneticDriverOptions genetic;  ///< GA shape (bounds overridden)
  PatternDriverOptions pattern;  ///< initial_step (bounds overridden)
  int hybrid_max_steps = 200;

  /// Shared anytime/checkpoint knobs (see core/anytime.hpp): the budget is
  /// consulted at round boundaries and inside batches (a mid-batch trip
  /// discards the round); the checkpoint path arms the shared cache's
  /// journal, `checkpoint_every` counting completed evaluations.
  core::AnytimeOptions anytime;
};

/// Per-strategy observability after the race.
struct StrategyReport {
  std::string name;
  std::vector<int> best;  ///< best feasible point this strategy observed
  double best_value = 0.0;
  bool found_feasible = false;
  int rounds = 0;     ///< rounds this strategy participated in
  int proposals = 0;  ///< points it proposed over its lifetime
  /// Memo misses charged to it: a point evaluated in a round costs its
  /// first proposer in roster order (the same at every thread count).
  int new_evaluations = 0;
  bool eliminated = false;  ///< retired by the race (vs. self-converged)
};

/// One row of the race history (appended after each completed round).
struct PortfolioRound {
  int round = 0;
  int live_strategies = 0;     ///< strategies still racing AFTER the round
  int unique_evaluations = 0;  ///< shared-cache size after the round
  double incumbent_value = 0.0;
  bool incumbent_found = false;
};

/// Outcome of a portfolio race. Evaluation counts follow the shared naming
/// scheme (opt/discrete_search.hpp): `new_evaluations` = memo misses this
/// race won (0 on a pure resume replay), `unique_evaluations` = distinct
/// points in the shared cache at return.
struct PortfolioResult {
  std::vector<int> best;
  double best_value = 0.0;
  bool found_feasible = false;
  std::string winner;  ///< strategy that first reached the final best
  int rounds = 0;      ///< completed (observed) rounds
  int new_evaluations = 0;
  int unique_evaluations = 0;
  std::vector<StrategyReport> strategies;
  std::vector<PortfolioRound> history;  ///< evals-to-quality trace
  core::RunTelemetry telemetry;
};

/// The one round loop behind every search in this header and behind
/// opt::hybrid_search, opt::hybrid_search_multistart,
/// opt::exhaustive_search and core::interleaved_search: races \p roster
/// (its order is the tie-break order) against \p cache in the
/// deterministic rounds described above.
/// Reads only opts.max_rounds, opts.elimination_rounds and opts.anytime;
/// a checkpoint path arms \p cache, resumes it from an existing file and
/// saves it on return; without one the runner neither arms nor saves.
/// `strategies` reports the roster in order. Drivers stay owned by the
/// caller, which may read their state after the race.
PortfolioResult race_drivers(const std::vector<SearchDriver*>& roster,
                             EvalCache& cache, const PortfolioOptions& opts,
                             core::ThreadPool* pool = nullptr);

/// Race the standard roster from \p starts: one hybrid walk per start,
/// plus one beam / pattern / anneal / genetic strategy (beam, pattern and
/// anneal launch from the first start; the GA seeds its own population).
/// Strategy order is fixed (hybrid:0..k-1, beam, pattern, anneal,
/// genetic) and every portfolio-side decision is serial, so the result is
/// bit-identical at every thread count (gtest-enforced) and across
/// kill/resume through opts.anytime.checkpoint_path.
/// \throws std::invalid_argument if starts is empty or any start is
///         out of bounds / cheap-infeasible.
PortfolioResult portfolio_search(const DiscreteObjective& objective,
                                 const CheapFeasible& cheap,
                                 const std::vector<std::vector<int>>& starts,
                                 const PortfolioOptions& opts,
                                 core::ThreadPool* pool = nullptr,
                                 const NeighborObjective& neighbor = nullptr);

}  // namespace catsched::opt
