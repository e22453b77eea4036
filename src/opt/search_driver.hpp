#pragma once
/// \file search_driver.hpp
/// \brief Proposal-batch step interface over the discrete schedule space:
///        the repo's metaheuristics (the paper's hybrid gradient walk,
///        simulated annealing, a genetic algorithm, and deterministic
///        integer compass search) restated as SearchDrivers that
///        *propose* a batch of points per round and *observe* their
///        outcomes — never evaluating anything themselves.
///
/// The portfolio (opt/portfolio.hpp) races drivers against one shared
/// EvalCache and one ThreadPool. The propose/observe split is what makes
/// the race deterministic: a driver's next batch depends only on the
/// outcomes it has observed and its own seeded RNG (testgen::SplitMix64 —
/// platform-pinned, per the determinism policy), while all parallelism
/// lives in the cache's batch evaluation, whose results are bit-identical
/// at every thread count. Drivers therefore never see thread timing.
///
/// Filter note: stochastic drivers resample proposals through the
/// CheapFeasible filter (a pure predicate, not necessarily downward-closed
/// — see opt/discrete_search.hpp), so the observed/RNG-consumed sequence
/// is a pure function of the filter and the outcomes — never of
/// evaluation order. Every proposal is in-bounds and cheap-feasible.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/parallel.hpp"
#include "opt/discrete_search.hpp"

namespace catsched::opt {

/// One racing strategy in proposal-batch form. Lifecycle per round:
///   1. `propose_batch()` — the points this strategy wants evaluated next
///      (in-bounds, cheap-feasible). An empty batch marks the driver
///      finished (converged / budget of its own exhausted).
///   2. The caller evaluates the batch (shared cache, any thread count).
///   3. `observe_batch(points, outcomes)` — same order as proposed; the
///      driver updates its internal state and best-so-far.
/// Both calls are serial; subclasses keep all state unsynchronized.
class SearchDriver {
 public:
  explicit SearchDriver(std::string name) : name_(std::move(name)) {}
  virtual ~SearchDriver() = default;

  SearchDriver(const SearchDriver&) = delete;
  SearchDriver& operator=(const SearchDriver&) = delete;

  const std::string& name() const { return name_; }
  bool finished() const { return finished_; }
  bool found_feasible() const { return found_; }
  const std::vector<int>& best() const { return best_; }
  double best_value() const { return best_value_; }
  int proposals() const { return proposals_; }

  /// Next batch (empty once finished; finishing is latched).
  std::vector<std::vector<int>> propose_batch();

  /// Report outcomes for the batch just proposed, in proposal order; every
  /// pointer must be non-null (the portfolio discards half-evaluated
  /// rounds before observing — see opt/portfolio.hpp).
  void observe_batch(const std::vector<std::vector<int>>& points,
                     const std::vector<const EvalOutcome*>& outcomes);

  /// Optional anchor: when every point of the next batch is a neighbor of
  /// one base point (a +-1 move of a periodic point), return it and the
  /// cache routes misses through the neighbor objective, which evaluates
  /// them hinted by the base's evaluation. Null = no common base.
  virtual const std::vector<int>* anchor() const { return nullptr; }

 protected:
  virtual std::vector<std::vector<int>> propose() = 0;
  virtual void observe(const std::vector<std::vector<int>>& points,
                       const std::vector<const EvalOutcome*>& outcomes) = 0;

  /// Fold one outcome into the best-so-far (feasible points only).
  void note(const std::vector<int>& point, const EvalOutcome& out);
  void finish() { finished_ = true; }

  /// Shared walk ordering: infeasible points rank a full unit below their
  /// value so random walks can cross them but never prefer one.
  static double walk_value(const EvalOutcome& out) {
    return out.feasible ? out.value : out.value - 1.0;
  }

 private:
  std::string name_;
  bool finished_ = false;
  bool found_ = false;
  std::vector<int> best_;
  double best_value_ = 0.0;
  int proposals_ = 0;
};

/// The paper's Sec. IV hybrid walk — the repo's one implementation of it;
/// opt::hybrid_search and opt::hybrid_search_multistart race it through
/// opt::race_drivers, and the portfolio runs one lane per start. Round 0
/// evaluates the start. Every later round proposes the in-box,
/// cheap-feasible +-1 neighborhood of the current point (anchored there,
/// so misses take the anchored path), then picks the move by the
/// per-dimension quadratic-model rule:
///   * each dimension's gradient is the central difference when both
///     neighbors exist, else the one-sided difference against the current
///     value;
///   * every existing neighbor becomes a move scored by its predicted gain
///     (+gradient for +1, -gradient for -1), sorted descending, ties in
///     move order (dimension ascending, the +1 move first);
///   * the first move whose target is unvisited, control-feasible and at
///     most opts.tolerance below the current value is taken.
/// No acceptable move finishes the walk; opts.max_steps caps accepted
/// moves. opts.anytime is ignored (the runner owns the budget).
class HybridDriver final : public SearchDriver {
 public:
  /// \throws std::invalid_argument if start is empty, out of bounds or
  ///         cheap-infeasible.
  HybridDriver(std::string name, CheapFeasible cheap, std::vector<int> start,
               const HybridOptions& opts);

  const std::vector<int>* anchor() const override {
    return seeded_ ? &cur_ : nullptr;
  }

  /// Accepted points, start first (empty until round 0 is observed).
  const std::vector<std::vector<int>>& path() const { return path_; }
  int steps() const { return steps_; }  ///< accepted moves

 protected:
  std::vector<std::vector<int>> propose() override;
  void observe(const std::vector<std::vector<int>>& points,
               const std::vector<const EvalOutcome*>& outcomes) override;

 private:
  struct Pending {
    std::size_t dim;
    int dir;
  };

  CheapFeasible cheap_;
  HybridOptions opts_;
  std::vector<int> cur_;
  EvalOutcome cur_out_;
  bool seeded_ = false;
  int steps_ = 0;
  std::vector<std::vector<int>> path_;
  std::vector<Pending> pending_;
  std::unordered_set<std::vector<int>, core::VectorHash> visited_;
};

/// Batch-synchronous simulated annealing.
struct AnnealDriverOptions {
  double initial_temperature = 0.05;  ///< in objective units (Pall ~ 0..1)
  double cooling = 0.97;              ///< geometric factor per proposal
  int iterations = 400;               ///< total proposals across all rounds
  int batch = 8;                      ///< proposals per round
  int min_value = 1;
  int max_value = 64;
  std::uint64_t seed = 1;
};

/// SA adapted to rounds: each round proposes `batch` independent +-1 moves
/// from the current point (each resampled up to 32 times until it is
/// in-box and cheap-feasible, else dropped); observation scans them in
/// order, cooling once per proposal, and the FIRST accepted move
/// (improvements always, losses with probability exp(delta/T) on
/// walk_value) becomes the new current point — the rest of the round only
/// feeds best-tracking. At a zero temperature only non-worsening moves are
/// accepted. RNG is SplitMix64.
std::unique_ptr<SearchDriver> make_anneal_driver(
    std::string name, CheapFeasible cheap, std::vector<int> start,
    const AnnealDriverOptions& opts);

/// Generational GA (one generation = one round).
struct GeneticDriverOptions {
  int population = 12;
  int generations = 15;
  int min_value = 1;
  int max_value = 64;
  std::uint64_t seed = 1;
  int max_repair_tries = 32;  ///< resamples to make a child cheap-feasible
};

/// GA in driver form: a round proposes the current population, observation
/// assigns walk_value fitness and breeds the next generation (3-way
/// tournament selection, uniform crossover with probability 0.9, per-gene
/// +-1 mutation with probability 0.3 and cheap-feasibility repair, the 2
/// best copied unchanged). Half the initial population is biased low
/// (genes in [min, min+3]); all randomness is SplitMix64. The all-min
/// point backstops an initial draw that found nothing cheap-feasible, when
/// the filter accepts it.
/// \throws std::invalid_argument if dims == 0 or population < 2, or
///         std::runtime_error if an initial draw and the all-min backstop
///         are both cheap-infeasible.
std::unique_ptr<SearchDriver> make_genetic_driver(
    std::string name, CheapFeasible cheap, std::size_t dims,
    const GeneticDriverOptions& opts);

/// Deterministic integer compass (pattern) search.
struct PatternDriverOptions {
  int initial_step = 4;  ///< starting +-h per-dimension step
  int min_value = 1;
  int max_value = 64;
  int max_rounds = 200;
};

/// Integer compass search: each round proposes cur +- h*e_i for every
/// dimension; the best strictly-improving candidate (walk_value) becomes
/// the new point, otherwise h halves; h < 1 finishes. No RNG at all — the
/// portfolio's only fully deterministic stochastic-free strategy, a
/// discrete restatement of opt/pattern_search.hpp.
std::unique_ptr<SearchDriver> make_pattern_driver(
    std::string name, CheapFeasible cheap, std::vector<int> start,
    const PatternDriverOptions& opts);

}  // namespace catsched::opt
