// Tests for the racing metaheuristic portfolio (opt/portfolio.hpp) and the
// SearchDriver proposal-batch interface beneath it: serial-vs-parallel
// bit-identity at several thread counts, kill-and-resume through the shared
// EvalCache journal, deterministic strategy elimination, the contract
// that the portfolio's hybrid lane walks the reference Sec. IV rule,
// and each driver's own behaviour when raced alone through race_drivers.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <tuple>
#include <vector>

#include "core/parallel.hpp"
#include "core/run_budget.hpp"
#include "opt/portfolio.hpp"
#include "reference_walk.hpp"

using namespace catsched;
using namespace catsched::opt;

namespace {

/// Quadratic bowl over integers, optimum at (3, 2, 3) — the same synthetic
/// landscape the hybrid-search tests climb (tests/test_opt.cpp).
EvalOutcome bowl(const std::vector<int>& m) {
  double v = 1.0;
  const int target[3] = {3, 2, 3};
  for (std::size_t i = 0; i < m.size(); ++i) {
    v -= 0.05 * (m[i] - target[i]) * (m[i] - target[i]);
  }
  return EvalOutcome{v, true};
}

bool cheap_box(const std::vector<int>& m) {
  int sum = 0;
  for (int v : m) sum += v;
  return sum <= 14;  // downward-closed
}

/// A rougher multi-modal landscape: two basins, the better one away from
/// the low corner, infeasible ridge between them — exercises strategies
/// disagreeing long enough for elimination to fire.
EvalOutcome two_basins(const std::vector<int>& m) {
  const auto bump = [&](int a, int b, double h, double w) {
    double v = h;
    v -= w * (m[0] - a) * (m[0] - a);
    v -= w * (m[1] - b) * (m[1] - b);
    return v;
  };
  const double v = std::max(bump(2, 2, 0.6, 0.05), bump(6, 5, 0.9, 0.04));
  const bool feasible = !(m[0] == 4 && m[1] == 4);
  return EvalOutcome{v, feasible};
}

bool cheap_wide(const std::vector<int>& m) {
  int sum = 0;
  for (int v : m) sum += v;
  return sum <= 16;
}

PortfolioOptions small_opts() {
  PortfolioOptions o;
  o.max_value = 8;
  o.max_rounds = 40;
  o.anneal.iterations = 48;
  o.anneal.batch = 6;
  o.genetic.population = 8;
  o.genetic.generations = 6;
  return o;
}

const std::vector<std::vector<int>> kStarts{{1, 1, 1}, {4, 2, 2}};

struct Fingerprint {
  std::vector<int> best;
  double best_value;
  std::string winner;
  int rounds;
  int unique_evaluations;
  std::vector<std::string> eliminated;

  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint(const PortfolioResult& r) {
  Fingerprint f{r.best, r.best_value, r.winner, r.rounds,
                r.unique_evaluations, {}};
  for (const StrategyReport& s : r.strategies) {
    if (s.eliminated) f.eliminated.push_back(s.name);
  }
  return f;
}

class TempCheckpoint {
 public:
  explicit TempCheckpoint(const std::string& tag)
      : path_((std::filesystem::temp_directory_path() /
               ("catsched_portfolio_" + tag + ".snap"))
                  .string()) {
    cleanup();
  }
  ~TempCheckpoint() { cleanup(); }
  const std::string& str() const { return path_; }

 private:
  void cleanup() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
    std::filesystem::remove(path_ + ".tmp", ec);
    std::filesystem::remove(path_ + ".prev", ec);
  }
  std::string path_;
};

}  // namespace

TEST(Portfolio, FindsTheOptimumOnTheBowl) {
  const auto res = portfolio_search(bowl, cheap_box, kStarts, small_opts());
  EXPECT_TRUE(res.found_feasible);
  EXPECT_EQ(res.best, (std::vector<int>{3, 2, 3}));
  EXPECT_FALSE(res.winner.empty());
  EXPECT_GT(res.rounds, 0);
  EXPECT_GT(res.new_evaluations, 0);
  EXPECT_EQ(res.new_evaluations, res.unique_evaluations);
  std::vector<std::string> names;
  for (const StrategyReport& s : res.strategies) names.push_back(s.name);
  EXPECT_EQ(names, (std::vector<std::string>{"hybrid:0", "hybrid:1",
                                             "pattern", "anneal", "genetic"}));
  EXPECT_EQ(res.history.size(), static_cast<std::size_t>(res.rounds));
  // The history's unique-evaluation column is the cache size after each
  // round: non-decreasing, ending at the final total.
  for (std::size_t i = 1; i < res.history.size(); ++i) {
    EXPECT_GE(res.history[i].unique_evaluations,
              res.history[i - 1].unique_evaluations);
  }
  EXPECT_EQ(res.history.back().unique_evaluations, res.unique_evaluations);
}

TEST(Portfolio, BitIdenticalAcrossThreadCounts) {
  const auto serial =
      portfolio_search(two_basins, cheap_wide, {{1, 1}, {5, 4}}, small_opts());
  for (const std::size_t threads : {1u, 2u, 4u}) {
    core::ThreadPool pool(threads);
    const auto parallel = portfolio_search(two_basins, cheap_wide,
                                           {{1, 1}, {5, 4}}, small_opts(),
                                           &pool);
    EXPECT_EQ(fingerprint(serial), fingerprint(parallel))
        << "threads = " << threads;
    ASSERT_EQ(serial.history.size(), parallel.history.size());
    for (std::size_t i = 0; i < serial.history.size(); ++i) {
      EXPECT_EQ(serial.history[i].incumbent_value,
                parallel.history[i].incumbent_value);
      EXPECT_EQ(serial.history[i].unique_evaluations,
                parallel.history[i].unique_evaluations);
    }
  }
}

TEST(Portfolio, HybridLaneMatchesStandaloneHybridSearch) {
  // With elimination off the hybrid lane runs to self-convergence along
  // the Sec. IV rule, so its lane best equals the reference walk's and the
  // portfolio can only add to it.
  PortfolioOptions opts = small_opts();
  opts.elimination_rounds = 0;
  const auto res = portfolio_search(bowl, cheap_box, kStarts, opts);

  HybridOptions hopts;
  hopts.max_value = opts.max_value;
  hopts.max_steps = opts.hybrid_max_steps;
  for (std::size_t i = 0; i < kStarts.size(); ++i) {
    const auto ref =
        testref::reference_walk(bowl, cheap_box, kStarts[i], hopts);
    const StrategyReport& lane = res.strategies[i];
    EXPECT_EQ(lane.name, "hybrid:" + std::to_string(i));
    EXPECT_EQ(lane.found_feasible, ref.found_feasible);
    EXPECT_EQ(lane.best, ref.best);
    EXPECT_EQ(lane.best_value, ref.best_value);
    EXPECT_GE(res.best_value, ref.best_value);
  }
}

TEST(Portfolio, EliminationIsDeterministicAndSparesTheIncumbent) {
  PortfolioOptions opts = small_opts();
  opts.elimination_rounds = 2;  // aggressive: force retirements
  const auto a =
      portfolio_search(two_basins, cheap_wide, {{1, 1}, {6, 5}}, opts);
  const auto b =
      portfolio_search(two_basins, cheap_wide, {{1, 1}, {6, 5}}, opts);
  EXPECT_EQ(fingerprint(a), fingerprint(b));
  // The winner (incumbent holder) can never be retired by the race.
  for (const StrategyReport& s : a.strategies) {
    if (s.name == a.winner) {
      EXPECT_FALSE(s.eliminated);
    }
  }
  // With a start pinned on the better basin's peak the race has a clear
  // incumbent; something must trail it for 2 consecutive rounds.
  bool any_eliminated = false;
  for (const StrategyReport& s : a.strategies) {
    any_eliminated = any_eliminated || s.eliminated;
  }
  EXPECT_TRUE(any_eliminated);
}

TEST(Portfolio, EvaluationCapStopsWithReason) {
  core::RunBudget budget;
  budget.set_max_evaluations(10);
  PortfolioOptions opts = small_opts();
  opts.anytime.budget = &budget;
  const auto res = portfolio_search(bowl, cheap_box, kStarts, opts);
  EXPECT_EQ(res.telemetry.stop, core::StopReason::evaluation_limit);
  const auto full = portfolio_search(bowl, cheap_box, kStarts, small_opts());
  EXPECT_LT(res.rounds, full.rounds);

  core::RunBudget dead;
  dead.request_stop();
  PortfolioOptions stopped = small_opts();
  stopped.anytime.budget = &dead;
  const auto none = portfolio_search(bowl, cheap_box, kStarts, stopped);
  EXPECT_EQ(none.telemetry.stop, core::StopReason::stop_requested);
  EXPECT_EQ(none.rounds, 0);
}

TEST(Portfolio, KillAndResumeConvergesToTheUninterruptedResult) {
  TempCheckpoint ck("resume");
  // Reference: uninterrupted, no checkpointing.
  const auto ref =
      portfolio_search(two_basins, cheap_wide, {{1, 1}, {5, 4}}, small_opts());

  // Run 1: killed by an evaluation cap mid-race, journal on disk.
  {
    core::RunBudget budget;
    budget.set_max_evaluations(12);
    PortfolioOptions opts = small_opts();
    opts.anytime.budget = &budget;
    opts.anytime.checkpoint_path = ck.str();
    opts.anytime.checkpoint_every = 4;
    const auto cut =
        portfolio_search(two_basins, cheap_wide, {{1, 1}, {5, 4}}, opts);
    EXPECT_EQ(cut.telemetry.stop, core::StopReason::evaluation_limit);
    EXPECT_GT(cut.telemetry.checkpoints_written, 0);
  }

  // Run 2: fresh process image, same inputs, resumes from the journal and
  // replays to the bit-identical uninterrupted result. Replayed points are
  // memo hits — they are not new evaluations, so even a small budget does
  // not re-fire on old ground.
  core::RunBudget budget;
  budget.set_max_evaluations(1000);
  PortfolioOptions opts = small_opts();
  opts.anytime.budget = &budget;
  opts.anytime.checkpoint_path = ck.str();
  opts.anytime.checkpoint_every = 4;
  const auto resumed =
      portfolio_search(two_basins, cheap_wide, {{1, 1}, {5, 4}}, opts);
  EXPECT_TRUE(resumed.telemetry.resumed);
  EXPECT_EQ(resumed.telemetry.stop, core::StopReason::completed);
  EXPECT_EQ(resumed.best, ref.best);
  EXPECT_EQ(resumed.best_value, ref.best_value);
  EXPECT_EQ(resumed.winner, ref.winner);
  EXPECT_EQ(resumed.rounds, ref.rounds);
  EXPECT_EQ(resumed.unique_evaluations, ref.unique_evaluations);
  // The resumed run only pays for points past the kill: strictly fewer
  // new evaluations than the uninterrupted run's total.
  EXPECT_LT(resumed.new_evaluations, ref.new_evaluations);
  EXPECT_GT(resumed.new_evaluations, 0);
}

TEST(Portfolio, ResumeIsThreadCountInvariantToo) {
  TempCheckpoint ck("resume_mt");
  {
    core::RunBudget budget;
    budget.set_max_evaluations(12);
    PortfolioOptions opts = small_opts();
    opts.anytime.budget = &budget;
    opts.anytime.checkpoint_path = ck.str();
    opts.anytime.checkpoint_every = 4;
    portfolio_search(two_basins, cheap_wide, {{1, 1}, {5, 4}}, opts);
  }
  PortfolioOptions opts = small_opts();
  opts.anytime.checkpoint_path = ck.str();
  core::ThreadPool pool(4);
  const auto parallel = portfolio_search(two_basins, cheap_wide,
                                         {{1, 1}, {5, 4}}, opts, &pool);
  const auto ref =
      portfolio_search(two_basins, cheap_wide, {{1, 1}, {5, 4}}, small_opts());
  EXPECT_TRUE(parallel.telemetry.resumed);
  EXPECT_EQ(parallel.best, ref.best);
  EXPECT_EQ(parallel.best_value, ref.best_value);
  EXPECT_EQ(parallel.rounds, ref.rounds);
  EXPECT_EQ(parallel.unique_evaluations, ref.unique_evaluations);
}

TEST(Portfolio, RejectsBadStarts) {
  EXPECT_THROW(portfolio_search(bowl, cheap_box, {}, small_opts()),
               std::invalid_argument);
  EXPECT_THROW(portfolio_search(bowl, cheap_box, {{9, 9, 9}}, small_opts()),
               std::invalid_argument);
}

// ------------------------------------------------- individual drivers
//
// Each driver races alone through the shared runner (race_drivers). The
// stochastic properties are asserted for every seed of kSeeds, not for one
// hand-picked seed.

namespace {

const std::vector<std::uint64_t> kSeeds{1, 2, 3, 4, 5, 6, 7, 8};

bool cheap_all(const std::vector<int>&) { return true; }

/// Smooth unimodal bowl with maximum 1.0 at (5, 7).
EvalOutcome bowl57(const std::vector<int>& m) {
  const double d0 = m[0] - 5.0;
  const double d1 = m[1] - 7.0;
  return EvalOutcome{1.0 - 0.01 * (d0 * d0 + d1 * d1), true};
}

/// Feasible wedge m0 + m1 <= 9: excludes bowl57's optimum. The best wedge
/// points, (3,6) and (4,5), both score 1 - 0.01 * 5.
bool wedge(const std::vector<int>& m) { return m[0] + m[1] <= 9; }
constexpr double kWedgeBest = 1.0 - 0.01 * 5.0;

/// Rugged landscape: global max 10 at (8,8); planted local max 2 at (2,2)
/// whose neighbors all score below it (greedy from (2,2) is stuck, but the
/// barrier is shallow enough for a warm annealer to cross).
EvalOutcome rugged(const std::vector<int>& m) {
  double v = 10.0 - std::abs(m[0] - 8.0) - std::abs(m[1] - 8.0);
  if (m[0] == 2 && m[1] == 2) v += 4.0;
  return EvalOutcome{v, true};
}

/// Points with m0 in {4,5,6} are control-infeasible (eq. (3)) but sit on
/// the only path from (1,7) to the optimum at (9,7).
EvalOutcome gap(const std::vector<int>& m) {
  const bool ok = m[0] < 4 || m[0] > 6;
  return EvalOutcome{
      1.0 - 0.02 * std::abs(m[0] - 9.0) - 0.02 * std::abs(m[1] - 7.0), ok};
}

/// Race one driver alone: no elimination, and a round cap the drivers'
/// own budgets always reach first.
PortfolioResult race_alone(SearchDriver& driver, EvalCache& cache) {
  PortfolioOptions o;
  o.max_rounds = 100000;
  o.elimination_rounds = 0;
  return race_drivers({&driver}, cache, o);
}

PortfolioResult race_alone(const std::unique_ptr<SearchDriver>& driver,
                           const DiscreteObjective& objective) {
  EvalCache cache(objective);
  return race_alone(*driver, cache);
}

/// Classic sequential annealing (one proposal per round), so the walk may
/// move on every proposal while it is still warm.
AnnealDriverOptions anneal_opts(std::uint64_t seed, int iterations,
                                double temperature, double cooling) {
  AnnealDriverOptions o;
  o.batch = 1;
  o.seed = seed;
  o.iterations = iterations;
  o.initial_temperature = temperature;
  o.cooling = cooling;
  return o;
}

GeneticDriverOptions genetic_opts(std::uint64_t seed, int population,
                                  int generations, int max_value) {
  GeneticDriverOptions o;
  o.seed = seed;
  o.population = population;
  o.generations = generations;
  o.max_value = max_value;
  return o;
}

}  // namespace

TEST(SearchDriver, PatternDriverContractsToTheOptimum) {
  auto drv = make_pattern_driver("pattern", cheap_box, {1, 1, 1},
                                 PatternDriverOptions{4, 1, 8, 100});
  const auto res = race_alone(drv, bowl);
  EXPECT_TRUE(drv->finished());
  EXPECT_TRUE(res.found_feasible);
  EXPECT_EQ(res.best, (std::vector<int>{3, 2, 3}));
}

TEST(SearchDriver, StochasticDriversAreSeedDeterministic) {
  // Serial evaluation reaches the objective with first-seen points in
  // proposal order; with the round and proposal counts that fingerprints
  // the proposal stream.
  const auto run = [&](const std::unique_ptr<SearchDriver>& drv) {
    std::vector<std::vector<int>> journal;
    EvalCache cache([&journal](const std::vector<int>& p) {
      journal.push_back(p);
      return two_basins(p);
    });
    const auto res = race_alone(*drv, cache);
    return std::make_tuple(journal, res.best, res.rounds, drv->proposals());
  };
  for (const std::uint64_t seed : kSeeds) {
    AnnealDriverOptions sa;  // default batch: several proposals per round
    sa.iterations = 24;
    sa.max_value = 8;
    sa.seed = seed;
    EXPECT_EQ(run(make_anneal_driver("sa", cheap_wide, {2, 2}, sa)),
              run(make_anneal_driver("sa", cheap_wide, {2, 2}, sa)))
        << "seed " << seed;
    const GeneticDriverOptions ga = genetic_opts(seed, 6, 4, 8);
    EXPECT_EQ(run(make_genetic_driver("ga", cheap_wide, 2, ga)),
              run(make_genetic_driver("ga", cheap_wide, 2, ga)))
        << "seed " << seed;
  }
}

TEST(SearchDriver, AnnealAndGeneticConvergeOnTheBowl) {
  for (const std::uint64_t seed : kSeeds) {
    const auto sa = race_alone(
        make_anneal_driver("sa", cheap_all, {1, 1},
                           anneal_opts(seed, 600, 0.05, 0.97)),
        bowl57);
    ASSERT_TRUE(sa.found_feasible) << "seed " << seed;
    EXPECT_EQ(sa.best, (std::vector<int>{5, 7})) << "seed " << seed;
    EXPECT_NEAR(sa.best_value, 1.0, 1e-12);

    const auto ga = race_alone(
        make_genetic_driver("ga", cheap_all, 2, genetic_opts(seed, 16, 30, 16)),
        bowl57);
    ASSERT_TRUE(ga.found_feasible) << "seed " << seed;
    EXPECT_EQ(ga.best, (std::vector<int>{5, 7})) << "seed " << seed;
  }
}

TEST(SearchDriver, AnnealAndGeneticRespectTheCheapWedge) {
  const auto check = [](const std::unique_ptr<SearchDriver>& drv,
                        std::uint64_t seed) {
    std::vector<std::vector<int>> evaluated;
    EvalCache cache([&evaluated](const std::vector<int>& p) {
      evaluated.push_back(p);
      return bowl57(p);
    });
    const auto res = race_alone(*drv, cache);
    ASSERT_TRUE(res.found_feasible) << drv->name() << " seed " << seed;
    EXPECT_NEAR(res.best_value, kWedgeBest, 1e-12)
        << drv->name() << " seed " << seed;
    // Every proposal, not only the best, is cheap-feasible.
    for (const auto& p : evaluated) {
      EXPECT_TRUE(wedge(p)) << drv->name() << " seed " << seed;
    }
  };
  for (const std::uint64_t seed : kSeeds) {
    check(make_anneal_driver("sa", wedge, {1, 1},
                             anneal_opts(seed, 800, 0.05, 0.97)),
          seed);
    check(make_genetic_driver("ga", wedge, 2, genetic_opts(seed, 16, 25, 16)),
          seed);
  }
}

TEST(SearchDriver, AnnealCrossesTheInfeasibleGapWithoutChoosingIt) {
  for (const std::uint64_t seed : kSeeds) {
    AnnealDriverOptions o = anneal_opts(seed, 2000, 1.0, 0.9995);
    o.max_value = 12;
    bool crossed = false;
    EvalCache cache([&crossed](const std::vector<int>& p) {
      const EvalOutcome out = gap(p);
      crossed = crossed || !out.feasible;
      return out;
    });
    auto drv = make_anneal_driver("sa", cheap_all, {1, 7}, o);
    const auto res = race_alone(*drv, cache);
    ASSERT_TRUE(res.found_feasible) << "seed " << seed;
    EXPECT_EQ(res.best, (std::vector<int>{9, 7})) << "seed " << seed;
    // The walk did evaluate gap points on its way across.
    EXPECT_TRUE(crossed) << "seed " << seed;
  }
}

TEST(SearchDriver, AnnealEscapesThePlantedPeakOnlyWhenWarm) {
  for (const std::uint64_t seed : kSeeds) {
    const auto warm = race_alone(
        make_anneal_driver("sa", cheap_all, {2, 2},
                           anneal_opts(seed, 1500, 2.0, 0.998)),
        rugged);
    EXPECT_EQ(warm.best, (std::vector<int>{8, 8})) << "seed " << seed;

    // Zero temperature accepts no worsening move: the planted peak, whose
    // every neighbor scores lower, holds the walk.
    const auto cold = race_alone(
        make_anneal_driver("sa", cheap_all, {2, 2},
                           anneal_opts(seed, 400, 0.0, 0.97)),
        rugged);
    EXPECT_EQ(cold.best, (std::vector<int>{2, 2})) << "seed " << seed;
    EXPECT_EQ(cold.best_value, 2.0);
  }
}

TEST(SearchDriver, GeneticFindsTheGlobalPeakOnTheRuggedLandscape) {
  for (const std::uint64_t seed : kSeeds) {
    const auto res = race_alone(
        make_genetic_driver("ga", cheap_all, 2, genetic_opts(seed, 20, 25, 12)),
        rugged);
    EXPECT_EQ(res.best, (std::vector<int>{8, 8})) << "seed " << seed;
  }
}

TEST(SearchDriver, RejectsBadStartsAndDegenerateArguments) {
  const auto none = [](const std::vector<int>&) { return false; };
  const AnnealDriverOptions sa;
  EXPECT_THROW(make_anneal_driver("sa", cheap_all, {}, sa),
               std::invalid_argument);
  EXPECT_THROW(make_anneal_driver("sa", cheap_all, {0, 5}, sa),
               std::invalid_argument);
  EXPECT_THROW(make_anneal_driver("sa", none, {1, 1}, sa),
               std::invalid_argument);

  GeneticDriverOptions ga;
  EXPECT_THROW(make_genetic_driver("ga", cheap_all, 0, ga),
               std::invalid_argument);
  ga.population = 1;
  EXPECT_THROW(make_genetic_driver("ga", cheap_all, 2, ga),
               std::invalid_argument);
}

TEST(SearchDriver, GeneticThrowsWhenNoFeasibleIndividualExists) {
  // Not even the all-min backstop passes the filter: proposing it would
  // break the "proposals are cheap-feasible" contract.
  const auto none = [](const std::vector<int>&) { return false; };
  EXPECT_THROW(make_genetic_driver("ga", none, 2, {}), std::runtime_error);
  const auto not_min = [](const std::vector<int>& m) { return m[0] == 7; };
  GeneticDriverOptions tight;
  tight.max_repair_tries = 1;
  EXPECT_THROW(make_genetic_driver("ga", not_min, 2, tight),
               std::runtime_error);
}

TEST(SearchDriver, SharedCacheChargesOnlyNewPoints) {
  // Two annealing races through one cache: the second pays only for points
  // the first did not visit (the paper's evaluation accounting).
  for (const std::uint64_t seed : kSeeds) {
    EvalCache cache(bowl57);
    auto first = make_anneal_driver("sa", cheap_all, {1, 1},
                                    anneal_opts(seed, 300, 0.05, 0.97));
    const auto r1 = race_alone(*first, cache);
    EXPECT_EQ(r1.new_evaluations, cache.unique_evaluations());
    const int after_first = cache.unique_evaluations();
    auto second = make_anneal_driver("sa", cheap_all, {1, 1},
                                     anneal_opts(seed + 100, 300, 0.05, 0.97));
    const auto r2 = race_alone(*second, cache);
    EXPECT_EQ(cache.unique_evaluations(), after_first + r2.new_evaluations);
    EXPECT_EQ(r2.unique_evaluations, cache.unique_evaluations());
    EXPECT_LE(r2.new_evaluations, after_first)
        << "seed " << seed;  // heavy reuse on the same bowl
  }
}
