// Unit tests for the optimizer substrate: PSO, pattern search, the hybrid
// discrete search (paper Sec. IV) — including a seeded differential of the
// searches' hybrid walks against a plain reference walk — and exhaustive
// enumeration.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "core/parallel.hpp"
#include "opt/discrete_search.hpp"
#include "opt/pattern_search.hpp"
#include "opt/portfolio.hpp"
#include "opt/pso.hpp"
#include "reference_walk.hpp"
#include "testgen/rng.hpp"

using namespace catsched::opt;

namespace {

// Exact objectives: they ignore the bound, which the Objective contract
// allows.
double sphere(const std::vector<double>& x, double /*bound*/) {
  double s = 0.0;
  for (double v : x) s += (v - 1.5) * (v - 1.5);
  return s;
}

double rosenbrock(const std::vector<double>& x, double /*bound*/) {
  double s = 0.0;
  for (std::size_t i = 0; i + 1 < x.size(); ++i) {
    s += 100.0 * std::pow(x[i + 1] - x[i] * x[i], 2) + std::pow(1 - x[i], 2);
  }
  return s;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

}  // namespace

// ------------------------------------------------------------------- PSO

TEST(Pso, SolvesSphere) {
  PsoOptions opts;
  opts.particles = 30;
  opts.iterations = 120;
  opts.seed = 42;
  const auto res = pso_minimize(sphere, {-5, -5, -5}, {5, 5, 5}, opts);
  EXPECT_LT(res.cost, 1e-4);
  for (double v : res.x) EXPECT_NEAR(v, 1.5, 0.05);
  EXPECT_GT(res.evaluations, 0);
}

TEST(Pso, DeterministicForFixedSeed) {
  PsoOptions opts;
  opts.particles = 20;
  opts.iterations = 30;
  opts.seed = 9;
  const auto a = pso_minimize(rosenbrock, {-2, -2}, {2, 2}, opts);
  const auto b = pso_minimize(rosenbrock, {-2, -2}, {2, 2}, opts);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.x, b.x);
  opts.seed = 10;
  const auto c = pso_minimize(rosenbrock, {-2, -2}, {2, 2}, opts);
  // Different seed almost surely explores differently.
  EXPECT_NE(a.x, c.x);
}

TEST(Pso, SeedsRespectedAndClamped) {
  PsoOptions opts;
  opts.particles = 5;
  opts.iterations = 0;  // only the initial evaluation
  opts.seed = 1;
  // One seed exactly at the optimum: with zero iterations the best must be
  // that seed.
  const auto res =
      pso_minimize(sphere, {-5, -5}, {5, 5}, opts, {{1.5, 1.5}, {9.0, 0.0}});
  EXPECT_LT(res.cost, 1e-20);
  EXPECT_THROW(
      pso_minimize(sphere, {-5, -5}, {5, 5}, opts, {{1.0}}),  // wrong dim
      std::invalid_argument);
}

TEST(Pso, RejectsBadBounds) {
  EXPECT_THROW(pso_minimize(sphere, {}, {}, PsoOptions{}),
               std::invalid_argument);
  EXPECT_THROW(pso_minimize(sphere, {1.0}, {-1.0}, PsoOptions{}),
               std::invalid_argument);
}

// --------------------------------------------------------- pattern search

TEST(PatternSearch, PolishesToLocalMinimum) {
  const auto res = pattern_search(sphere, {0.0, 0.0});
  EXPECT_LT(res.cost, 1e-6);
  EXPECT_NEAR(res.x[0], 1.5, 1e-3);
}

TEST(PatternSearch, DeterministicAndBounded) {
  PatternSearchOptions opts;
  opts.max_evaluations = 100;
  const auto a = pattern_search(rosenbrock, {-1.0, 1.0}, opts);
  const auto b = pattern_search(rosenbrock, {-1.0, 1.0}, opts);
  EXPECT_EQ(a.x, b.x);
  EXPECT_LE(a.evaluations, 100);
  EXPECT_THROW(pattern_search(sphere, {}), std::invalid_argument);
}

TEST(PatternSearch, BoundedObjectiveKeepsEveryBit) {
  // The weakest objective the contract allows: exact below the bound, and
  // bound + 1e6 (or +infinity) at or above it. The search bounds each
  // candidate by the incumbent it is compared against, so x, cost and the
  // evaluation count must not change by a bit.
  using Fn = double (*)(const std::vector<double>&, double);
  const std::vector<std::pair<Fn, std::vector<double>>> cases = {
      {sphere, {0.0, 0.0, 0.3}}, {rosenbrock, {-1.0, 1.0}}};
  for (const auto& [f, x0] : cases) {
    PatternSearchOptions opts;
    opts.max_evaluations = 600;
    const PatternSearchResult exact = pattern_search(f, x0, opts);
    for (const double beyond :
         {1e6, std::numeric_limits<double>::infinity()}) {
      int cut = 0;
      const Objective adversarial = [&](const std::vector<double>& x,
                                        double bound) {
        const double c = f(x, bound);
        if (c < bound) return c;
        ++cut;
        return bound + beyond;
      };
      const PatternSearchResult got = pattern_search(adversarial, x0, opts);
      ASSERT_EQ(got.x.size(), exact.x.size());
      for (std::size_t i = 0; i < got.x.size(); ++i) {
        EXPECT_EQ(bits(got.x[i]), bits(exact.x[i])) << i;
      }
      EXPECT_EQ(bits(got.cost), bits(exact.cost));
      EXPECT_EQ(got.evaluations, exact.evaluations);
      EXPECT_GT(cut, 0);  // the bounded path was taken
    }
  }
}

// ----------------------------------------------------------- EvalCache

TEST(EvalCache, CountsUniqueEvaluations) {
  int calls = 0;
  EvalCache cache([&calls](const std::vector<int>& p) {
    ++calls;
    return EvalOutcome{static_cast<double>(p[0]), true};
  });
  const std::vector<int> one{1};
  const std::vector<int> two{2};
  for (const std::vector<int>* p : {&one, &one, &two}) {
    cache.evaluate_batch({p}, {nullptr}, nullptr);
  }
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(cache.unique_evaluations(), 2);
}

// --------------------------------------------------------- hybrid search

namespace {

/// Quadratic bowl over integers with optimum at (3, 2, 3); feasible region
/// m_i in [1, 6] componentwise (monotone / downward closed).
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

}  // namespace

TEST(HybridSearch, ClimbsToOptimumFromBothPaperStarts) {
  HybridOptions opts;
  opts.max_value = 8;
  for (const std::vector<int>& start : {std::vector<int>{4, 2, 2}, {1, 2, 1}}) {
    EvalCache cache(bowl);
    const auto res = hybrid_search(cache, cheap_box, start, opts);
    EXPECT_TRUE(res.found_feasible);
    EXPECT_EQ(res.best, (std::vector<int>{3, 2, 3})) << "start " << start[0];
    EXPECT_GT(res.new_evaluations, 0);
  }
}

TEST(HybridSearch, MemoSharedAcrossStarts) {
  const auto ms = hybrid_search_multistart(bowl, cheap_box,
                                           {{4, 2, 2}, {1, 2, 1}}, {});
  EXPECT_TRUE(ms.combined.found_feasible);
  EXPECT_EQ(ms.combined.best, (std::vector<int>{3, 2, 3}));
  // Shared memo: total unique evaluations < sum of independent runs.
  int sum_runs = 0;
  for (const auto& r : ms.runs) sum_runs += r.new_evaluations;
  EXPECT_EQ(ms.unique_evaluations, sum_runs);
  EXPECT_LT(ms.unique_evaluations, 2 * 30);
}

TEST(HybridSearch, ToleranceEscapesLocalOptimum) {
  // 1-D landscape with a dip: f(1)=0.5, f(2)=0.49, f(3)=0.8. Plain greedy
  // from 1 stays; tolerance 0.02 crosses the dip.
  auto f = [](const std::vector<int>& m) {
    const double vals[] = {0.0, 0.5, 0.49, 0.8, 0.1};
    return EvalOutcome{vals[std::min(m[0], 4)], true};
  };
  auto cheap = [](const std::vector<int>& m) { return m[0] <= 4; };
  HybridOptions greedy;
  greedy.tolerance = 0.0;
  greedy.max_value = 4;
  EvalCache c1(f);
  const auto r1 = hybrid_search(c1, cheap, {1}, greedy);
  // Greedy sees f(2) < f(1) beyond tolerance: cannot move; but it still
  // *evaluated* the neighbors, so best-seen may include them. The path
  // must not have left the start.
  EXPECT_EQ(r1.path.size(), 1u);

  HybridOptions tol;
  tol.tolerance = 0.02;
  tol.max_value = 4;
  EvalCache c2(f);
  const auto r2 = hybrid_search(c2, cheap, {1}, tol);
  EXPECT_EQ(r2.best, (std::vector<int>{3}));
  EXPECT_GE(r2.path.size(), 3u);
}

TEST(HybridSearch, SkipsControlInfeasibleMoves) {
  // The point (2) is control-infeasible; search from (1) must still reach
  // (3) only if tolerance lets it... with (2) infeasible it cannot pass.
  auto f = [](const std::vector<int>& m) {
    const double vals[] = {0.0, 0.5, 0.9, 0.8};
    return EvalOutcome{vals[std::min(m[0], 3)], m[0] != 2};
  };
  auto cheap = [](const std::vector<int>& m) { return m[0] <= 3; };
  HybridOptions opts;
  opts.max_value = 3;
  EvalCache cache(f);
  const auto res = hybrid_search(cache, cheap, {1}, opts);
  // best-seen tracks only feasible points.
  EXPECT_EQ(res.best, (std::vector<int>{1}));
  for (const auto& p : res.path) EXPECT_NE(p[0], 2);
}

TEST(HybridSearch, BudgetIsChargedEveryMissIncludingTheStart) {
  // The budget sees exactly the memo misses the run won — the start point's
  // included — so an evaluation cap cannot overshoot by one per start.
  catsched::core::RunBudget budget;
  HybridOptions opts;
  opts.max_value = 8;
  opts.anytime.budget = &budget;
  EvalCache cache(bowl);
  const auto res = hybrid_search(cache, cheap_box, {1, 2, 1}, opts);
  EXPECT_EQ(res.telemetry.stop, catsched::core::StopReason::completed);
  EXPECT_GT(res.new_evaluations, 0);
  EXPECT_EQ(budget.evaluations(),
            static_cast<std::uint64_t>(res.new_evaluations));
}

TEST(HybridSearch, RejectsInfeasibleStart) {
  EvalCache cache(bowl);
  EXPECT_THROW(hybrid_search(cache, cheap_box, {9, 9, 9}, {}),
               std::invalid_argument);
  EXPECT_THROW(hybrid_search(cache, cheap_box, {}, {}),
               std::invalid_argument);
}

// ------------------------------------------- hybrid walk vs. reference

namespace {

/// A seeded landscape over [1, 6]^dims (2-4 dims): values on a 1/32 grid,
/// noise plus a bowl toward a random peak whose slope is 0 (a rough
/// plateau), 1 or 2 grid steps per unit, so gradients tie often (the move
/// order decides) and single-grid drops sit inside a 0.05 tolerance while
/// double ones do not; about one point in eight is control-infeasible.
struct Landscape {
  static constexpr int kHi = 6;
  std::size_t dims = 0;
  std::vector<EvalOutcome> table;

  EvalOutcome operator()(const std::vector<int>& m) const {
    std::size_t index = 0;
    for (int v : m) index = index * kHi + static_cast<std::size_t>(v - 1);
    return table[index];
  }

  /// Cheap wedge: the coordinate sum is capped, cutting the box diagonal.
  bool wedge(const std::vector<int>& m) const {
    int sum = 0;
    for (int v : m) sum += v;
    return sum <= 3 * static_cast<int>(dims) + 3;
  }
};

Landscape draw_landscape(std::uint64_t seed) {
  catsched::testgen::SplitMix64 rng(seed);
  Landscape land;
  land.dims = 2 + rng.index(3);
  std::vector<int> peak(land.dims);
  for (int& v : peak) v = static_cast<int>(rng.range(1, Landscape::kHi));
  const int slope = static_cast<int>(rng.range(0, 2));
  std::size_t points = 1;
  for (std::size_t i = 0; i < land.dims; ++i) points *= Landscape::kHi;
  land.table.resize(points);
  for (std::size_t index = 0; index < points; ++index) {
    int dist = 0;
    std::size_t rest = index;
    for (std::size_t i = land.dims; i-- > 0;) {
      const int v = 1 + static_cast<int>(rest % Landscape::kHi);
      rest /= Landscape::kHi;
      dist += std::abs(v - peak[i]);
    }
    const double value =
        static_cast<double>(rng.range(0, 4) - slope * dist) / 32.0;
    land.table[index] = EvalOutcome{value, !rng.chance(0.125)};
  }
  return land;
}

/// Three starts inside the wedge: the low corner and two random points.
std::vector<std::vector<int>> draw_starts(const Landscape& land,
                                          std::uint64_t seed) {
  catsched::testgen::SplitMix64 rng(seed ^ 0x5EEDu);
  std::vector<std::vector<int>> starts{std::vector<int>(land.dims, 1)};
  while (starts.size() < 3) {
    std::vector<int> p(land.dims);
    for (int& v : p) v = static_cast<int>(rng.range(1, Landscape::kHi));
    if (land.wedge(p)) starts.push_back(p);
  }
  return starts;
}

void expect_walk(const catsched::testref::ReferenceWalk& ref,
                 const std::vector<std::vector<int>>& path, int steps,
                 const std::vector<int>& best, double best_value,
                 bool found_feasible, const std::string& where) {
  EXPECT_EQ(path, ref.path) << where;
  EXPECT_EQ(steps, ref.steps) << where;
  EXPECT_EQ(found_feasible, ref.found_feasible) << where;
  EXPECT_EQ(best, ref.best) << where;
  EXPECT_EQ(bits(best_value), bits(ref.best_value)) << where;
}

}  // namespace

TEST(HybridReference, SearchesWalkTheReferenceRuleAtEveryThreadCount) {
  std::vector<std::unique_ptr<catsched::core::ThreadPool>> pools;
  pools.push_back(nullptr);  // serial
  for (const std::size_t threads : {1u, 2u, 4u}) {
    pools.push_back(std::make_unique<catsched::core::ThreadPool>(threads));
  }
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const Landscape land = draw_landscape(seed);
    const DiscreteObjective f = [&land](const std::vector<int>& m) {
      return land(m);
    };
    const CheapFeasible cheap = [&land](const std::vector<int>& m) {
      return land.wedge(m);
    };
    const std::vector<std::vector<int>> starts = draw_starts(land, seed);
    for (const double tolerance : {0.0, 0.05}) {
      HybridOptions opts;
      opts.tolerance = tolerance;
      opts.max_value = Landscape::kHi;
      std::vector<catsched::testref::ReferenceWalk> refs;
      for (const auto& start : starts) {
        refs.push_back(catsched::testref::reference_walk(f, cheap, start,
                                                         opts));
      }
      for (std::size_t t = 0; t < pools.size(); ++t) {
        catsched::core::ThreadPool* pool = pools[t].get();
        const std::string tag = "seed " + std::to_string(seed) + " tol " +
                                std::to_string(tolerance) + " pool " +
                                std::to_string(t);
        for (std::size_t i = 0; i < starts.size(); ++i) {
          EvalCache cache(f);
          const HybridResult solo =
              hybrid_search(cache, cheap, starts[i], opts, pool);
          expect_walk(refs[i], solo.path, solo.steps, solo.best,
                      solo.best_value, solo.found_feasible,
                      tag + " hybrid_search start " + std::to_string(i));
        }
        const MultiStartResult ms =
            hybrid_search_multistart(f, cheap, starts, opts, pool);
        for (std::size_t i = 0; i < starts.size(); ++i) {
          const HybridResult& run = ms.runs[i];
          expect_walk(refs[i], run.path, run.steps, run.best, run.best_value,
                      run.found_feasible,
                      tag + " multistart run " + std::to_string(i));
        }

        // The portfolio's roster: one hybrid lane per start racing the
        // other strategies on one cache, elimination off.
        PortfolioOptions popts;
        popts.max_value = Landscape::kHi;
        popts.tolerance = tolerance;
        popts.elimination_rounds = 0;
        popts.anneal.iterations = 16;
        popts.genetic.population = 6;
        popts.genetic.generations = 3;
        std::vector<std::unique_ptr<SearchDriver>> roster;
        for (std::size_t i = 0; i < starts.size(); ++i) {
          roster.push_back(std::make_unique<HybridDriver>(
              "hybrid:" + std::to_string(i), cheap, starts[i], opts));
        }
        BeamDriverOptions beam;
        beam.max_value = Landscape::kHi;
        roster.push_back(make_beam_driver("beam", cheap, starts[0], beam));
        AnnealDriverOptions anneal = popts.anneal;
        anneal.max_value = Landscape::kHi;
        roster.push_back(
            make_anneal_driver("anneal", cheap, starts[0], anneal));
        GeneticDriverOptions genetic = popts.genetic;
        genetic.max_value = Landscape::kHi;
        roster.push_back(
            make_genetic_driver("genetic", cheap, land.dims, genetic));
        std::vector<SearchDriver*> drivers;
        for (const auto& d : roster) drivers.push_back(d.get());
        EvalCache shared(f);
        race_drivers(drivers, shared, popts, pool);
        for (std::size_t i = 0; i < starts.size(); ++i) {
          const auto& lane = static_cast<const HybridDriver&>(*roster[i]);
          expect_walk(refs[i], lane.path(), lane.steps(), lane.best(),
                      lane.best_value(), lane.found_feasible(),
                      tag + " raced lane " + std::to_string(i));
        }
        const PortfolioResult pf =
            portfolio_search(f, cheap, starts, popts, pool);
        for (std::size_t i = 0; i < starts.size(); ++i) {
          const StrategyReport& lane = pf.strategies[i];
          EXPECT_EQ(lane.best, refs[i].best) << tag << " portfolio lane " << i;
          EXPECT_EQ(bits(lane.best_value), bits(refs[i].best_value))
              << tag << " portfolio lane " << i;
        }
      }
    }
  }
}

// ------------------------------------------------------------ exhaustive

TEST(Exhaustive, EnumeratesDownwardClosedRegion) {
  auto cheap = [](const std::vector<int>& m) { return m[0] + m[1] <= 4; };
  HybridOptions opts;
  opts.max_value = 10;
  const auto pts = enumerate_feasible(cheap, 2, opts);
  // {1,1},{1,2},{1,3},{2,1},{2,2},{3,1}
  EXPECT_EQ(pts.size(), 6u);
  EXPECT_THROW(enumerate_feasible(cheap, 0, opts), std::invalid_argument);
}

TEST(Exhaustive, FindsGlobalOptimumAndCounts) {
  const auto res = exhaustive_search(bowl, cheap_box, 3, HybridOptions{});
  EXPECT_TRUE(res.found_feasible);
  EXPECT_EQ(res.best, (std::vector<int>{3, 2, 3}));
  EXPECT_NEAR(res.best_value, 1.0, 1e-12);
  EXPECT_EQ(res.enumerated, static_cast<int>(res.all.size()));
  EXPECT_EQ(res.control_feasible, res.enumerated);  // all feasible here
}

TEST(Exhaustive, LargeRegionIsNeverCutByTheRoundCap) {
  // 300 x 300 = 90000 points = 352 blocks, past the default round cap
  // of the shared round loop: every block must still be reduced.
  const auto flat = [](const std::vector<int>& m) {
    return EvalOutcome{-0.001 * m[0] - 0.002 * m[1], true};
  };
  const auto all = [](const std::vector<int>&) { return true; };
  HybridOptions opts;
  opts.max_value = 300;
  const auto res = exhaustive_search(flat, all, 2, opts);
  EXPECT_EQ(res.enumerated, 300 * 300);
  EXPECT_EQ(res.unique_evaluations, res.enumerated);
  EXPECT_EQ(res.telemetry.stop, catsched::core::StopReason::completed);
  EXPECT_EQ(res.best, (std::vector<int>{1, 1}));
  EXPECT_EQ(res.all.back().first, (std::vector<int>{300, 300}));
}

TEST(Exhaustive, HybridNeedsFewerEvaluationsThanExhaustive) {
  // The paper's headline efficiency claim on a synthetic landscape.
  const auto ex = exhaustive_search(bowl, cheap_box, 3, HybridOptions{});
  const auto ms = hybrid_search_multistart(bowl, cheap_box, {{4, 2, 2}}, {});
  EXPECT_LT(ms.unique_evaluations, ex.enumerated / 2);
  EXPECT_EQ(ms.combined.best, ex.best);
}
