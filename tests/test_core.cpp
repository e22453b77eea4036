// Integration tests: the full two-stage co-design pipeline on the paper's
// case study and on reduced synthetic systems.

#include <gtest/gtest.h>

#include <cmath>

#include "core/case_study.hpp"
#include "core/codesign.hpp"
#include "core/evaluator.hpp"

using namespace catsched;
using namespace catsched::core;

namespace {

/// Cheap design options so integration tests stay fast; determinism makes
/// the assertions stable.
control::DesignOptions fast_options() {
  control::DesignOptions o = date18_design_options();
  o.pso.particles = 12;
  o.pso.iterations = 20;
  o.pso.stall_iterations = 8;
  o.pso_restarts = 1;
  o.scale_budget_with_dims = false;
  return o;
}

/// A reduced two-app synthetic system (small programs, fast plants).
SystemModel tiny_system() {
  SystemModel sys;
  sys.cache_config = date18_cache_config();
  const std::size_t sets = sys.cache_config.num_sets();

  auto make_app = [&](const char* name, std::size_t singles,
                      std::size_t groups, std::uint64_t base, double w0,
                      double weight) {
    Application a;
    a.name = name;
    cache::CalibratedLayout lay;
    lay.singleton_lines = singles;
    lay.conflict_group_sizes.assign(groups, 2);
    lay.extra_hit_fetches = 10;
    a.program = cache::make_calibrated_program(name, lay, sets, base);
    control::ContinuousLTI p;
    p.a = linalg::Matrix{{0.0, 1.0}, {-w0 * w0, -0.4 * w0}};
    p.b = linalg::Matrix{{0.0}, {3.0e6}};
    p.c = linalg::Matrix{{1.0, 0.0}};
    a.plant = p;
    a.weight = weight;
    a.smax = 25e-3;
    a.tidle = 9e-3;
    a.umax = 80.0;
    a.r = 1000.0;
    a.y0 = 0.0;
    return a;
  };
  sys.apps = {make_app("A", 100, 16, 0, 110.0, 0.6),
              make_app("B", 90, 22, 1024, 140.0, 0.4)};
  return sys;
}

}  // namespace

TEST(SystemModel, ValidatesWeights) {
  SystemModel sys = tiny_system();
  sys.apps[0].weight = 0.9;  // sum != 1
  EXPECT_THROW(sys.validate(), std::invalid_argument);
  sys = tiny_system();
  sys.apps.clear();
  EXPECT_THROW(sys.validate(), std::invalid_argument);
}

TEST(Evaluator, MemoizesPerAppDesigns) {
  Evaluator ev(tiny_system(), fast_options());
  ev.evaluate(sched::PeriodicSchedule({1, 1}));
  const int first = ev.designs_run();
  EXPECT_EQ(first, 2);
  // Same schedule again: all memo hits.
  ev.evaluate(sched::PeriodicSchedule({1, 1}));
  EXPECT_EQ(ev.designs_run(), first);
  EXPECT_EQ(ev.design_requests(), 4);
  // A schedule changing only app B's burst leaves app A's timing intact?
  // No: B's burst extends A's idle gap, so both redesign. But switching
  // back re-uses the memo.
  ev.evaluate(sched::PeriodicSchedule({1, 2}));
  const int after = ev.designs_run();
  ev.evaluate(sched::PeriodicSchedule({1, 1}));
  EXPECT_EQ(ev.designs_run(), after);
}

TEST(Evaluator, PallIsWeightedSum) {
  Evaluator ev(tiny_system(), fast_options());
  const auto r = ev.evaluate(sched::PeriodicSchedule({2, 2}));
  ASSERT_EQ(r.apps.size(), 2u);
  const double expect =
      0.6 * r.apps[0].performance + 0.4 * r.apps[1].performance;
  EXPECT_NEAR(r.pall, expect, 1e-12);
  for (const auto& app : r.apps) {
    EXPECT_NEAR(app.performance, 1.0 - app.settling_time / 25e-3, 1e-12);
  }
}

TEST(Evaluator, IdleFeasibilityMatchesTiming) {
  Evaluator ev(tiny_system(), fast_options());
  EXPECT_TRUE(ev.idle_feasible(sched::PeriodicSchedule({1, 1})));
  // Huge bursts must eventually violate the other app's idle bound.
  EXPECT_FALSE(ev.idle_feasible(sched::PeriodicSchedule({60, 1})));
}

TEST(Evaluator, InterleavedScheduleEvaluates) {
  Evaluator ev(tiny_system(), fast_options());
  sched::InterleavedSchedule s({{0, 1}, {1, 1}, {0, 2}, {1, 1}}, 2);
  const auto r = ev.evaluate(s);
  EXPECT_EQ(r.apps.size(), 2u);
  EXPECT_EQ(r.timing.apps[0].intervals.size(), 3u);
  EXPECT_TRUE(std::isfinite(r.pall));
}

TEST(Codesign, HybridFindsFeasibleSchedule) {
  Evaluator ev(tiny_system(), fast_options());
  opt::HybridOptions hopts;
  hopts.tolerance = 0.01;
  const auto res = find_optimal_schedule(ev, {{1, 1}}, hopts);
  ASSERT_TRUE(res.found);
  EXPECT_TRUE(res.best_evaluation.feasible());
  EXPECT_GT(res.schedules_evaluated, 0);
}

TEST(Codesign, ExhaustiveDominatesHybridStart) {
  Evaluator ev(tiny_system(), fast_options());
  opt::HybridOptions hopts;
  hopts.max_value = 6;
  const auto ex = exhaustive_codesign(ev, hopts);
  ASSERT_TRUE(ex.found);
  // Exhaustive best is at least as good as the round-robin baseline.
  const auto rr = ev.evaluate(sched::PeriodicSchedule({1, 1}));
  EXPECT_GE(ex.details.best_value, rr.pall - 1e-12);
  // And the hybrid (same evaluator/memo) cannot beat it.
  const auto hy = find_optimal_schedule(ev, {{1, 1}, {2, 2}}, hopts);
  ASSERT_TRUE(hy.found);
  EXPECT_LE(hy.best_evaluation.pall, ex.details.best_value + 1e-12);
}

// ------------------------------------------------------------ case study

TEST(Date18Integration, RoundRobinVsCacheAware) {
  // The headline result at reduced design budget: the cache-aware schedule
  // (3,2,3) beats round-robin (1,1,1) in overall control performance.
  Evaluator ev(date18_case_study(), date18_design_options());
  const auto rr = ev.evaluate(sched::PeriodicSchedule({1, 1, 1}));
  const auto ca = ev.evaluate(sched::PeriodicSchedule({3, 2, 3}));
  EXPECT_TRUE(rr.feasible());
  EXPECT_TRUE(ca.feasible());
  EXPECT_GT(ca.pall, rr.pall);
  // Per-app: all three settle faster (or equal) under cache-aware timing,
  // and C1/C3 show the paper's double-digit improvement.
  for (int i : {0, 2}) {
    const double imp = (rr.apps[i].settling_time - ca.apps[i].settling_time) /
                       rr.apps[i].settling_time;
    EXPECT_GT(imp, 0.10) << "app " << i;
  }
  // Table III as bench_table3_control prints it, pinned to 1e-9 relative:
  // each app's settling time under both schedules, then both Pall values
  // (printed 0.5571 and 0.6278).
  const auto near = [](double got, double want) {
    return std::abs(got - want) <= 1e-9 * std::abs(want);
  };
  const double rr_settle[] = {0.013413299999999989, 0.0090128941176470662,
                              0.012550049999999978};
  const double ca_settle[] = {0.0099960452380952382, 0.008461293548387103,
                              0.0099814388888888762};
  ASSERT_EQ(rr.apps.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_PRED2(near, rr.apps[i].settling_time, rr_settle[i]) << "app " << i;
    EXPECT_PRED2(near, ca.apps[i].settling_time, ca_settle[i]) << "app " << i;
  }
  EXPECT_PRED2(near, rr.pall, 0.55708364145658285);
  EXPECT_PRED2(near, ca.pall, 0.62784680628093537);
}

TEST(Date18Integration, FeasibleRegionContainsPaperSchedules) {
  Evaluator ev(date18_case_study(), date18_design_options());
  for (auto m : {std::vector<int>{1, 1, 1}, {3, 2, 3}, {4, 2, 2}, {1, 2, 1},
                 {2, 2, 2}}) {
    EXPECT_TRUE(ev.idle_feasible(sched::PeriodicSchedule(m)));
  }
  // Sec. V's idle-feasible region, enumerated exactly. The paper reports
  // 76; the one-schedule gap is open (docs/ARCHITECTURE.md).
  const auto region = opt::enumerate_feasible(
      make_cheap_feasible(ev), 3, opt::HybridOptions{});
  EXPECT_EQ(region.size(), 77u);
  // Not downward closed: (2,6,2) feasible although (2,6,1) is not.
  EXPECT_TRUE(ev.idle_feasible(sched::PeriodicSchedule({2, 6, 2})));
  EXPECT_FALSE(ev.idle_feasible(sched::PeriodicSchedule({2, 6, 1})));
  // The enumeration contains the non-monotone point.
  bool found = false;
  for (const auto& p : region) {
    if (p == std::vector<int>{2, 6, 2}) found = true;
  }
  EXPECT_TRUE(found);
}
