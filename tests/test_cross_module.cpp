/// \file test_cross_module.cpp
/// \brief Cross-module consistency locks: the static WCET analyzer vs the
///        cache simulator on the real case-study programs, JSR invariance
///        under the internal balancing, preemptive vs non-preemptive
///        timing sanity, and the export round trip of a real simulation.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "cache/crpd.hpp"
#include "cache/static_wcet.hpp"
#include "cache/wcet.hpp"
#include "control/jsr.hpp"
#include "core/case_study.hpp"
#include "core/evaluator.hpp"
#include "core/export.hpp"
#include "sched/preemptive.hpp"

namespace {

using catsched::linalg::Matrix;

TEST(CrossModule, StaticAnalysisEqualsSimulationOnCaseStudyTraces) {
  // The three calibrated programs are straight-line traces; on a single
  // path the abstract domains are exact, so the static analyzer must
  // reproduce the simulator's cold AND warm cycles exactly -- which are in
  // turn Table I. This pins the two WCET stacks to each other.
  const auto sys = catsched::core::date18_case_study();
  for (const auto& app : sys.apps) {
    const auto sim = catsched::cache::analyze_wcet(app.program,
                                                   sys.cache_config);
    catsched::cache::StructuredProgram prog;
    prog.name = app.name;
    prog.root = catsched::cache::Stmt::block(app.program.trace);
    const auto stat =
        catsched::cache::analyze_static_app_wcet(prog, sys.cache_config);
    EXPECT_EQ(stat.cold.wcet_cycles, sim.cold_cycles) << app.name;
    EXPECT_EQ(stat.warm.wcet_cycles, sim.warm_cycles) << app.name;
    // And no access may stay unclassified on a single path.
    EXPECT_EQ(stat.cold.not_classified, 0u) << app.name;
    EXPECT_EQ(stat.warm.not_classified, 0u) << app.name;
  }
}

TEST(CrossModule, CrpdOfCaseStudyProgramsIsBoundedByUcb) {
  const auto sys = catsched::core::date18_case_study();
  for (std::size_t i = 0; i < sys.num_apps(); ++i) {
    const auto ucb = catsched::cache::compute_ucb(sys.apps[i].program,
                                                  sys.cache_config);
    for (std::size_t j = 0; j < sys.num_apps(); ++j) {
      if (i == j) continue;
      const auto ecb = catsched::cache::compute_ecb_sets(
          sys.apps[j].program, sys.cache_config);
      const auto bound = catsched::cache::crpd_bound_cycles(
          ucb, ecb, sys.cache_config);
      // Never more than reloading every useful line.
      EXPECT_LE(bound, ucb.max_useful * (sys.cache_config.miss_cycles -
                                         sys.cache_config.hit_cycles));
    }
  }
}

TEST(CrossModule, JsrLowerBoundInvariantUnderOwnBalancing) {
  // The lower bound comes from spectral radii, which diagonal similarity
  // cannot change: running the JSR twice (the family is balanced
  // internally) must give identical lower bounds and sandwiching uppers.
  const Matrix a{{0.5, 40.0}, {0.0, 0.6}};   // badly scaled on purpose
  const Matrix b{{0.55, -30.0}, {0.01, 0.4}};
  const auto bound = catsched::control::joint_spectral_radius({a, b}, 8);
  EXPECT_GE(bound.upper, bound.lower);
  // rho of each single matrix is a lower bound on the JSR.
  EXPECT_GE(bound.lower, 0.6 - 1e-12);
  // Balanced norm bound must beat the raw norms by a wide margin here.
  EXPECT_LT(bound.upper, 2.0);
}

TEST(CrossModule, PreemptiveResponseNeverBeatsIsolatedWcet) {
  // Response time >= own WCET, and the non-preemptive burst follower's
  // interval (warm WCET) is shorter than any preemptive response of the
  // same program -- the mechanism behind the bench_preemptive_vs_burst
  // outcome.
  const auto sys = catsched::core::date18_case_study();
  catsched::core::Evaluator ev(sys, catsched::core::date18_design_options());
  const auto wcets = ev.wcets();

  std::vector<catsched::sched::PreemptiveTask> tasks;
  for (std::size_t i = 0; i < sys.num_apps(); ++i) {
    tasks.push_back({sys.apps[i].tidle, wcets[i].cold_seconds, 0.0});
  }
  const auto rta = catsched::sched::response_time_analysis_rm(tasks);
  ASSERT_TRUE(rta.all_schedulable);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_GE(rta.response[i].value, wcets[i].cold_seconds - 1e-15);
    EXPECT_GT(rta.response[i].value, wcets[i].warm_seconds);
  }
}

TEST(CrossModule, ExportRoundTripsARealSimulation) {
  // Simulate one case-study loop briefly and write/read its trace.
  const auto sys = catsched::core::date18_case_study();
  catsched::core::Evaluator ev(sys, [] {
    auto o = catsched::core::date18_design_options();
    o.pso.particles = 10;
    o.pso.iterations = 15;
    o.pso_restarts = 1;
    o.scale_budget_with_dims = false;
    return o;
  }());
  auto eval = ev.evaluate(catsched::sched::PeriodicSchedule({1, 1, 1}));
  ASSERT_TRUE(eval.idle_feasible);

  // Use the timing to run one dense simulation of app 0.
  const auto& app = sys.apps[0];
  catsched::control::SwitchedSimulator sim(
      app.plant, eval.timing.apps[0].intervals, 1e-4);
  catsched::control::SimOptions so;
  so.r = app.r;
  so.horizon = 5e-3;
  catsched::control::SimTrace trace;
  sim.simulate(eval.apps[0].design.gains,
               catsched::linalg::Matrix::zero(2, 1), 0.0, so, &trace);

  const std::string stem = std::string(::testing::TempDir()) + "xmod";
  catsched::core::write_sim_trace(stem, trace);
  std::ifstream dense(stem + "_dense.csv");
  ASSERT_TRUE(dense.good());
  std::string header;
  std::getline(dense, header);
  EXPECT_EQ(header, "t,y");
  std::size_t rows = 0;
  for (std::string line; std::getline(dense, line);) ++rows;
  EXPECT_EQ(rows, trace.t.size());
  std::remove((stem + "_dense.csv").c_str());
  std::remove((stem + "_samples.csv").c_str());
}

}  // namespace
