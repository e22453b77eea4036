/// \file test_cross_module.cpp
/// \brief Cross-module consistency locks: the static WCET analyzer vs the
///        cache simulator on the real case-study programs, CRPD bounds,
///        and preemptive vs non-preemptive timing sanity.

#include <gtest/gtest.h>

#include "cache/crpd.hpp"
#include "cache/static_wcet.hpp"
#include "cache/wcet.hpp"
#include "core/case_study.hpp"
#include "core/evaluator.hpp"
#include "sched/preemptive.hpp"

namespace {

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

}  // namespace
