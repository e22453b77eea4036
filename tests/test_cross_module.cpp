/// \file test_cross_module.cpp
/// \brief Cross-module consistency lock: the static WCET analyzer vs the
///        cache simulator on the real case-study programs.

#include <gtest/gtest.h>

#include "cache/cache_model.hpp"
#include "cache/static_wcet.hpp"
#include "cache/wcet.hpp"
#include "core/case_study.hpp"

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
    // And the accesses charged a miss are exactly the concrete misses of
    // the first (cold) and second (warm) run.
    catsched::cache::CacheSim replay(sys.cache_config);
    replay.run_trace(app.program.trace);
    EXPECT_EQ(stat.cold.not_classified, replay.misses()) << app.name;
    replay.reset_counters();
    replay.run_trace(app.program.trace);
    EXPECT_EQ(stat.warm.not_classified, replay.misses()) << app.name;
  }
}

}  // namespace
