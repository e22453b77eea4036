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
  const auto wcets = sys.analyze_wcets();
  for (std::size_t i = 0; i < sys.apps.size(); ++i) {
    const auto& app = sys.apps[i];
    const auto sim = catsched::cache::analyze_wcet(app.program,
                                                   sys.cache_config);
    const auto stat = catsched::cache::analyze_static_steady_wcet(
        app.analysis_program(), sys.cache_config);
    EXPECT_EQ(stat.cold.wcet_cycles, sim.cold_cycles) << app.name;
    EXPECT_EQ(stat.warm.wcet_cycles, sim.warm_cycles) << app.name;
    // The pipeline's pair is that analysis, in seconds.
    EXPECT_EQ(wcets[i].cold_seconds, sim.cold_seconds) << app.name;
    EXPECT_EQ(wcets[i].warm_seconds, sim.warm_seconds) << app.name;
    // And the accesses charged a miss are exactly the concrete misses of
    // the first (cold) and second (warm) run.
    catsched::cache::CacheSim replay(sys.cache_config);
    replay.run_trace(app.program.trace);
    const std::uint64_t cold_misses = replay.misses();
    EXPECT_EQ(stat.cold.not_classified, cold_misses) << app.name;
    replay.run_trace(app.program.trace);
    EXPECT_EQ(stat.warm.not_classified, replay.misses() - cold_misses)
        << app.name;
  }
}

}  // namespace
