/// \file test_interleaved_search.cpp
/// \brief Interleaved-schedule search tests: neighbor-move validity
///        (invariants preserved, caps respected), the local search on a
///        small synthetic system (must match or beat its periodic start),
///        the parallel contract — pooled runs at several thread counts
///        must be bit-identical to the serial run — and two interleaved
///        lanes raced through opt::race_drivers on one cache.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/case_study.hpp"
#include "core/interleaved_codesign.hpp"
#include "core/parallel.hpp"
#include "opt/portfolio.hpp"

namespace {

using catsched::core::Application;
using catsched::core::decode_interleaved;
using catsched::core::Evaluator;
using catsched::core::interleaved_neighbors;
using catsched::core::interleaved_search;
using catsched::core::InterleavedDriver;
using catsched::core::InterleavedSearchOptions;
using catsched::core::SystemModel;
using catsched::sched::InterleavedSchedule;
using catsched::sched::PeriodicSchedule;
using catsched::sched::Segment;
namespace cache = catsched::cache;
namespace control = catsched::control;
namespace linalg = catsched::linalg;
namespace opt = catsched::opt;

TEST(InterleavedNeighbors, AllNeighborsSatisfyInvariants) {
  const InterleavedSchedule s({{0, 2}, {1, 1}, {0, 1}, {2, 3}}, 3);
  InterleavedSearchOptions opts;
  const auto neighbors = interleaved_neighbors(s, opts);
  EXPECT_FALSE(neighbors.empty());
  std::set<std::string> seen;
  for (const auto& n : neighbors) {
    EXPECT_EQ(n.num_apps(), 3u);
    EXPECT_LE(n.segments().size(),
              static_cast<std::size_t>(opts.max_segments));
    for (const auto& seg : n.segments()) {
      EXPECT_GE(seg.count, 1);
      EXPECT_LE(seg.count, opts.max_burst);
    }
    // No cyclically-adjacent same-app segments (the class invariant; the
    // constructor enforces it, this documents that neighbors pass it).
    const auto& segs = n.segments();
    for (std::size_t i = 0; i < segs.size(); ++i) {
      if (segs.size() > 1) {
        EXPECT_NE(segs[i].app, segs[(i + 1) % segs.size()].app);
      }
    }
    // Every app still appears.
    for (std::size_t app = 0; app < 3; ++app) {
      const auto seq = n.task_sequence();
      EXPECT_GT(std::count(seq.begin(), seq.end(), app), 0) << n.to_string();
    }
    seen.insert(n.to_string());
  }
  EXPECT_EQ(seen.size(), neighbors.size()) << "duplicate neighbors";
}

TEST(InterleavedNeighbors, IncludesTheKeyMoveKinds) {
  const InterleavedSchedule s({{0, 2}, {1, 1}, {2, 1}}, 3);
  const auto neighbors = interleaved_neighbors(s, {});
  std::set<std::string> strs;
  for (const auto& n : neighbors) strs.insert(n.to_string());
  // Grow burst: (3,1,1).
  EXPECT_TRUE(strs.count(
      InterleavedSchedule({{0, 3}, {1, 1}, {2, 1}}, 3).to_string()));
  // Shrink burst: (1,1,1).
  EXPECT_TRUE(strs.count(
      InterleavedSchedule({{0, 1}, {1, 1}, {2, 1}}, 3).to_string()));
  // Split move equivalent: insert a second C1 segment -> (2,1,1,1)-ish.
  EXPECT_TRUE(strs.count(
      InterleavedSchedule({{0, 2}, {1, 1}, {0, 1}, {2, 1}}, 3).to_string()));
}

TEST(InterleavedNeighbors, SegmentCapPrunesInsertions) {
  const InterleavedSchedule s({{0, 1}, {1, 1}}, 2);
  InterleavedSearchOptions tight;
  tight.max_segments = 2;
  for (const auto& n : interleaved_neighbors(s, tight)) {
    EXPECT_LE(n.segments().size(), 2u);
  }
}

/// Two-app synthetic system, fast design options (as in test_core).
SystemModel tiny_system() {
  SystemModel sys;
  sys.cache_config = catsched::core::date18_cache_config();
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
    return a;
  };
  sys.apps = {make_app("A", 100, 16, 0, 110.0, 0.6),
              make_app("B", 90, 22, 1024, 140.0, 0.4)};
  return sys;
}

control::DesignOptions fast_options() {
  control::DesignOptions o = catsched::core::date18_design_options();
  o.pso.particles = 12;
  o.pso.iterations = 20;
  o.pso.stall_iterations = 8;
  o.scale_budget_with_dims = false;
  return o;
}

TEST(InterleavedSearch, MatchesOrBeatsPeriodicStart) {
  Evaluator evaluator(tiny_system(), fast_options());
  const auto start =
      InterleavedSchedule::from_periodic(PeriodicSchedule({1, 1}));
  const double start_pall = evaluator.evaluate(start).pall;

  InterleavedSearchOptions opts;
  opts.max_steps = 4;       // keep the test fast; improvement shows early
  opts.max_segments = 4;
  opts.max_burst = 4;
  const auto res = interleaved_search(evaluator, start, opts);
  ASSERT_TRUE(res.found);
  EXPECT_GE(res.best_evaluation.pall, start_pall - 1e-9);
  EXPECT_GE(res.unique_evaluations, 1);
  EXPECT_FALSE(res.path.empty());
}

TEST(InterleavedSearch, ParallelIsBitIdenticalToSerial) {
  const auto start =
      InterleavedSchedule::from_periodic(PeriodicSchedule({1, 1}));
  InterleavedSearchOptions opts;
  opts.max_steps = 3;
  opts.max_segments = 4;
  opts.max_burst = 4;

  // Fresh evaluator per run so the schedule memo cannot leak results
  // between modes; the equality below is the real determinism contract.
  Evaluator serial_ev(tiny_system(), fast_options());
  const auto serial = interleaved_search(serial_ev, start, opts);
  ASSERT_TRUE(serial.found);

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    catsched::core::ThreadPool pool(threads);
    Evaluator parallel_ev(tiny_system(), fast_options());
    const auto parallel = interleaved_search(parallel_ev, start, opts, &pool);
    ASSERT_EQ(serial.found, parallel.found) << threads << " threads";
    EXPECT_EQ(serial.best.to_string(), parallel.best.to_string())
        << threads << " threads";
    EXPECT_EQ(serial.best_evaluation.pall, parallel.best_evaluation.pall)
        << threads << " threads";
    EXPECT_EQ(serial.steps, parallel.steps) << threads << " threads";
    // "Distinct schedules evaluated" must agree exactly, and so must the
    // whole accepted path (the serial-reduction guarantee).
    EXPECT_EQ(serial.unique_evaluations, parallel.unique_evaluations)
        << threads << " threads";
    EXPECT_EQ(serial.path, parallel.path) << threads << " threads";
    // Same design work done: each timing pattern designed exactly once.
    EXPECT_EQ(serial_ev.designs_run(), parallel_ev.designs_run())
        << threads << " threads";
    EXPECT_EQ(serial_ev.schedule_evaluations(),
              parallel_ev.schedule_evaluations())
        << threads << " threads";
  }
}

TEST(InterleavedSearch, EvaluatorScheduleMemoDeduplicatesAcrossSearches) {
  // Two searches from the same start on one evaluator: the second search
  // re-requests the same segment patterns but the evaluator-level memo
  // hands the finished evaluations back without re-running any design.
  Evaluator ev(tiny_system(), fast_options());
  const auto start =
      InterleavedSchedule::from_periodic(PeriodicSchedule({1, 1}));
  InterleavedSearchOptions opts;
  opts.max_steps = 2;
  opts.max_segments = 4;
  opts.max_burst = 4;

  const auto first = interleaved_search(ev, start, opts);
  const int designs_after_first = ev.designs_run();
  const int schedules_after_first = ev.schedule_evaluations();
  EXPECT_GT(schedules_after_first, 0);

  const auto second = interleaved_search(ev, start, opts);
  EXPECT_EQ(ev.designs_run(), designs_after_first);
  EXPECT_EQ(ev.schedule_evaluations(), schedules_after_first);
  // The repeat search still reports its own full accounting.
  EXPECT_EQ(second.unique_evaluations, first.unique_evaluations);
  EXPECT_EQ(second.path, first.path);
}

/// Accepted path of one lane as canonical strings (interleaved_search's
/// path format).
std::vector<std::string> lane_path(const InterleavedDriver& lane) {
  std::vector<std::string> out;
  for (const std::vector<int>& p : lane.path()) {
    out.push_back(decode_interleaved(p, lane.num_apps()).to_string());
  }
  return out;
}

TEST(InterleavedSearch, TwoLanesRaceOnOneCache) {
  // The runner races the interleaved space with no extra code: two lanes
  // from different starts share one cache, the race is bit-identical at
  // every thread count, and each lane walks exactly its standalone path.
  const std::vector<InterleavedSchedule> starts{
      InterleavedSchedule::from_periodic(PeriodicSchedule({1, 1})),
      InterleavedSchedule::from_periodic(PeriodicSchedule({2, 1}))};
  InterleavedSearchOptions opts;
  opts.max_steps = 3;
  opts.max_segments = 4;
  opts.max_burst = 4;

  std::vector<std::vector<std::string>> standalone;
  for (const InterleavedSchedule& s : starts) {
    Evaluator ev(tiny_system(), fast_options());
    standalone.push_back(interleaved_search(ev, s, opts).path);
  }

  struct Race {
    opt::PortfolioResult result;
    std::vector<std::vector<std::string>> paths;
  };
  const auto race = [&](catsched::core::ThreadPool* pool) {
    Evaluator ev(tiny_system(), fast_options(), pool);
    std::vector<std::unique_ptr<InterleavedDriver>> lanes;
    std::vector<opt::SearchDriver*> roster;
    for (std::size_t i = 0; i < starts.size(); ++i) {
      lanes.push_back(std::make_unique<InterleavedDriver>(
          "interleaved:" + std::to_string(i),
          catsched::core::make_interleaved_cheap_feasible(ev), starts[i],
          opts));
      roster.push_back(lanes.back().get());
    }
    opt::EvalCache cache(catsched::core::make_interleaved_objective(ev));
    opt::PortfolioOptions popts;
    popts.elimination_rounds = 0;
    Race r{opt::race_drivers(roster, cache, popts, pool), {}};
    for (const auto& lane : lanes) r.paths.push_back(lane_path(*lane));
    return r;
  };

  const Race serial = race(nullptr);
  ASSERT_TRUE(serial.result.found_feasible);
  EXPECT_EQ(serial.paths, standalone);
  // Every point in the shared cache is charged to exactly one lane.
  int charged = 0;
  for (const opt::StrategyReport& s : serial.result.strategies) {
    charged += s.new_evaluations;
  }
  EXPECT_EQ(charged, serial.result.unique_evaluations);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    catsched::core::ThreadPool pool(threads);
    const Race par = race(&pool);
    EXPECT_EQ(par.paths, serial.paths) << threads << " threads";
    EXPECT_EQ(par.result.best, serial.result.best) << threads << " threads";
    EXPECT_EQ(par.result.best_value, serial.result.best_value)
        << threads << " threads";
    EXPECT_EQ(par.result.winner, serial.result.winner)
        << threads << " threads";
    EXPECT_EQ(par.result.rounds, serial.result.rounds)
        << threads << " threads";
    EXPECT_EQ(par.result.unique_evaluations,
              serial.result.unique_evaluations)
        << threads << " threads";
    for (std::size_t i = 0; i < starts.size(); ++i) {
      EXPECT_EQ(par.result.strategies[i].new_evaluations,
                serial.result.strategies[i].new_evaluations)
          << threads << " threads, lane " << i;
    }
  }
}

TEST(InterleavedSearch, ThrowsOnIdleInfeasibleStart) {
  Evaluator evaluator(tiny_system(), fast_options());
  // Huge bursts blow the idle-time limit (64 warm tasks of the other app
  // stretch h_max far past the 9 ms tidle of this fixture).
  const InterleavedSchedule bad({{0, 64}, {1, 64}}, 2);
  EXPECT_FALSE(evaluator.idle_feasible(bad));
  EXPECT_THROW(interleaved_search(evaluator, bad, {}),
               std::invalid_argument);
}

}  // namespace
