// Unit tests for the cache substrate: LRU/set mechanics, trace replay,
// WCET analysis, and the exact reproduction of the paper's Table I.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "cache/absint.hpp"
#include "cache/cache_model.hpp"
#include "cache/program.hpp"
#include "cache/wcet.hpp"
#include "core/case_study.hpp"

namespace cc = catsched::cache;

namespace {

cc::CacheConfig small_cache(std::size_t lines, std::size_t assoc) {
  cc::CacheConfig cfg;
  cfg.line_bytes = 16;
  cfg.num_lines = lines;
  cfg.associativity = assoc;
  cfg.hit_cycles = 1;
  cfg.miss_cycles = 100;
  cfg.clock_hz = 20.0e6;
  return cfg;
}

/// Whether \p line is resident, read without touching \p sim: the access
/// goes to a copy, so it refreshes no LRU state that later checks see.
bool resident(const cc::CacheSim& sim, std::uint64_t line) {
  cc::CacheSim probe = sim;
  return probe.access(line);
}

}  // namespace

TEST(CacheConfig, SetArithmetic) {
  EXPECT_EQ(small_cache(128, 1).num_sets(), 128u);
  EXPECT_EQ(small_cache(128, 4).num_sets(), 32u);
  EXPECT_EQ(small_cache(128, 0).num_sets(), 1u);  // fully associative
  EXPECT_DOUBLE_EQ(small_cache(128, 1).cycle_seconds(), 5.0e-8);
}

TEST(CacheSim, RejectsBadConfig) {
  cc::CacheConfig cfg = small_cache(128, 1);
  cfg.num_lines = 0;
  EXPECT_THROW(cc::CacheSim{cfg}, std::invalid_argument);
  cfg = small_cache(130, 4);  // not divisible by ways
  EXPECT_THROW(cc::CacheSim{cfg}, std::invalid_argument);
  cfg = small_cache(128, 1);
  cfg.clock_hz = 0.0;
  EXPECT_THROW(cc::CacheSim{cfg}, std::invalid_argument);
}

TEST(CacheConfig, ValidateRejectsEveryInconsistentField) {
  EXPECT_NO_THROW(small_cache(128, 4).validate());
  EXPECT_NO_THROW(small_cache(128, 0).validate());  // fully associative
  cc::CacheConfig cfg = small_cache(128, 1);
  cfg.line_bytes = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_cache(0, 0);
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_THROW(small_cache(130, 4).validate(), std::invalid_argument);
  for (const double clock_hz :
       {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    cfg = small_cache(128, 1);
    cfg.clock_hz = clock_hz;
    EXPECT_THROW(cfg.validate(), std::invalid_argument) << clock_hz;
    // Both cache models run the same check.
    EXPECT_THROW(cc::CacheSim{cfg}, std::invalid_argument) << clock_hz;
    EXPECT_THROW(cc::CachePair{cfg}, std::invalid_argument) << clock_hz;
  }
}

TEST(CacheSim, ColdMissThenHit) {
  cc::CacheSim sim(small_cache(4, 1));
  EXPECT_FALSE(sim.access(0));
  EXPECT_TRUE(sim.access(0));
  EXPECT_EQ(sim.misses(), 1u);
  EXPECT_EQ(sim.hits(), 1u);
  EXPECT_EQ(sim.total_cycles(), 101u);
}

TEST(CacheSim, DirectMappedConflict) {
  // Lines 0 and 4 share set 0 in a 4-set direct-mapped cache.
  cc::CacheSim sim(small_cache(4, 1));
  sim.access(0);
  sim.access(4);
  EXPECT_FALSE(resident(sim, 0));
  EXPECT_TRUE(resident(sim, 4));
  EXPECT_FALSE(sim.access(0));  // conflict miss
}

TEST(CacheSim, TwoWayLruKeepsBoth) {
  // Same two lines coexist in a 2-way set.
  cc::CacheSim sim(small_cache(8, 2));  // 4 sets x 2 ways
  sim.access(0);
  sim.access(4);
  EXPECT_TRUE(resident(sim, 0));
  EXPECT_TRUE(resident(sim, 4));
  // A third alias evicts the LRU (line 0).
  sim.access(8);
  EXPECT_FALSE(resident(sim, 0));
  EXPECT_TRUE(resident(sim, 4));
  EXPECT_TRUE(resident(sim, 8));
}

TEST(CacheSim, LruOrderRefreshedByHit) {
  cc::CacheSim sim(small_cache(8, 2));
  sim.access(0);
  sim.access(4);
  sim.access(0);  // refresh 0 -> 4 becomes LRU
  sim.access(8);
  EXPECT_TRUE(resident(sim, 0));
  EXPECT_FALSE(resident(sim, 4));
}

TEST(CacheSim, FullyAssociativeLru) {
  cc::CacheSim sim(small_cache(3, 0));
  sim.access(10);
  sim.access(20);
  sim.access(30);
  sim.access(10);  // refresh
  sim.access(40);  // evicts LRU = 20
  EXPECT_TRUE(resident(sim, 10));
  EXPECT_FALSE(resident(sim, 20));
  EXPECT_TRUE(resident(sim, 30));
  EXPECT_TRUE(resident(sim, 40));
}

TEST(Program, SequentialTraceShape) {
  const cc::Program p = cc::make_sequential_program("p", 10, 3, 100);
  EXPECT_EQ(p.trace.size(), 30u);
  EXPECT_EQ(p.distinct_lines(), 10u);
  EXPECT_EQ(p.trace.front(), 100u);
  EXPECT_EQ(p.trace.back(), 109u);
  EXPECT_EQ(p.footprint_bytes(16), 160u);
}

TEST(Program, LoopedTraceRepeatsBody) {
  const cc::Program p = cc::make_looped_program("p", 10, 2, 3, 4);
  // 2 init + 3*4 loop + 5 tail
  EXPECT_EQ(p.trace.size(), 2u + 12u + 5u);
  EXPECT_EQ(p.distinct_lines(), 10u);
  EXPECT_THROW(cc::make_looped_program("p", 5, 4, 3, 1), std::invalid_argument);
}

TEST(CalibratedProgram, PredictionMatchesSimulation) {
  // Property: for a spread of layouts, the closed-form cold/warm cycle
  // prediction matches the simulator exactly.
  const std::size_t sets = 64;
  for (std::size_t singles : {10u, 40u, 60u}) {
    for (std::size_t groups : {0u, 2u, 4u}) {
      for (std::size_t extra : {0u, 7u, 33u}) {
        cc::CalibratedLayout lay;
        lay.singleton_lines = singles;
        lay.conflict_group_sizes.assign(groups, 3);
        lay.extra_hit_fetches = extra;
        ASSERT_LE(lay.sets_used(), sets);
        const cc::Program p =
            cc::make_calibrated_program("t", lay, sets, 0);
        cc::CacheConfig cfg = small_cache(sets, 1);
        const cc::WcetResult w = cc::analyze_wcet(p, cfg);
        const cc::CalibratedPrediction pred =
            cc::predict_calibrated_cycles(lay, cfg.hit_cycles,
                                          cfg.miss_cycles);
        EXPECT_EQ(w.cold_cycles, pred.cold_cycles)
            << "S=" << singles << " G=" << groups << " E=" << extra;
        EXPECT_EQ(w.warm_cycles, pred.warm_cycles);
        EXPECT_TRUE(w.steady);
      }
    }
  }
}

TEST(CalibratedProgram, RejectsBadLayouts) {
  cc::CalibratedLayout lay;
  lay.singleton_lines = 10;
  lay.conflict_group_sizes = {1};  // groups must have >= 2 lines
  EXPECT_THROW(cc::make_calibrated_program("t", lay, 64, 0),
               std::invalid_argument);
  lay.conflict_group_sizes = {2};
  EXPECT_THROW(cc::make_calibrated_program("t", lay, 64, 3),  // misaligned
               std::invalid_argument);
  lay.singleton_lines = 64;
  EXPECT_THROW(cc::make_calibrated_program("t", lay, 64, 0),  // too many sets
               std::invalid_argument);
}

TEST(Wcet, WarmRunReusesCache) {
  // A sequential program that fits in cache: warm runs are all hits.
  const cc::Program p = cc::make_sequential_program("fit", 16, 2);
  const cc::WcetResult w = cc::analyze_wcet(p, small_cache(32, 1));
  EXPECT_EQ(w.cold_cycles, 16u * 100u + 16u);
  EXPECT_EQ(w.warm_cycles, 32u);
  EXPECT_TRUE(w.steady);
  EXPECT_NEAR(w.reduction_seconds, (w.cold_cycles - w.warm_cycles) * 5e-8,
              1e-15);
}

TEST(Wcet, ProgramLargerThanCacheStillBenefits) {
  // Larger-than-cache sequential program in a direct-mapped cache: the
  // classic wraparound leaves 2(L-128) warm misses: lines 128..L-1 evict
  // lines 0..L-129 and are evicted by them again on the next run.
  const cc::Program p = cc::make_sequential_program("big", 150, 1);
  const cc::WcetResult w = cc::analyze_wcet(p, small_cache(128, 1));
  EXPECT_EQ(w.cold_cycles, 150u * 100u);
  const std::uint64_t warm_misses = 2u * (150u - 128u);
  EXPECT_EQ(w.warm_cycles, warm_misses * 100u + (150u - warm_misses));
  EXPECT_TRUE(w.steady);
}

// ---------------------------------------------------------------------
// Paper Table I: exact reproduction.
// ---------------------------------------------------------------------

TEST(Date18, TableIExact) {
  namespace core = catsched::core;
  const core::SystemModel sys = core::date18_case_study();
  const auto wcets = sys.analyze_wcets();
  ASSERT_EQ(wcets.size(), 3u);
  EXPECT_NEAR(wcets[0].cold_seconds, core::Date18Wcets::c1_cold, 1e-12);
  EXPECT_NEAR(wcets[0].warm_seconds, core::Date18Wcets::c1_warm, 1e-12);
  EXPECT_NEAR(wcets[1].cold_seconds, core::Date18Wcets::c2_cold, 1e-12);
  EXPECT_NEAR(wcets[1].warm_seconds, core::Date18Wcets::c2_warm, 1e-12);
  EXPECT_NEAR(wcets[2].cold_seconds, core::Date18Wcets::c3_cold, 1e-12);
  EXPECT_NEAR(wcets[2].warm_seconds, core::Date18Wcets::c3_warm, 1e-12);
}

TEST(Date18, ProgramsExceedCacheSize) {
  // Paper Sec. II assumes every program is larger than the cache.
  namespace core = catsched::core;
  const core::SystemModel sys = core::date18_case_study();
  const std::size_t cache_bytes =
      sys.cache_config.num_lines * sys.cache_config.line_bytes;
  for (const auto& app : sys.apps) {
    EXPECT_GT(app.program.footprint_bytes(sys.cache_config.line_bytes),
              cache_bytes)
        << app.name;
  }
}

TEST(Date18, InterAppEvictionMakesBurstLeaderCold) {
  // In any schedule, the first task of each burst must pay the cold WCET:
  // each app's footprint evicts every other app's reusable lines.
  namespace core = catsched::core;
  const core::SystemModel sys = core::date18_case_study();
  std::vector<cc::Program> progs;
  for (const auto& a : sys.apps) progs.push_back(a.program);
  const auto wcets = sys.analyze_wcets();

  // Two periods of (2, 2, 2): in period 2, burst leaders are again cold.
  const auto seq = cc::expand_periodic_schedule({2, 2, 2}, 2);
  const auto execs = cc::simulate_task_sequence(progs, seq, sys.cache_config);
  ASSERT_EQ(execs.size(), 12u);
  const double cyc = sys.cache_config.cycle_seconds();
  for (std::size_t k = 6; k < 12; ++k) {  // steady-state period
    const auto& te = execs[k];
    const double expect = te.burst_pos == 0
                              ? wcets[te.app].cold_seconds
                              : wcets[te.app].warm_seconds;
    EXPECT_NEAR(static_cast<double>(te.cycles) * cyc, expect, 1e-12)
        << "task " << k;
  }
}

TEST(ScheduleStream, ExpandPeriodicSchedule) {
  const auto seq = cc::expand_periodic_schedule({2, 1}, 2);
  const std::vector<std::size_t> expect{0, 0, 1, 0, 0, 1};
  EXPECT_EQ(seq, expect);
  EXPECT_THROW(cc::expand_periodic_schedule({-1}, 1), std::invalid_argument);
}

TEST(ScheduleStream, TaskTimesAccumulate) {
  const cc::Program p = cc::make_sequential_program("p", 8, 1);
  const auto execs = cc::simulate_task_sequence({p}, {0, 0}, small_cache(32, 1));
  ASSERT_EQ(execs.size(), 2u);
  EXPECT_DOUBLE_EQ(execs[0].start_seconds, 0.0);
  EXPECT_DOUBLE_EQ(execs[1].start_seconds, execs[0].end_seconds);
  EXPECT_LT(execs[1].cycles, execs[0].cycles);  // warm second run
  EXPECT_THROW(cc::simulate_task_sequence({p}, {1}, small_cache(32, 1)),
               std::out_of_range);
}
