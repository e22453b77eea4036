/// \file test_incremental.cpp
/// \brief Incremental re-evaluation tests: derive_timing_delta must be
///        bit-identical to from-scratch derivation over randomized move
///        sequences, the hinted (anchored) evaluation bit-identical to
///        evaluate(), the hybrid searches bit-identical with the
///        anchored neighbor objective on vs. off (at 1/2/4 threads) with
///        memo counters never exceeding the plain counts, quantization
///        rejecting degenerate intervals, and the static-WCET subtree memo
///        differential.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "cache/program.hpp"
#include "cache/static_wcet.hpp"
#include "cache/structure.hpp"
#include "core/case_study.hpp"
#include "core/codesign.hpp"
#include "core/interleaved_codesign.hpp"
#include "core/parallel.hpp"
#include "sched/timing.hpp"

namespace {

using catsched::core::Application;
using catsched::core::Evaluator;
using catsched::core::interleaved_neighbor_moves;
using catsched::core::interleaved_neighbors;
using catsched::core::InterleavedSearchOptions;
using catsched::core::quantize_intervals;
using catsched::core::ScheduleEvaluation;
using catsched::core::SystemModel;
using catsched::sched::AppWcet;
using catsched::sched::apply_move;
using catsched::sched::derive_timing;
using catsched::sched::derive_timing_delta;
using catsched::sched::expand_timing;
using catsched::sched::InterleavedSchedule;
using catsched::sched::Interval;
using catsched::sched::PeriodicSchedule;
using catsched::sched::ScheduleTiming;
using catsched::sched::TaskMove;
using catsched::sched::TimingPattern;
namespace cache = catsched::cache;
namespace control = catsched::control;
namespace linalg = catsched::linalg;
namespace opt = catsched::opt;

/// Bit-level equality (EXPECT_EQ on doubles would also pass -0.0 == 0.0;
/// the delta contract is the stronger "same bits").
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

::testing::AssertionResult timing_identical(const ScheduleTiming& a,
                                            const ScheduleTiming& b) {
  if (!same_bits(a.period, b.period)) {
    return ::testing::AssertionResult(false) << "period bits differ";
  }
  if (a.apps.size() != b.apps.size()) {
    return ::testing::AssertionResult(false) << "app count differs";
  }
  for (std::size_t i = 0; i < a.apps.size(); ++i) {
    const auto& ia = a.apps[i].intervals;
    const auto& ib = b.apps[i].intervals;
    if (ia.size() != ib.size()) {
      return ::testing::AssertionResult(false)
             << "app " << i << " interval count differs";
    }
    for (std::size_t j = 0; j < ia.size(); ++j) {
      if (!same_bits(ia[j].h, ib[j].h) || !same_bits(ia[j].tau, ib[j].tau) ||
          ia[j].warm != ib[j].warm) {
        return ::testing::AssertionResult(false)
               << "app " << i << " interval " << j << " differs";
      }
    }
  }
  return ::testing::AssertionResult(true);
}

TEST(DeriveTimingDelta, MatchesFromScratchOnRandomMoveSequences) {
  std::mt19937 rng(42);
  std::uniform_real_distribution<double> wc(0.2e-3, 3.0e-3);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t num_apps = 1 + rng() % 4;
    std::vector<AppWcet> wcets(num_apps);
    for (auto& w : wcets) {
      w.cold_seconds = wc(rng);
      std::uniform_real_distribution<double> warm(0.1 * w.cold_seconds,
                                                  w.cold_seconds);
      w.warm_seconds = warm(rng);
    }
    // Random start sequence containing every app at least once.
    std::vector<std::size_t> seq;
    for (std::size_t a = 0; a < num_apps; ++a) seq.push_back(a);
    const std::size_t extra = rng() % 8;
    for (std::size_t k = 0; k < extra; ++k) seq.push_back(rng() % num_apps);
    std::shuffle(seq.begin(), seq.end(), rng);

    TimingPattern pattern = expand_timing(wcets, seq, num_apps);
    for (int moves = 0; moves < 30; ++moves) {
      // Random valid move (removals may not orphan an app).
      TaskMove move;
      const bool can_remove = seq.size() > num_apps;  // conservative
      if (!can_remove || rng() % 2 == 0) {
        move.kind = TaskMove::Kind::insert;
        move.pos = rng() % (seq.size() + 1);
        move.app = rng() % num_apps;
      } else {
        move.kind = TaskMove::Kind::remove;
        // Retry until the removal keeps every app present.
        do {
          move.pos = rng() % seq.size();
        } while (pattern.timing.apps[seq[move.pos]].intervals.size() < 2);
        move.app = seq[move.pos];
      }

      std::vector<bool> unchanged;
      const ScheduleTiming delta =
          derive_timing_delta(wcets, pattern, move, &unchanged);
      seq = apply_move(seq, move);
      const ScheduleTiming scratch = derive_timing(wcets, seq, num_apps);
      ASSERT_TRUE(timing_identical(delta, scratch))
          << "trial " << trial << " move " << moves;
      // The unchanged flags must be exact: set iff the interval list is
      // value-identical to the base schedule's.
      for (std::size_t a = 0; a < num_apps; ++a) {
        ASSERT_EQ(unchanged[a],
                  delta.apps[a].intervals == pattern.timing.apps[a].intervals)
            << "trial " << trial << " move " << moves << " app " << a;
      }
      pattern = expand_timing(wcets, seq, num_apps);
      ASSERT_TRUE(timing_identical(pattern.timing, scratch));
    }
  }
}

TEST(DeriveTimingDelta, RejectsInvalidMoves) {
  const std::vector<AppWcet> wcets{{1e-3, 0.5e-3}, {2e-3, 1e-3}};
  const TimingPattern pattern = expand_timing(wcets, {0, 1, 0}, 2);
  TaskMove bad;
  bad.kind = TaskMove::Kind::insert;
  bad.pos = 5;
  EXPECT_THROW(derive_timing_delta(wcets, pattern, bad),
               std::invalid_argument);
  bad.pos = 0;
  bad.app = 7;
  EXPECT_THROW(derive_timing_delta(wcets, pattern, bad),
               std::invalid_argument);
  TaskMove orphan;
  orphan.kind = TaskMove::Kind::remove;
  orphan.pos = 1;  // app 1's only task
  EXPECT_THROW(derive_timing_delta(wcets, pattern, orphan),
               std::invalid_argument);
}

TEST(DeriveTimingRotation, MatchesFromScratchOnRandomRotations) {
  std::mt19937 rng(1042);
  std::uniform_real_distribution<double> wc(0.2e-3, 3.0e-3);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t num_apps = 1 + rng() % 4;
    std::vector<AppWcet> wcets(num_apps);
    for (auto& w : wcets) {
      w.cold_seconds = wc(rng);
      std::uniform_real_distribution<double> warm(0.1 * w.cold_seconds,
                                                  w.cold_seconds);
      w.warm_seconds = warm(rng);
    }
    std::vector<std::size_t> seq;
    for (std::size_t a = 0; a < num_apps; ++a) seq.push_back(a);
    const std::size_t extra = 2 + rng() % 8;  // need length >= 2 to rotate
    for (std::size_t k = 0; k < extra; ++k) seq.push_back(rng() % num_apps);
    std::shuffle(seq.begin(), seq.end(), rng);

    TimingPattern pattern = expand_timing(wcets, seq, num_apps);
    for (int rotations = 0; rotations < 30; ++rotations) {
      catsched::sched::BlockRotation rot;
      rot.len = 2 + rng() % (seq.size() - 1);         // in [2, t]
      rot.pos = rng() % (seq.size() - rot.len + 1);   // non-wrapping
      rot.shift = 1 + rng() % (rot.len - 1);          // in [1, len-1]

      std::vector<bool> unchanged;
      const ScheduleTiming delta = catsched::sched::derive_timing_rotation(
          wcets, pattern, rot, &unchanged);
      seq = catsched::sched::apply_rotation(seq, rot);
      const ScheduleTiming scratch = derive_timing(wcets, seq, num_apps);
      ASSERT_TRUE(timing_identical(delta, scratch))
          << "trial " << trial << " rotation " << rotations << " pos "
          << rot.pos << " len " << rot.len << " shift " << rot.shift;
      // Exact unchanged flags: set iff the interval list is
      // value-identical to the base schedule's. A rotation can reorder an
      // app's occurrences inside the range, so this exercises the
      // re-read-all-in-range path, not only the three seams.
      for (std::size_t a = 0; a < num_apps; ++a) {
        ASSERT_EQ(unchanged[a],
                  delta.apps[a].intervals == pattern.timing.apps[a].intervals)
            << "trial " << trial << " rotation " << rotations << " app " << a;
      }
      pattern = expand_timing(wcets, seq, num_apps);
      ASSERT_TRUE(timing_identical(pattern.timing, scratch));
    }
  }
}

TEST(DeriveTimingRotation, RejectsInvalidRotations) {
  const std::vector<AppWcet> wcets{{1e-3, 0.5e-3}, {2e-3, 1e-3}};
  const TimingPattern pattern = expand_timing(wcets, {0, 1, 0}, 2);
  using catsched::sched::BlockRotation;
  using catsched::sched::derive_timing_rotation;
  // Range past the end of the sequence.
  EXPECT_THROW(derive_timing_rotation(wcets, pattern, BlockRotation{2, 2, 1}),
               std::invalid_argument);
  // Degenerate block (len < 2).
  EXPECT_THROW(derive_timing_rotation(wcets, pattern, BlockRotation{0, 1, 0}),
               std::invalid_argument);
  // Identity / out-of-range shift.
  EXPECT_THROW(derive_timing_rotation(wcets, pattern, BlockRotation{0, 2, 0}),
               std::invalid_argument);
  EXPECT_THROW(derive_timing_rotation(wcets, pattern, BlockRotation{0, 2, 2}),
               std::invalid_argument);
}

TEST(DeriveTimingRotation, SegmentSwapNeighborsCarryRotationDescriptors) {
  // A 3-segment schedule: every non-wrapping cyclic-successor swap must
  // come out of the neighbor generator with a rotation descriptor that
  // reproduces the candidate's canonical sequence exactly.
  const InterleavedSchedule base(
      {{0, 2}, {1, 1}, {2, 3}}, 3);
  const std::vector<std::size_t> base_seq = base.task_sequence();
  int with_rotation = 0;
  for (const auto& nb : interleaved_neighbor_moves(base, {})) {
    EXPECT_FALSE(nb.move && nb.rotation);  // at most one descriptor
    if (!nb.rotation) continue;
    ++with_rotation;
    EXPECT_EQ(catsched::sched::apply_rotation(base_seq, *nb.rotation),
              nb.schedule.task_sequence());
  }
  // Swaps of (segment 0, 1) and (1, 2) are non-wrapping; the (2, 0) swap
  // wraps and must stay descriptor-free. Some swapped shapes may be
  // invalid (mergeable) and dropped, hence >= 1 rather than == 2.
  EXPECT_GE(with_rotation, 1);
}

TEST(QuantizeIntervals, RejectsDegenerateIntervals) {
  const auto iv = [](double h, double tau) {
    Interval i;
    i.h = h;
    i.tau = tau;
    return i;
  };
  EXPECT_THROW(
      quantize_intervals({iv(std::numeric_limits<double>::infinity(), 1e-3)}),
      std::invalid_argument);
  EXPECT_THROW(
      quantize_intervals({iv(1e-3, std::numeric_limits<double>::quiet_NaN())}),
      std::invalid_argument);
  // Overflowing magnitude: |h| * 1e12 would not fit in int64 (llround UB).
  EXPECT_THROW(quantize_intervals({iv(1e9, 1e-3)}), std::invalid_argument);
  EXPECT_THROW(quantize_intervals({iv(1e-3, -1e9)}), std::invalid_argument);
  // Valid intervals quantize to picoseconds.
  const auto key = quantize_intervals({iv(2e-3, 0.5e-3)});
  ASSERT_EQ(key.size(), 2u);
  EXPECT_EQ(key[0], 2000000000);
  EXPECT_EQ(key[1], 500000000);
}

/// Two-app synthetic system, fast design options (as in
/// test_interleaved_search).
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
  o.pso_restarts = 1;
  o.scale_budget_with_dims = false;
  return o;
}

TEST(EvaluateNeighbor, BitIdenticalToFromScratchEvaluation) {
  Evaluator ev(tiny_system(), fast_options());
  const InterleavedSchedule base({{0, 2}, {1, 2}}, 2);
  const std::string base_key = base.to_string();
  const ScheduleEvaluation& base_eval = ev.evaluate_cached(base, base_key);

  InterleavedSearchOptions opts;
  opts.max_segments = 4;
  opts.max_burst = 4;
  int checked = 0;
  for (const InterleavedSchedule& nb : interleaved_neighbors(base, opts)) {
    ++checked;
    const ScheduleEvaluation& hinted =
        ev.evaluate_cached(nb, nb.to_string(), base_eval);
    ScheduleEvaluation scratch = ev.evaluate(nb);
    ASSERT_TRUE(timing_identical(hinted.timing, scratch.timing))
        << nb.to_string();
    ASSERT_TRUE(same_bits(hinted.pall, scratch.pall)) << nb.to_string();
    ASSERT_EQ(hinted.idle_feasible, scratch.idle_feasible);
    ASSERT_EQ(hinted.control_feasible, scratch.control_feasible);
    ASSERT_EQ(hinted.apps.size(), scratch.apps.size());
    for (std::size_t i = 0; i < scratch.apps.size(); ++i) {
      ASSERT_TRUE(
          same_bits(hinted.apps[i].performance, scratch.apps[i].performance));
      ASSERT_TRUE(same_bits(hinted.apps[i].settling_time,
                            scratch.apps[i].settling_time));
      ASSERT_EQ(hinted.apps[i].feasible, scratch.apps[i].feasible);
      ASSERT_EQ(hinted.apps[i].pattern_key, scratch.apps[i].pattern_key);
    }
  }
  ASSERT_GT(checked, 0);
}

TEST(EvaluateNeighbor, SwapHintReusesUntouchedApps) {
  // Three apps so a segment swap can leave one app's pattern intact:
  // (A, B, A, B, C) -> swap the last two segments -> (A, B, A, C, B).
  SystemModel sys = tiny_system();
  {
    Application c = sys.apps[1];
    c.name = "C";
    c.program = cache::make_calibrated_program(
        "C", cache::CalibratedLayout{80, std::vector<std::size_t>(12, 2), 10},
        sys.cache_config.num_sets(), 2048);
    c.weight = 0.2;
    sys.apps[0].weight = 0.5;
    sys.apps[1].weight = 0.3;
    sys.apps.push_back(c);
  }
  Evaluator ev(sys, fast_options());
  const InterleavedSchedule base(
      {{0, 1}, {1, 1}, {0, 1}, {1, 1}, {2, 1}}, 3);
  const InterleavedSchedule swapped(
      {{0, 1}, {1, 1}, {0, 1}, {2, 1}, {1, 1}}, 3);
  const ScheduleEvaluation base_eval = ev.evaluate(base);

  ScheduleEvaluation plain = ev.evaluate(swapped);
  const int reused_before = ev.apps_reused();
  ScheduleEvaluation hinted = ev.evaluate(swapped, base_eval);
  // App A (index 0) has no task in the swapped window and the window's
  // total duration is unchanged (all cold singletons), so its pattern —
  // and at worst its quantized fingerprint — survives the swap.
  EXPECT_GT(ev.apps_reused(), reused_before);
  ASSERT_TRUE(same_bits(hinted.pall, plain.pall));
  ASSERT_TRUE(timing_identical(hinted.timing, plain.timing));
  for (std::size_t i = 0; i < plain.apps.size(); ++i) {
    ASSERT_TRUE(same_bits(hinted.apps[i].performance,
                          plain.apps[i].performance));
    ASSERT_EQ(hinted.apps[i].pattern_key, plain.apps[i].pattern_key);
  }
}

/// The hybrid lanes raced from \p starts on \p ev, with the anchored
/// neighbor objective or without it (every miss then takes the plain
/// evaluation).
opt::MultiStartResult race_hybrid(Evaluator& ev,
                                  const std::vector<std::vector<int>>& starts,
                                  const opt::HybridOptions& opts,
                                  bool anchored,
                                  catsched::core::ThreadPool* pool) {
  return opt::hybrid_search_multistart(
      catsched::core::make_objective(ev),
      catsched::core::make_cheap_feasible(ev), starts, opts, pool,
      anchored ? catsched::core::make_neighbor_objective(ev) : nullptr);
}

TEST(IncrementalSearch, BitIdenticalToFromScratchAtEveryThreadCount) {
  // The anchored path is the periodic lanes' (the interleaved walk names
  // no anchor): the race with the neighbor objective must match the race
  // without it at every thread count.
  opt::HybridOptions opts;
  opts.max_value = 4;
  const std::vector<std::vector<int>> starts{{1, 1}, {2, 1}};

  Evaluator scratch_ev(tiny_system(), fast_options());
  const opt::MultiStartResult scratch =
      race_hybrid(scratch_ev, starts, opts, false, nullptr);
  ASSERT_TRUE(scratch.combined.found_feasible);
  EXPECT_EQ(scratch_ev.neighbor_evaluations(), 0);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    catsched::core::ThreadPool pool(threads);
    Evaluator inc_ev(tiny_system(), fast_options());
    const opt::MultiStartResult inc = race_hybrid(
        inc_ev, starts, opts, true, threads == 1 ? nullptr : &pool);
    ASSERT_EQ(scratch.combined.found_feasible, inc.combined.found_feasible)
        << threads << " threads";
    EXPECT_EQ(scratch.combined.best, inc.combined.best)
        << threads << " threads";
    EXPECT_TRUE(same_bits(scratch.combined.best_value,
                          inc.combined.best_value))
        << threads << " threads";
    EXPECT_EQ(scratch.unique_evaluations, inc.unique_evaluations)
        << threads << " threads";
    ASSERT_EQ(scratch.runs.size(), inc.runs.size());
    for (std::size_t i = 0; i < scratch.runs.size(); ++i) {
      EXPECT_EQ(scratch.runs[i].path, inc.runs[i].path)
          << threads << " threads, start " << i;
    }
    // Same design work: the anchored path must never run a design the
    // plain path memoized, and its memo counters never exceed the plain
    // counts.
    EXPECT_EQ(scratch_ev.designs_run(), inc_ev.designs_run())
        << threads << " threads";
    EXPECT_LE(inc_ev.design_requests(), scratch_ev.design_requests())
        << threads << " threads";
    EXPECT_EQ(scratch_ev.schedule_evaluations(),
              inc_ev.schedule_evaluations())
        << threads << " threads";
    EXPECT_GT(inc_ev.neighbor_evaluations(), 0) << threads << " threads";
  }
}

TEST(IncrementalHybrid, DeltaRoutedCodesignMatchesPlainObjective) {
  // find_optimal_schedule wires the delta-aware neighbor objective; the
  // plain multistart (no neighbor objective) is the from-scratch baseline.
  opt::HybridOptions hopts;
  hopts.max_value = 4;
  const std::vector<std::vector<int>> starts{{1, 1}, {2, 1}};

  Evaluator plain_ev(tiny_system(), fast_options());
  const auto plain = opt::hybrid_search_multistart(
      catsched::core::make_objective(plain_ev),
      catsched::core::make_cheap_feasible(plain_ev), starts, hopts);

  Evaluator delta_ev(tiny_system(), fast_options());
  const auto routed = catsched::core::find_optimal_schedule(
      delta_ev, starts, hopts);

  ASSERT_EQ(plain.combined.found_feasible, routed.found);
  ASSERT_TRUE(routed.found);
  EXPECT_EQ(plain.combined.best,
            routed.best_schedule.bursts());
  EXPECT_TRUE(
      same_bits(plain.combined.best_value, routed.best_evaluation.pall));
  EXPECT_EQ(plain.unique_evaluations, routed.schedules_evaluated);
  EXPECT_EQ(plain_ev.designs_run(), delta_ev.designs_run());
  EXPECT_LE(delta_ev.design_requests(), plain_ev.design_requests());
}

TEST(StaticMemo, MemoizedAnalysisBitIdenticalWithGuaranteedHits) {
  for (std::uint32_t seed : {1u, 7u, 23u}) {
    cache::RandomProgramOptions opts;
    opts.seed = seed;
    opts.max_depth = 3;
    opts.branch_probability = 0.25;  // bias toward loops (the memo's prey)
    const cache::StructuredProgram prog =
        cache::make_random_program("p", opts);
    cache::CacheConfig cfg;
    cfg.num_lines = 32;
    cfg.associativity = 2;

    const auto plain = cache::analyze_static_app_wcet(prog, cfg);
    cache::StaticAnalysisMemo memo;
    const auto memoized = cache::analyze_static_app_wcet(prog, cfg, &memo);

    EXPECT_EQ(plain.cold.wcet_cycles, memoized.cold.wcet_cycles);
    EXPECT_EQ(plain.cold.always_hit, memoized.cold.always_hit);
    EXPECT_EQ(plain.cold.not_classified, memoized.cold.not_classified);
    EXPECT_TRUE(plain.cold.exit_state == memoized.cold.exit_state);
    EXPECT_EQ(plain.warm.wcet_cycles, memoized.warm.wcet_cycles);
    EXPECT_TRUE(plain.warm.exit_state == memoized.warm.exit_state);
    // Every stabilized multi-iteration loop replays its final probe in the
    // steady pass: with any such loop present the memo must hit.
    if (memo.size() > 0) {
      EXPECT_GT(memo.stats().hits, 0u) << "seed " << seed;
    }
    // A second memoized analysis of the same program is pure hits.
    const auto before = memo.stats();
    const auto again =
        cache::analyze_static_wcet(prog, cfg, std::nullopt, &memo);
    EXPECT_EQ(again.wcet_cycles, plain.cold.wcet_cycles);
    EXPECT_EQ(memo.stats().misses, before.misses);
  }
}

TEST(StaticMemo, CachePairHashRespectsEquality) {
  cache::CacheConfig cfg;
  cfg.num_lines = 16;
  cfg.associativity = 2;
  cache::CachePair a(cfg);
  cache::CachePair b(cfg);
  EXPECT_EQ(cache::CachePairHash{}(a), cache::CachePairHash{}(b));
  a.access(3);
  a.access(7);
  cache::CachePair c(cfg);
  c.access(3);
  c.access(7);
  EXPECT_TRUE(a == c);
  EXPECT_EQ(cache::CachePairHash{}(a), cache::CachePairHash{}(c));
  EXPECT_NE(cache::CachePairHash{}(a), cache::CachePairHash{}(b));
}

}  // namespace
