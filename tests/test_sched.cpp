// Unit tests for schedule types and timing derivation (paper Sec. II-C).

#include <gtest/gtest.h>

#include "sched/schedule.hpp"
#include "sched/timing.hpp"

using namespace catsched::sched;

namespace {

// The paper's Table I WCETs in seconds.
const std::vector<AppWcet> kDate18 = {
    {907.55e-6, 452.15e-6}, {645.25e-6, 175.00e-6}, {749.15e-6, 234.35e-6}};

}  // namespace

TEST(PeriodicSchedule, ValidationAndBasics) {
  PeriodicSchedule s({2, 1, 3});
  EXPECT_EQ(s.num_apps(), 3u);
  EXPECT_EQ(s.tasks_per_period(), 6u);
  EXPECT_EQ(s.to_string(), "(2, 1, 3)");
  EXPECT_EQ(s.task_sequence(),
            (std::vector<std::size_t>{0, 0, 1, 2, 2, 2}));
  EXPECT_THROW(PeriodicSchedule(std::vector<int>{}), std::invalid_argument);
  EXPECT_THROW(PeriodicSchedule({1, 0}), std::invalid_argument);
  EXPECT_EQ(s.with_burst(1, 4).burst(1), 4);
  EXPECT_THROW(s.with_burst(1, 0), std::invalid_argument);
  EXPECT_THROW(s.with_burst(9, 1), std::invalid_argument);
}

TEST(InterleavedSchedule, ValidationAndBasics) {
  InterleavedSchedule s({{0, 2}, {1, 1}, {0, 1}, {2, 2}}, 3);
  EXPECT_EQ(s.tasks_of(0), 3);
  EXPECT_EQ(s.task_sequence(),
            (std::vector<std::size_t>{0, 0, 1, 0, 2, 2}));
  // Adjacent same-app segments rejected (incl. cyclic adjacency).
  EXPECT_THROW(InterleavedSchedule({{0, 1}, {0, 1}}, 1), std::invalid_argument);
  EXPECT_THROW(InterleavedSchedule({{0, 1}, {1, 1}, {0, 1}}, 2),
               std::invalid_argument);  // wraps: last app == first app
  // Every app must appear.
  EXPECT_THROW(InterleavedSchedule({{0, 1}}, 2), std::invalid_argument);
  EXPECT_THROW(InterleavedSchedule({{5, 1}}, 2), std::invalid_argument);
}

TEST(Timing, PaperExampleSchedule222) {
  // Reproduce the relationships of paper Fig. 4 for (2, 2, 2).
  const auto t = derive_timing(kDate18, PeriodicSchedule({2, 2, 2}));
  ASSERT_EQ(t.apps.size(), 3u);
  // Schedule period = sum over apps of cold + warm.
  const double period = (907.55 + 452.15 + 645.25 + 175.00 + 749.15 + 234.35) *
                        1e-6;
  EXPECT_NEAR(t.period, period, 1e-12);

  // C1: h1(1) = Ewc1(1), h1(2) = Ewc1(2) + Delta1.
  const auto& c1 = t.apps[0];
  ASSERT_EQ(c1.intervals.size(), 2u);
  EXPECT_NEAR(c1.intervals[0].h, 907.55e-6, 1e-12);
  EXPECT_NEAR(c1.intervals[0].tau, 907.55e-6, 1e-12);
  EXPECT_FALSE(c1.intervals[0].warm);
  const double delta1 = (645.25 + 175.00 + 749.15 + 234.35) * 1e-6;
  EXPECT_NEAR(c1.intervals[1].h, 452.15e-6 + delta1, 1e-12);
  EXPECT_NEAR(c1.intervals[1].tau, 452.15e-6, 1e-12);
  EXPECT_TRUE(c1.intervals[1].warm);

  // tau never exceeds h; per-app interval sums equal the period.
  for (const auto& app : t.apps) {
    EXPECT_NEAR(app.period(), period, 1e-12);
    for (const auto& iv : app.intervals) {
      EXPECT_LE(iv.tau, iv.h + 1e-15);
    }
  }
}

TEST(Timing, RoundRobinAllCold) {
  const auto t = derive_timing(kDate18, PeriodicSchedule({1, 1, 1}));
  const double period = (907.55 + 645.25 + 749.15) * 1e-6;
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(t.apps[i].intervals.size(), 1u);
    EXPECT_FALSE(t.apps[i].intervals[0].warm);
    EXPECT_NEAR(t.apps[i].intervals[0].h, period, 1e-12);
    EXPECT_NEAR(t.apps[i].intervals[0].tau, kDate18[i].cold_seconds, 1e-12);
  }
}

TEST(Timing, SingleAppAllWarm) {
  // One application alone: in steady state even the "first" task reuses its
  // own cache image.
  const auto t = derive_timing({{100e-6, 40e-6}}, PeriodicSchedule({3}));
  for (const auto& iv : t.apps[0].intervals) {
    EXPECT_TRUE(iv.warm);
    EXPECT_NEAR(iv.tau, 40e-6, 1e-15);
  }
  EXPECT_NEAR(t.period, 120e-6, 1e-15);
}

TEST(Timing, HmaxAndLongestInterval) {
  const auto t = derive_timing(kDate18, PeriodicSchedule({3, 2, 3}));
  const auto& c1 = t.apps[0];
  EXPECT_EQ(c1.longest_interval(), 2u);  // the idle-gap interval
  EXPECT_NEAR(c1.h_max(), c1.intervals[2].h, 1e-15);
  EXPECT_GT(c1.idle_total(), 0.0);
}

TEST(Timing, IdleFeasibilityTableII) {
  const std::vector<double> tidle = {3.4e-3, 3.9e-3, 3.5e-3};
  EXPECT_TRUE(idle_feasible(derive_timing(kDate18, PeriodicSchedule({1, 1, 1})),
                            tidle));
  EXPECT_TRUE(idle_feasible(derive_timing(kDate18, PeriodicSchedule({3, 2, 3})),
                            tidle));
  // Blowing up one burst must eventually violate another app's idle bound.
  EXPECT_FALSE(idle_feasible(
      derive_timing(kDate18, PeriodicSchedule({9, 1, 1})), tidle));
  EXPECT_THROW(idle_feasible(derive_timing(kDate18, PeriodicSchedule({1, 1, 1})),
                             {1.0}),
               std::invalid_argument);
}

TEST(Timing, InterleavedColdWarmClassification) {
  // (C1 x 2, C2 x 1, C1 x 1, C3 x 1): the lone C1 task is cold (C2 ran in
  // between); C1's burst leader is cold; second of burst warm.
  InterleavedSchedule s({{0, 2}, {1, 1}, {0, 1}, {2, 1}}, 3);
  const auto t = derive_timing(kDate18, s);
  const auto& c1 = t.apps[0];
  ASSERT_EQ(c1.intervals.size(), 3u);
  EXPECT_FALSE(c1.intervals[0].warm);
  EXPECT_TRUE(c1.intervals[1].warm);
  EXPECT_FALSE(c1.intervals[2].warm);
}

TEST(Timing, InterleavedMatchesPeriodicWhenEquivalent) {
  const auto tp = derive_timing(kDate18, PeriodicSchedule({2, 2, 2}));
  const auto ti = derive_timing(
      kDate18, InterleavedSchedule::from_periodic(PeriodicSchedule({2, 2, 2})));
  ASSERT_EQ(tp.apps.size(), ti.apps.size());
  EXPECT_NEAR(tp.period, ti.period, 1e-15);
  for (std::size_t i = 0; i < tp.apps.size(); ++i) {
    ASSERT_EQ(tp.apps[i].intervals.size(), ti.apps[i].intervals.size());
    for (std::size_t j = 0; j < tp.apps[i].intervals.size(); ++j) {
      EXPECT_NEAR(tp.apps[i].intervals[j].h, ti.apps[i].intervals[j].h, 1e-15);
      EXPECT_NEAR(tp.apps[i].intervals[j].tau, ti.apps[i].intervals[j].tau,
                  1e-15);
    }
  }
}

TEST(Timing, RejectsBadWcets) {
  EXPECT_THROW(derive_timing({{0.0, 0.0}}, PeriodicSchedule({1})),
               std::invalid_argument);
  EXPECT_THROW(derive_timing({{1.0, 2.0}}, PeriodicSchedule({1})),
               std::invalid_argument);  // warm > cold
  EXPECT_THROW(derive_timing(kDate18, PeriodicSchedule({1, 1})),
               std::invalid_argument);  // count mismatch
}

// Parameterized sweep: for every (m1, m2) burst combination, timing
// invariants hold (period consistency, tau <= h, warm flags pattern).
class TimingSweep : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(TimingSweep, Invariants) {
  const auto [m1, m2] = GetParam();
  const std::vector<AppWcet> w = {{1.0e-3, 0.4e-3}, {0.8e-3, 0.3e-3}};
  const auto t = derive_timing(w, PeriodicSchedule({m1, m2}));
  const double period = 1.0e-3 + (m1 - 1) * 0.4e-3 + 0.8e-3 + (m2 - 1) * 0.3e-3;
  EXPECT_NEAR(t.period, period, 1e-12);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_NEAR(t.apps[i].period(), period, 1e-12);
    const auto& ivs = t.apps[i].intervals;
    for (std::size_t j = 0; j < ivs.size(); ++j) {
      EXPECT_LE(ivs[j].tau, ivs[j].h + 1e-15);
      EXPECT_EQ(ivs[j].warm, j != 0);  // burst leader cold, rest warm
    }
    // Idle gap is on the last task of the burst.
    EXPECT_EQ(t.apps[i].longest_interval(), ivs.size() - 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Bursts, TimingSweep,
    ::testing::Values(std::pair{1, 1}, std::pair{1, 4}, std::pair{2, 2},
                      std::pair{3, 1}, std::pair{4, 5}, std::pair{7, 2}));
