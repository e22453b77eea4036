/// \file test_edf.cpp
/// \brief EDF-simulation tests: schedulability, job counts, response
///        ranges and input validation.

#include <gtest/gtest.h>

#include "sched/edf.hpp"

namespace {

using catsched::sched::EdfTask;
using catsched::sched::simulate_edf;

TEST(Edf, UnderloadedSetMeetsEveryDeadline) {
  const std::vector<EdfTask> tasks = {{4.0, 1.0}, {6.0, 2.0}};  // U = 7/12
  const auto res = simulate_edf(tasks, 24.0);  // one hyperperiod
  EXPECT_FALSE(res.any_miss);
  EXPECT_NEAR(res.utilization, 1.0 / 4 + 2.0 / 6, 1e-12);
  // Job counts over [0, 24): 6 of task 0, 4 of task 1.
  EXPECT_EQ(res.jobs_of(0).size(), 6u);
  EXPECT_EQ(res.jobs_of(1).size(), 4u);
}

TEST(Edf, FullUtilizationStillSchedulable) {
  // EDF is optimal on one processor: U = 1 exactly meets all deadlines.
  const std::vector<EdfTask> tasks = {{2.0, 1.0}, {4.0, 2.0}};
  const auto res = simulate_edf(tasks, 8.0);
  EXPECT_FALSE(res.any_miss);
}

TEST(Edf, OverloadMissesDeadlines) {
  const std::vector<EdfTask> tasks = {{2.0, 1.5}, {4.0, 1.5}};  // U > 1
  const auto res = simulate_edf(tasks, 16.0);
  EXPECT_TRUE(res.any_miss);
}

TEST(Edf, ResponseRangeCapturesJitter) {
  const std::vector<EdfTask> tasks = {{4.0, 1.0}, {6.0, 2.0}};
  const auto res = simulate_edf(tasks, 24.0);
  const auto r0 = res.response_range(0);
  const auto r1 = res.response_range(1);
  // Task 0's response is at least its WCET, at most its deadline.
  EXPECT_GE(r0.min, 1.0 - 1e-12);
  EXPECT_LE(r0.max, 4.0 + 1e-12);
  // Task 1 is sometimes preempted/delayed: max > min (dynamic timing!).
  EXPECT_GT(r1.max, r1.min);
}

TEST(Edf, RejectsDegenerateInput) {
  EXPECT_THROW(simulate_edf({}, 1.0), std::invalid_argument);
  EXPECT_THROW(simulate_edf({{0.0, 1.0}}, 1.0), std::invalid_argument);
  EXPECT_THROW(simulate_edf({{1.0, 1.0}}, 0.0), std::invalid_argument);
}

}  // namespace
