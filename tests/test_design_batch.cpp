/// \file test_design_batch.cpp
/// \brief Determinism contract of the batched controller-design path:
///        design_controller with a thread pool and Evaluator::evaluate with
///        pooled per-app designs must both be bit-identical to their serial
///        counterparts at every thread count — the pool decides where
///        candidates are evaluated, never what. Also pins the PSO
///        batch_eval hook's serial reduction.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "control/design.hpp"
#include "core/case_study.hpp"
#include "core/evaluator.hpp"
#include "core/parallel.hpp"
#include "opt/pso.hpp"
#include "sched/timing.hpp"

namespace {

using catsched::control::DesignOptions;
using catsched::control::DesignResult;
using catsched::control::DesignSpec;
using catsched::core::Evaluator;
using catsched::core::SystemModel;
using catsched::core::ThreadPool;
namespace control = catsched::control;
namespace core = catsched::core;
namespace opt = catsched::opt;
namespace sched = catsched::sched;

/// Small fixed design budget: determinism must hold at any budget, so the
/// tests use one that keeps a full design in the tens of milliseconds.
DesignOptions tiny_options() {
  DesignOptions o = core::date18_design_options();
  o.pso.particles = 6;
  o.pso.iterations = 8;
  o.pso.stall_iterations = 4;
  o.pso_restarts = 1;
  o.scale_budget_with_dims = false;
  return o;
}

::testing::AssertionResult same_result(const DesignResult& a,
                                       const DesignResult& b) {
  if (a.gains.k != b.gains.k) {
    return ::testing::AssertionFailure() << "gain matrices differ";
  }
  if (a.gains.f != b.gains.f) {
    return ::testing::AssertionFailure() << "feedforward differs";
  }
  // Exact comparison throughout (infinity == infinity is true, which is
  // what an infeasible-design match should be).
  if (a.settling_time != b.settling_time || a.settled != b.settled ||
      a.u_max_abs != b.u_max_abs || a.spectral_radius != b.spectral_radius ||
      a.feasible != b.feasible || a.pso_evaluations != b.pso_evaluations) {
    return ::testing::AssertionFailure() << "metrics differ";
  }
  return ::testing::AssertionSuccess();
}

struct CaseStudy {
  SystemModel sys = core::date18_case_study();
  sched::ScheduleTiming timing =
      sched::derive_timing(sys.analyze_wcets(),
                           sched::PeriodicSchedule({3, 2, 3}));
  DesignSpec spec_of(std::size_t i) const {
    const auto& a = sys.apps[i];
    DesignSpec spec;
    spec.plant = a.plant;
    spec.umax = a.umax;
    spec.r = a.r;
    spec.y0 = a.y0;
    spec.smax = a.smax;
    return spec;
  }
};

TEST(DesignBatch, PooledDesignControllerIsBitIdenticalToSerial) {
  const CaseStudy cs;
  const DesignOptions opts = tiny_options();
  const DesignResult serial = control::design_controller(
      cs.spec_of(0), cs.timing.apps[0].intervals, opts);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    const DesignResult pooled = control::design_controller(
        cs.spec_of(0), cs.timing.apps[0].intervals, opts, &pool);
    EXPECT_TRUE(same_result(serial, pooled)) << threads << " threads";
  }
}

TEST(DesignBatch, PooledEvaluatorIsBitIdenticalToSerial) {
  const CaseStudy cs;
  const DesignOptions opts = tiny_options();
  const sched::PeriodicSchedule schedule({3, 2, 3});

  Evaluator serial_ev(cs.sys, opts);
  const auto serial = serial_ev.evaluate(schedule);

  for (const std::size_t threads : {2u, 4u}) {
    ThreadPool pool(threads);
    // Fresh evaluator per run: a shared memo would mask design divergence.
    Evaluator ev(cs.sys, opts, &pool);
    EXPECT_EQ(ev.pool(), &pool);
    const auto pooled = ev.evaluate(schedule);
    EXPECT_EQ(serial.pall, pooled.pall) << threads << " threads";
    EXPECT_EQ(serial.idle_feasible, pooled.idle_feasible);
    EXPECT_EQ(serial.control_feasible, pooled.control_feasible);
    ASSERT_EQ(serial.apps.size(), pooled.apps.size());
    for (std::size_t i = 0; i < serial.apps.size(); ++i) {
      EXPECT_EQ(serial.apps[i].settling_time, pooled.apps[i].settling_time);
      EXPECT_EQ(serial.apps[i].performance, pooled.apps[i].performance);
      EXPECT_EQ(serial.apps[i].feasible, pooled.apps[i].feasible);
      EXPECT_TRUE(same_result(serial.apps[i].design, pooled.apps[i].design));
    }
    // The per-app memo stays in the path when batching: one design per app.
    EXPECT_EQ(ev.designs_run(), serial_ev.designs_run());
    EXPECT_EQ(ev.design_requests(), serial_ev.design_requests());
  }
}

/// Rosenbrock as an exact objective: it ignores the bound, which the
/// Objective contract allows.
double rosenbrock(const std::vector<double>& x, double /*bound*/) {
  double s = 0.0;
  for (std::size_t i = 0; i + 1 < x.size(); ++i) {
    const double a = x[i + 1] - x[i] * x[i];
    const double b = 1.0 - x[i];
    s += 100.0 * a * a + b * b;
  }
  return s;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_result(const opt::PsoResult& got, const opt::PsoResult& want,
                        const std::string& where) {
  ASSERT_EQ(got.x.size(), want.x.size()) << where;
  for (std::size_t i = 0; i < got.x.size(); ++i) {
    EXPECT_EQ(bits(got.x[i]), bits(want.x[i])) << where << " x[" << i << "]";
  }
  EXPECT_EQ(bits(got.cost), bits(want.cost)) << where;
  EXPECT_EQ(got.evaluations, want.evaluations) << where;
}

opt::PsoOptions rosenbrock_swarm() {
  opt::PsoOptions o;
  o.particles = 12;
  o.iterations = 40;
  o.seed = 1234;
  return o;
}

// The swarm update consumes costs through a serial index-ordered reduction,
// so any batch evaluator returning f(positions[i]) exactly — regardless of
// the order it fills the slots — leaves the optimum bit-identical.
TEST(DesignBatch, PsoBatchHookIsOrderInvariant) {
  const std::vector<double> lo(4, -2.0);
  const std::vector<double> hi(4, 2.0);
  const opt::PsoOptions base = rosenbrock_swarm();

  const auto plain = opt::pso_minimize(rosenbrock, lo, hi, base);

  // Reverse-order fill: same values, opposite completion order.
  opt::PsoOptions batched = base;
  batched.batch_eval = [&](const std::vector<std::vector<double>>& xs,
                           const std::vector<double>& bounds,
                           std::vector<double>& costs) {
    for (std::size_t i = xs.size(); i-- > 0;) {
      costs[i] = rosenbrock(xs[i], bounds[i]);
    }
  };
  const auto rev = opt::pso_minimize(rosenbrock, lo, hi, batched);
  EXPECT_EQ(plain.x, rev.x);
  EXPECT_EQ(plain.cost, rev.cost);
  EXPECT_EQ(plain.evaluations, rev.evaluations);

  // Pool-backed fill through parallel_for, at several widths.
  for (const std::size_t threads : {2u, 4u}) {
    ThreadPool pool(threads);
    opt::PsoOptions pooled = base;
    pooled.batch_eval = [&](const std::vector<std::vector<double>>& xs,
                            const std::vector<double>& bounds,
                            std::vector<double>& costs) {
      pool.parallel_for(xs.size(), [&](std::size_t i) {
        costs[i] = rosenbrock(xs[i], bounds[i]);
      });
    };
    const auto par = opt::pso_minimize(rosenbrock, lo, hi, pooled);
    EXPECT_EQ(plain.x, par.x);
    EXPECT_EQ(plain.cost, par.cost);
    EXPECT_EQ(plain.evaluations, par.evaluations);
  }
}

// The weakest objective the contract allows — exact below the bound,
// bound + 1e6 (or +infinity) at or above it — leaves the swarm
// bit-identical to the exact objective: each particle is bounded by its
// own best, which is never below the global best, so every comparison the
// reduction makes is already decided. Checked serially, through a
// reverse-fill batch hook and through 2- and 4-thread pools.
TEST(DesignBatch, PsoBoundedObjectiveKeepsEveryBit) {
  const std::vector<double> lo(4, -2.0);
  const std::vector<double> hi(4, 2.0);
  const opt::PsoOptions base = rosenbrock_swarm();
  const auto exact = opt::pso_minimize(rosenbrock, lo, hi, base);

  for (const double beyond : {1e6, std::numeric_limits<double>::infinity()}) {
    std::atomic<int> cut{0};
    const opt::Objective adversarial = [&](const std::vector<double>& x,
                                           double bound) {
      const double c = rosenbrock(x, bound);
      if (c < bound) return c;
      ++cut;
      return bound + beyond;
    };
    const std::string tail = beyond < 1e300 ? "+1e6" : "+inf";
    expect_same_result(opt::pso_minimize(adversarial, lo, hi, base), exact,
                       "serial " + tail);

    opt::PsoOptions reversed = base;
    reversed.batch_eval = [&](const std::vector<std::vector<double>>& xs,
                              const std::vector<double>& bounds,
                              std::vector<double>& costs) {
      for (std::size_t i = xs.size(); i-- > 0;) {
        costs[i] = adversarial(xs[i], bounds[i]);
      }
    };
    expect_same_result(opt::pso_minimize(adversarial, lo, hi, reversed),
                       exact, "reverse fill " + tail);

    for (const std::size_t threads : {2u, 4u}) {
      ThreadPool pool(threads);
      opt::PsoOptions pooled = base;
      pooled.batch_eval = [&](const std::vector<std::vector<double>>& xs,
                              const std::vector<double>& bounds,
                              std::vector<double>& costs) {
        pool.parallel_for(xs.size(), [&](std::size_t i) {
          costs[i] = adversarial(xs[i], bounds[i]);
        });
      };
      expect_same_result(opt::pso_minimize(adversarial, lo, hi, pooled),
                         exact,
                         std::to_string(threads) + " threads " + tail);
    }
    EXPECT_GT(cut.load(), 0) << tail;  // the bounded path was taken
  }
}

}  // namespace
