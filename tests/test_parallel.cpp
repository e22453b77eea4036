/// \file test_parallel.cpp
/// \brief Tests for the parallel design-space exploration engine: thread
///        pool semantics (coverage, chunked scheduling under high cost
///        variance, nesting, exceptions), the vector hash,
///        the compute-once concurrent memo map, the thread-safe EvalCache,
///        and — the contract everything above exists for — bit-identical
///        serial-vs-parallel co-design results on a reduced DATE'18-style
///        system.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/case_study.hpp"
#include "core/codesign.hpp"
#include "core/parallel.hpp"

using namespace catsched;
using namespace catsched::core;

// ------------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  auto fut = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForHandlesEdgeSizes) {
  ThreadPool pool(2);
  int zero_calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++zero_calls; });
  EXPECT_EQ(zero_calls, 0);

  std::atomic<int> one_calls{0};
  pool.parallel_for(1, [&](std::size_t) { ++one_calls; });
  EXPECT_EQ(one_calls.load(), 1);
}

TEST(ThreadPool, ChunkedParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t n = 1000;
  // Chunk 1 (fully dynamic), an odd size that does not divide n, the
  // low-variance default (0), exactly n, and past n (degenerates to one
  // chunk drained by the caller).
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{0}, n, n + 17}) {
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, chunk, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "chunk " << chunk << " index " << i;
    }
  }
}

TEST(ThreadPool, ChunkedParallelForHandlesHighVarianceLoad) {
  // Heavy-tailed per-item cost (deterministic via mix64: 1 in 8 items is
  // ~100x the rest) — the starvation shape chunking exists for. Results
  // written to per-index slots must match the serial run exactly.
  constexpr std::size_t n = 512;
  auto work = [](std::size_t i) {
    const std::uint64_t r = mix64(static_cast<std::uint64_t>(i));
    std::uint64_t iters = 20 + (r % 8 == 0 ? 2000 : 0);
    double x = 1.0;
    for (std::uint64_t k = 0; k < iters; ++k) x = x * 1.0001 + 1e-7;
    return x;
  };
  std::vector<double> serial(n);
  for (std::size_t i = 0; i < n; ++i) serial[i] = work(i);

  ThreadPool pool(4);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{0},
                                  std::size_t{64}}) {
    std::vector<double> out(n, 0.0);
    pool.parallel_for(n, chunk, [&](std::size_t i) { out[i] = work(i); });
    EXPECT_EQ(out, serial) << "chunk " << chunk;
  }
}

TEST(ThreadPool, ChunkedParallelForNests) {
  // Chunked outer loop whose body runs a chunked inner loop on the same
  // pool: the caller-participates rule must keep this deadlock-free for
  // every chunk-size combination.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(8, 3, [&](std::size_t) {
    pool.parallel_for(8, 2, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, DefaultChunkIsLowVarianceAndBounded) {
  // Tiny loops: one item per claim (best balance under cost variance).
  EXPECT_EQ(ThreadPool::default_chunk(0, 4), 1u);
  EXPECT_EQ(ThreadPool::default_chunk(1, 4), 1u);
  EXPECT_EQ(ThreadPool::default_chunk(30, 4), 1u);
  // ~8 chunks per participant once the loop is big enough.
  EXPECT_EQ(ThreadPool::default_chunk(320, 4), 10u);
  // Capped so a huge loop's straggler chunk stays bounded.
  EXPECT_EQ(ThreadPool::default_chunk(1u << 20, 2), 64u);
  // Degenerate participant count never divides by zero.
  EXPECT_GE(ThreadPool::default_chunk(100, 0), 1u);
}

TEST(ThreadPool, ChunkedSerialFallbackHelperRunsInline) {
  std::vector<int> order;
  parallel_for(nullptr, 5, 2, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // A pool task that itself runs a parallel_for on the same pool must make
  // progress even when every worker is busy (the caller participates).
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   ran.fetch_add(1);
                                   if (i == 17) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // Fail-fast stops further chunk claims after the throw; how many bodies
  // ran before it depends on scheduling, so only the propagation is pinned
  // here — the short-circuit bound is pinned deterministically below.
  EXPECT_GE(ran.load(), 1);
  EXPECT_LE(ran.load(), 100);
}

TEST(ThreadPool, ParallelForFailFastShortCircuitsRemainingChunks) {
  // An immediate throw from the very first iteration must leave almost the
  // whole index space unexecuted: workers observing the failure count
  // their claimed chunks done without running the bodies. With chunk = 1
  // the in-flight exposure is at most one iteration per participant.
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_for(10000, 1,
                                 [&](std::size_t) {
                                   ran.fetch_add(1);
                                   throw std::runtime_error("first");
                                 }),
               std::runtime_error);
  // Every participant (4 workers + caller) can have claimed at most one
  // chunk before observing the failure flag.
  EXPECT_LE(ran.load(), 5);
}

TEST(ThreadPool, SerialFallbackHelperRunsInline) {
  std::vector<int> order;
  parallel_for(nullptr, 5, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));  // single-threaded: stays ordered
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ParallelForBudgetShortCircuitsRemainingChunks) {
  // A budget that fires mid-loop stops further chunk claims without
  // throwing: the loop returns normally with partial execution. Same
  // one-in-flight-iteration bound as fail-fast.
  ThreadPool pool(4);
  RunBudget budget;
  std::atomic<int> ran{0};
  pool.parallel_for(
      10000, 1,
      [&](std::size_t) {
        ran.fetch_add(1);
        budget.request_stop();
      },
      &budget);
  EXPECT_GE(ran.load(), 1);
  EXPECT_LE(ran.load(), 5);  // 4 workers + caller, <= 1 body each
  EXPECT_EQ(budget.reason(), core::StopReason::stop_requested);
}

TEST(ThreadPool, SerialParallelForChecksBudgetPerIteration) {
  // The serial fallback checks the budget before every iteration, so an
  // external stop cuts it off at the very next index.
  RunBudget budget;
  std::vector<int> order;
  parallel_for(nullptr, 100, 4, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
    if (i == 2) budget.request_stop();
  }, &budget);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(ThreadPool, PreFiredBudgetRunsNothing) {
  ThreadPool pool(2);
  RunBudget budget;
  budget.request_stop();
  std::atomic<int> ran{0};
  pool.parallel_for(64, 1, [&](std::size_t) { ran.fetch_add(1); }, &budget);
  parallel_for(nullptr, 64, 8, [&](std::size_t) { ran.fetch_add(1); }, &budget);
  EXPECT_EQ(ran.load(), 0);
}

TEST(ThreadPool, NestedParallelForPropagatesInnerException) {
  // An exception thrown inside a nested parallel_for must propagate out of
  // the inner loop into the outer body, fail-fast the outer loop, and
  // surface to the caller — with every worker released (no deadlock).
  ThreadPool pool(2);
  std::atomic<int> outer_ran{0};
  EXPECT_THROW(pool.parallel_for(8,
                                 [&](std::size_t) {
                                   outer_ran.fetch_add(1);
                                   pool.parallel_for(8, [&](std::size_t j) {
                                     if (j == 3) {
                                       throw std::runtime_error("inner");
                                     }
                                   });
                                 }),
               std::runtime_error);
  EXPECT_GE(outer_ran.load(), 1);
  // The pool must still be fully serviceable afterwards.
  std::atomic<int> after{0};
  pool.parallel_for(16, [&](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 16);
}

TEST(ThreadPool, SharedPoolExists) {
  EXPECT_GE(ThreadPool::shared().size(), 1u);
}

// ------------------------------------------------------------- VectorHash

TEST(VectorHash, DistinguishesNearbySchedules) {
  VectorHash h;
  std::set<std::size_t> hashes;
  for (int a = 1; a <= 8; ++a) {
    for (int b = 1; b <= 8; ++b) {
      for (int c = 1; c <= 8; ++c) {
        hashes.insert(h(std::vector<int>{a, b, c}));
      }
    }
  }
  // A strong hash over 512 tiny schedules should not collide at all.
  EXPECT_EQ(hashes.size(), 512u);
  EXPECT_EQ(h(std::vector<int>{1, 2}), h(std::vector<int>{1, 2}));
  EXPECT_NE(h(std::vector<int>{1, 2}), h(std::vector<int>{2, 1}));
}

// ------------------------------------------------------ ConcurrentMemoMap

TEST(ConcurrentMemoMap, ComputesEachKeyExactlyOnceUnderContention) {
  ConcurrentMemoMap<std::vector<int>, int, VectorHash> memo;
  std::atomic<int> computes{0};
  ThreadPool pool(8);
  constexpr int kKeys = 20;
  pool.parallel_for(800, [&](std::size_t i) {
    const std::vector<int> key{static_cast<int>(i) % kKeys};
    const int v = memo.get_or_compute(key, [&] {
      computes.fetch_add(1);
      return key[0] * 10;
    });
    ASSERT_EQ(v, (static_cast<int>(i) % kKeys) * 10);
  });
  EXPECT_EQ(computes.load(), kKeys);
  EXPECT_EQ(memo.size(), static_cast<std::size_t>(kKeys));
}

// -------------------------------------------------- EvalCache (thread-safe)

TEST(EvalCache, ConcurrentEvaluationsDeduplicate) {
  std::atomic<int> objective_calls{0};
  opt::EvalCache cache([&](const std::vector<int>& p) {
    objective_calls.fetch_add(1);
    return opt::EvalOutcome{static_cast<double>(p[0] + p[1]), true};
  });
  ThreadPool pool(8);
  pool.parallel_for(400, [&](std::size_t i) {
    const std::vector<int> p{static_cast<int>(i % 10), static_cast<int>(i % 7)};
    const opt::EvalOutcome& out =
        *cache.evaluate_batch({&p}, {nullptr}, nullptr).front().outcome;
    ASSERT_EQ(out.value, static_cast<double>(p[0] + p[1]));
  });
  // 10 x 7 distinct points; every extra call was a memo hit.
  EXPECT_EQ(objective_calls.load(), 70);
  EXPECT_EQ(cache.unique_evaluations(), 70);
}

TEST(EvalCache, BatchKeepsInputOrderAndDeduplicates) {
  std::atomic<int> objective_calls{0};
  opt::EvalCache cache([&](const std::vector<int>& p) {
    objective_calls.fetch_add(1);
    return opt::EvalOutcome{static_cast<double>(p[0]), p[0] % 2 == 0};
  });
  ThreadPool pool(4);
  std::vector<std::vector<int>> points;
  for (int k = 0; k < 50; ++k) points.push_back({k % 5});
  std::vector<const std::vector<int>*> batch;
  for (const auto& p : points) batch.push_back(&p);
  const std::vector<const std::vector<int>*> bases(batch.size(), nullptr);
  const auto outs = cache.evaluate_batch(batch, bases, &pool);
  ASSERT_EQ(outs.size(), batch.size());
  int misses = 0;
  for (std::size_t k = 0; k < batch.size(); ++k) {
    ASSERT_EQ(outs[k].outcome->value, static_cast<double>(points[k][0]));
    if (outs[k].missed) ++misses;
  }
  EXPECT_EQ(objective_calls.load(), 5);
  // Per-slot miss accounting matches the objective-call count.
  EXPECT_EQ(misses, 5);
}

// ------------------------------------- serial vs parallel co-design results

namespace {

/// Reduced two-app system in the spirit of the DATE'18 case study (same
/// cache, smaller programs, cheap deterministic design budget) so the
/// equivalence check runs a full exhaustive + multi-start search quickly.
SystemModel reduced_system() {
  SystemModel sys;
  sys.cache_config = date18_cache_config();
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
    a.y0 = 0.0;
    return a;
  };
  sys.apps = {make_app("A", 100, 16, 0, 110.0, 0.6),
              make_app("B", 90, 22, 1024, 140.0, 0.4)};
  return sys;
}

control::DesignOptions fast_options() {
  control::DesignOptions o = date18_design_options();
  o.pso.particles = 10;
  o.pso.iterations = 12;
  o.pso.stall_iterations = 6;
  o.pso_restarts = 1;
  o.scale_budget_with_dims = false;
  return o;
}

}  // namespace

TEST(SerialParallelEquivalence, ExhaustiveCodesignIsBitIdentical) {
  opt::HybridOptions hopts;
  hopts.max_value = 8;

  Evaluator serial_ev(reduced_system(), fast_options());
  const auto serial = exhaustive_codesign(serial_ev, hopts, nullptr);

  ThreadPool pool(4);
  Evaluator parallel_ev(reduced_system(), fast_options());
  const auto parallel = exhaustive_codesign(parallel_ev, hopts, &pool);

  ASSERT_EQ(serial.found, parallel.found);
  EXPECT_EQ(serial.best_schedule.bursts(), parallel.best_schedule.bursts());
  EXPECT_EQ(serial.best_evaluation.pall, parallel.best_evaluation.pall);
  EXPECT_EQ(serial.details.enumerated, parallel.details.enumerated);
  EXPECT_EQ(serial.details.control_feasible, parallel.details.control_feasible);
  ASSERT_EQ(serial.details.all.size(), parallel.details.all.size());
  for (std::size_t i = 0; i < serial.details.all.size(); ++i) {
    ASSERT_EQ(serial.details.all[i].first, parallel.details.all[i].first);
    ASSERT_EQ(serial.details.all[i].second.value,
              parallel.details.all[i].second.value);
    ASSERT_EQ(serial.details.all[i].second.feasible,
              parallel.details.all[i].second.feasible);
  }
  // Same design work done (each timing pattern designed exactly once).
  EXPECT_EQ(serial_ev.designs_run(), parallel_ev.designs_run());
}

TEST(SerialParallelEquivalence, MultiStartHybridMatchesSerial) {
  opt::HybridOptions hopts;
  hopts.max_value = 8;
  hopts.tolerance = 0.005;
  const std::vector<std::vector<int>> starts{{1, 1}, {2, 2}, {4, 2}, {1, 3}};

  Evaluator serial_ev(reduced_system(), fast_options());
  const auto serial =
      find_optimal_schedule(serial_ev, starts, hopts, nullptr);

  ThreadPool pool(4);
  Evaluator parallel_ev(reduced_system(), fast_options());
  const auto parallel =
      find_optimal_schedule(parallel_ev, starts, hopts, &pool);

  ASSERT_EQ(serial.found, parallel.found);
  EXPECT_EQ(serial.best_schedule.bursts(), parallel.best_schedule.bursts());
  EXPECT_EQ(serial.best_evaluation.pall, parallel.best_evaluation.pall);
  // The paper's "evaluated schedules" accounting must agree exactly.
  EXPECT_EQ(serial.schedules_evaluated, parallel.schedules_evaluated);
  ASSERT_EQ(serial.search.runs.size(), parallel.search.runs.size());
  int serial_sum = 0;
  int parallel_sum = 0;
  for (std::size_t i = 0; i < serial.search.runs.size(); ++i) {
    EXPECT_EQ(serial.search.runs[i].path, parallel.search.runs[i].path)
        << "run " << i;
    EXPECT_EQ(serial.search.runs[i].best_value,
              parallel.search.runs[i].best_value)
        << "run " << i;
    // The starts race as lock-step lanes: a point costs the first lane
    // that proposed it in its round, whatever the thread count.
    EXPECT_EQ(serial.search.runs[i].new_evaluations,
              parallel.search.runs[i].new_evaluations)
        << "run " << i;
    serial_sum += serial.search.runs[i].new_evaluations;
    parallel_sum += parallel.search.runs[i].new_evaluations;
  }
  // Each unique point is charged to exactly one run in both modes.
  EXPECT_EQ(serial_sum, serial.search.unique_evaluations);
  EXPECT_EQ(parallel_sum, parallel.search.unique_evaluations);
}

// --------------------------------------------------- evaluator fault path

TEST(EvaluatorFaults, InjectedDesignFaultPropagatesAndMemoStaysRetryable) {
  // A fault thrown inside a pooled controller design must surface as
  // FaultInjected through the worker threads without deadlocking, and the
  // design memo's once-flag must not latch on the exceptional compute —
  // the retried evaluation recomputes the entry and succeeds bit-identical
  // to an undisturbed evaluator.
  ThreadPool pool(4);
  FaultPlan fault;
  fault.fail_evaluation_at = 1;
  EvaluatorOptions eopts;
  eopts.fault = &fault;
  Evaluator faulty(reduced_system(), fast_options(), &pool, eopts);
  const sched::PeriodicSchedule rr({1, 1});
  ASSERT_TRUE(faulty.idle_feasible(rr));
  EXPECT_THROW(faulty.evaluate(rr), FaultInjected);

  const auto retried = faulty.evaluate(rr);  // fault is one-shot

  Evaluator clean(reduced_system(), fast_options(), &pool);
  const auto reference = clean.evaluate(rr);
  EXPECT_EQ(retried.pall, reference.pall);
  EXPECT_EQ(retried.idle_feasible, reference.idle_feasible);
  EXPECT_EQ(retried.control_feasible, reference.control_feasible);

  // The pool survived the exceptional batch and still services work.
  std::atomic<int> after{0};
  pool.parallel_for(32, [&](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 32);
}
