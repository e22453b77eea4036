// Thread-scaling sweep of the parallel design-space exploration engine on
// the DATE'18 case study: full exhaustive co-design (and the multi-start
// hybrid search) at 1/2/4/8 threads, verifying along the way that every
// run returns the identical best schedule and evaluation counts as the
// serial baseline (the engine's determinism contract). A final section
// sweeps parallel_for chunk sizes on a deterministic heavy-tailed
// synthetic load (most items cheap, a few ~100x — the shape feasibility
// early-outs give candidate evaluation).
//
//   ./build/bench/bench_parallel_scaling          # full paper case study
//   ./build/bench/bench_parallel_scaling --fast   # reduced design budget
//
// Target (ISSUE 1): >= 4x wall-clock speedup at 8 threads on >= 8 cores.
// On machines with fewer cores the sweep still runs; thread counts beyond
// the core count simply stop scaling.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/case_study.hpp"
#include "core/codesign.hpp"
#include "core/parallel.hpp"

using namespace catsched;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

control::DesignOptions fast_options() {
  control::DesignOptions o = core::date18_design_options();
  o.pso.particles = 10;
  o.pso.iterations = 15;
  o.pso.stall_iterations = 6;
  o.scale_budget_with_dims = false;
  return o;
}

struct RunResult {
  double seconds = 0.0;
  std::vector<int> best;
  double pall = 0.0;
  int enumerated = 0;
  int designs_run = 0;
  int design_requests = 0;
};

/// Design-memo hit rate of one run: hits are memo wins, misses are the
/// batched design kernel actually executing — printing both attributes a
/// speedup to the right layer.
double hit_pct(const RunResult& r) {
  return r.design_requests > 0
             ? 100.0 * static_cast<double>(r.design_requests - r.designs_run) /
                   static_cast<double>(r.design_requests)
             : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool fast = argc == 2 && std::strcmp(argv[1], "--fast") == 0;
  if (argc > 1 && !fast) {
    std::fprintf(stderr, "usage: %s [--fast]\n", argv[0]);
    return 2;
  }
  const core::SystemModel sys = core::date18_case_study();
  const control::DesignOptions design =
      fast ? fast_options() : core::date18_design_options();
  opt::HybridOptions hopts;
  hopts.tolerance = 0.005;

  std::printf("hardware threads: %zu%s\n", core::hardware_threads(),
              fast ? "   (--fast design budget)" : "");

  // The pool reaches both layers: exhaustive_codesign batches candidate
  // schedules, and the evaluator batches each schedule's per-app designs
  // plus every design's PSO generations (nested parallel_for).
  auto run_exhaustive = [&](core::ThreadPool* pool) {
    core::Evaluator ev(sys, design, pool);
    const auto t0 = Clock::now();
    const auto res = core::exhaustive_codesign(ev, hopts, pool);
    RunResult r;
    r.seconds = seconds_since(t0);
    r.best = res.best_schedule.bursts();
    r.pall = res.details.best_value;
    r.enumerated = res.details.enumerated;
    r.designs_run = ev.designs_run();
    r.design_requests = ev.design_requests();
    return r;
  };

  std::printf("\n== exhaustive_codesign (DATE'18 case study) ==\n");
  const RunResult serial = run_exhaustive(nullptr);
  std::printf("  serial    %8.2fs  best=(%d,%d,%d) Pall=%.4f "
              "enumerated=%d designs=%d/%d (%.1f%% memo hits)\n",
              serial.seconds, serial.best[0], serial.best[1], serial.best[2],
              serial.pall, serial.enumerated, serial.designs_run,
              serial.design_requests, hit_pct(serial));

  bool consistent = true;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    core::ThreadPool pool(threads);
    const RunResult r = run_exhaustive(&pool);
    const bool same = r.best == serial.best && r.pall == serial.pall &&
                      r.enumerated == serial.enumerated &&
                      r.designs_run == serial.designs_run &&
                      r.design_requests == serial.design_requests;
    consistent = consistent && same;
    std::printf("  %zu thread%s %8.2fs  speedup %5.2fx  designs %d/%d  %s\n",
                threads, threads == 1 ? " " : "s", r.seconds,
                serial.seconds / r.seconds, r.designs_run, r.design_requests,
                same ? "identical result" : "RESULT MISMATCH");
  }

  std::printf("\n== hybrid multi-start (4 starts) ==\n");
  const std::vector<std::vector<int>> starts{{4, 2, 2}, {1, 2, 1},
                                             {2, 2, 2}, {1, 1, 1}};
  auto run_hybrid = [&](core::ThreadPool* pool) {
    core::Evaluator ev(sys, design, pool);
    const auto t0 = Clock::now();
    const auto res = core::find_optimal_schedule(ev, starts, hopts, pool);
    RunResult r;
    r.seconds = seconds_since(t0);
    r.best = res.best_schedule.bursts();
    r.pall = res.best_evaluation.pall;
    r.enumerated = res.schedules_evaluated;
    r.designs_run = ev.designs_run();
    r.design_requests = ev.design_requests();
    return r;
  };
  const RunResult hserial = run_hybrid(nullptr);
  std::printf("  serial    %8.2fs  best=(%d,%d,%d) Pall=%.4f evals=%d "
              "designs=%d/%d (%.1f%% memo hits)\n",
              hserial.seconds, hserial.best[0], hserial.best[1],
              hserial.best[2], hserial.pall, hserial.enumerated,
              hserial.designs_run, hserial.design_requests, hit_pct(hserial));
  for (const std::size_t threads : {2u, 4u, 8u}) {
    core::ThreadPool pool(threads);
    const RunResult r = run_hybrid(&pool);
    const bool same = r.best == hserial.best && r.pall == hserial.pall &&
                      r.enumerated == hserial.enumerated &&
                      r.designs_run == hserial.designs_run &&
                      r.design_requests == hserial.design_requests;
    consistent = consistent && same;
    std::printf("  %zu threads %8.2fs  speedup %5.2fx  designs %d/%d  %s\n",
                threads, r.seconds, hserial.seconds / r.seconds,
                r.designs_run, r.design_requests,
                same ? "identical result" : "RESULT MISMATCH");
  }

  std::printf("\n== chunked parallel_for, heavy-tailed synthetic load ==\n");
  // Item i costs ~40 work units, except 1 in 16 items which cost ~100x
  // (deterministic via mix64). Chunk 1 claims one item per atomic, the
  // default (~8 chunks/thread, capped 64) amortizes the claim while
  // bounding how many items a straggler chunk can strand.
  constexpr std::size_t kItems = 4096;
  auto item_cost = [](std::size_t i) -> std::uint64_t {
    const std::uint64_t r = core::mix64(static_cast<std::uint64_t>(i));
    return 40 + (r % 16 == 0 ? 4000 : 0) + r % 64;
  };
  auto spin = [&](std::size_t i) {
    double x = 1.0;
    for (std::uint64_t k = item_cost(i) * 100; k > 0; --k) {
      x = x * 1.0000001 + 1e-9;
    }
    volatile double sink = x;
    (void)sink;
  };
  double chunk_serial = 0.0;
  {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kItems; ++i) spin(i);
    chunk_serial = seconds_since(t0);
    std::printf("  serial                %8.3fs\n", chunk_serial);
  }
  for (const std::size_t threads : {2u, 4u, 8u}) {
    core::ThreadPool pool(threads);
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{0},
                                    std::size_t{16}, std::size_t{64}}) {
      const auto t0 = Clock::now();
      pool.parallel_for(kItems, chunk, spin);
      const double secs = seconds_since(t0);
      char label[32];
      if (chunk == 0) {
        std::snprintf(label, sizeof label, "default(%zu)",
                      core::ThreadPool::default_chunk(kItems, threads + 1));
      } else {
        std::snprintf(label, sizeof label, "%zu", chunk);
      }
      std::printf("  %zu threads chunk=%-11s %8.3fs  speedup %5.2fx\n",
                  threads, label, secs, chunk_serial / secs);
    }
  }

  if (!consistent) {
    std::printf("\nFAIL: parallel results diverged from serial\n");
    return 1;
  }
  std::printf("\nall parallel runs bit-identical to serial\n");
  return 0;
}
