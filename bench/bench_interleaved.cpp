// Interleaved-schedule search (the paper's Sec. VI future work): start the
// segment-level local search from the best *periodic* schedule and report
// whether general interleavings (e.g. (m1(1), m2, m1(2), m3)) buy further
// control performance on the case study, and at what evaluation cost.
//
// The search is the largest design space in the codebase, so this bench
// also sweeps it over 1/2/4/8 worker threads (each round's neighbors are
// one opt::race_drivers batch, core/interleaved_codesign), asserting at
// every width that the accepted path, best schedule, Pall, and the
// distinct-evaluation count are bit-identical to the serial baseline.
//
//   ./build/bench/bench_interleaved          # full budget, periodic stage A
//   ./build/bench/bench_interleaved --fast   # smoke mode (CI): reduced
//                                            # design budget, fixed start

#include <chrono>
#include <cstdio>
#include <cstring>

#include "core/case_study.hpp"
#include "core/codesign.hpp"
#include "core/interleaved_codesign.hpp"
#include "core/parallel.hpp"

using namespace catsched;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool same_result(const core::InterleavedSearchResult& a,
                 const core::InterleavedSearchResult& b) {
  return a.found == b.found && a.best.to_string() == b.best.to_string() &&
         a.best_evaluation.pall == b.best_evaluation.pall &&
         a.steps == b.steps && a.unique_evaluations == b.unique_evaluations &&
         a.path == b.path;
}

}  // namespace

int main(int argc, char** argv) {
  bool fast = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) fast = true;
  }

  core::SystemModel sys = core::date18_case_study();
  control::DesignOptions dopts = core::date18_design_options();
  dopts.pso.particles = fast ? 8 : 16;
  dopts.pso.iterations = fast ? 10 : 30;
  if (fast) dopts.pso.stall_iterations = 5;
  dopts.pso_restarts = 1;
  dopts.scale_budget_with_dims = false;

  std::printf("hardware threads: %zu%s\n", core::hardware_threads(),
              fast ? "   (--fast smoke budget)" : "");

  // Stage A: periodic optimum via the paper's hybrid search. Smoke mode
  // skips the search and seeds at the paper's cache-aware optimum (3,2,3).
  sched::PeriodicSchedule periodic_best({3, 2, 3});
  double periodic_pall = 0.0;
  if (fast) {
    core::Evaluator ev(sys, dopts);
    periodic_pall = ev.evaluate(periodic_best).pall;
    std::printf("periodic seed:       %s  Pall=%.4f  (fixed, smoke mode)\n",
                periodic_best.to_string().c_str(), periodic_pall);
  } else {
    core::Evaluator ev(sys, dopts);
    opt::HybridOptions hopts;
    hopts.tolerance = 0.005;
    const auto periodic =
        core::find_optimal_schedule(ev, {{4, 2, 2}, {1, 2, 1}}, hopts);
    periodic_best = periodic.best_schedule;
    periodic_pall = periodic.best_evaluation.pall;
    std::printf("periodic optimum:    %s  Pall=%.4f  (%d evaluations)\n",
                periodic_best.to_string().c_str(), periodic_pall,
                periodic.schedules_evaluated);
  }

  // Stage B: interleaved local search seeded at the periodic schedule.
  const auto start = sched::InterleavedSchedule::from_periodic(periodic_best);
  core::InterleavedSearchOptions iopts;
  iopts.max_steps = fast ? 1 : 3;  // steepest-ascent steps (each step
  iopts.max_segments = fast ? 4 : 5;  // evaluates every neighbor)
  iopts.max_burst = fast ? 4 : 8;
  iopts.tolerance = 0.0;

  // Fresh evaluator per run: the evaluator's schedule memo would otherwise
  // hand later runs the earlier runs' designs for free and skew the sweep.
  // The pool reaches both layers: the search batches neighbor schedules
  // and the evaluator batches each schedule's per-app designs (nested
  // parallel_for on the same pool). The design-memo hit rate separates the
  // two effects: hits are memo wins, misses are the batched design kernel.
  struct Counters {
    int runs = 0;
    int requests = 0;
  };
  auto run = [&](core::ThreadPool* pool, double* secs, Counters* c) {
    core::Evaluator ev(sys, dopts, pool);
    const auto t0 = Clock::now();
    const auto r = core::interleaved_search(ev, start, iopts, pool);
    *secs = seconds_since(t0);
    c->runs = ev.designs_run();
    c->requests = ev.design_requests();
    return r;
  };
  auto hit_pct = [](const Counters& c) {
    return c.requests > 0
               ? 100.0 * static_cast<double>(c.requests - c.runs) /
                     static_cast<double>(c.requests)
               : 0.0;
  };

  std::printf("\n== interleaved_search thread sweep ==\n");
  double serial_secs = 0.0;
  Counters serial_counters;
  const auto serial = run(nullptr, &serial_secs, &serial_counters);
  std::printf("  serial    %8.2fs  best=%s  Pall=%.4f  (%d distinct, %d "
              "steps)\n",
              serial_secs, serial.best.to_string().c_str(),
              serial.best_evaluation.pall, serial.unique_evaluations,
              serial.steps);
  std::printf("            design memo: %d designs / %d requests "
              "(%.1f%% hits)\n",
              serial_counters.runs, serial_counters.requests,
              hit_pct(serial_counters));

  bool consistent = true;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    core::ThreadPool pool(threads);
    double secs = 0.0;
    Counters c;
    const auto r = run(&pool, &secs, &c);
    const bool same = same_result(serial, r) &&
                      c.runs == serial_counters.runs &&
                      c.requests == serial_counters.requests;
    consistent = consistent && same;
    std::printf("  %zu thread%s %8.2fs  speedup %5.2fx  designs %d/%d  %s\n",
                threads, threads == 1 ? " " : "s", secs, serial_secs / secs,
                c.runs, c.requests,
                same ? "identical result" : "RESULT MISMATCH");
  }

  std::printf("\naccepted path:\n");
  for (const auto& p : serial.path) std::printf("  %s\n", p.c_str());

  const double gain = serial.best_evaluation.pall - periodic_pall;
  std::printf("\ninterleaving gain over the periodic schedule: %+.4f Pall "
              "(%s)\n",
              gain,
              gain > 1e-6 ? "interleaving helps on this system"
                          : "periodic schedule already optimal locally");

  if (!consistent) {
    std::printf("\nFAIL: parallel interleaved search diverged from serial\n");
    return 1;
  }
  std::printf("all parallel runs bit-identical to serial\n");
  return 0;
}
