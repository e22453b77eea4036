// Incremental neighbor re-evaluation bench: the per-step cost of
// evaluating one schedule's full neighbor batch, from-scratch vs. the
// delta-aware path (sched::derive_timing_delta + Evaluator::
// evaluate_neighbor), with all controller designs already memoized — the
// steady-state regime of the interleaved search, where per-neighbor timing
// derivation, idle pre-filtering, re-quantization and memo round trips are
// the whole cost. Both loops replay exactly what interleaved_search does
// per neighbor in each mode:
//   from-scratch: idle_feasible (full derive_timing) + evaluate (second
//                 derive_timing + per-app quantize/memo round trips)
//   incremental:  one derive_timing_delta from the base pattern + idle
//                 check on the derived timing + completion that reuses
//                 provably-unchanged apps (swap neighbors derive timing
//                 from scratch but reuse the base's evaluations for apps
//                 whose patterns survive the swap, as in the search).
// Steps are measured at several base schedules along the case study's
// search trajectory (the pruned, multi-segment bases are where the search
// spends most of its steps).
//
// Also cross-checks bit-identity (the summed Pall over every feasible
// neighbor must match between the paths exactly) and runs the interleaved
// search end to end in both modes as a sanity anchor.
//
//   ./build/bench/bench_incremental          # full budget
//   ./build/bench/bench_incremental --fast   # smoke mode (CI)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <vector>

#include "core/case_study.hpp"
#include "core/interleaved_codesign.hpp"
#include "core/parallel.hpp"

using namespace catsched;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct StepResult {
  double scratch_secs = 0.0;
  double incremental_secs = 0.0;
  bool identical = false;
  std::size_t neighbors = 0;
  std::size_t delta_representable = 0;
  std::size_t idle_feasible = 0;
};

/// Time one steepest-ascent step's neighbor-batch evaluation at `base`,
/// from-scratch vs. incremental, designs pre-warmed. Best-of-`rounds`
/// interleaved A/B timing so CPU frequency drift hits both paths alike.
StepResult bench_step(core::Evaluator& ev,
                      const sched::InterleavedSchedule& base,
                      const core::InterleavedSearchOptions& iopts, int reps,
                      int rounds) {
  const std::string base_key = base.to_string();
  const core::ScheduleEvaluation& base_eval =
      ev.evaluate_cached(base, base_key);
  const sched::TimingPattern& pattern = ev.timing_pattern(base, base_key);
  const auto neighbors = core::interleaved_neighbor_moves(base, iopts);

  StepResult out;
  out.neighbors = neighbors.size();
  for (const auto& nb : neighbors) {
    out.delta_representable += nb.move ? 1 : 0;
    const bool feasible = ev.idle_feasible(nb.schedule);
    out.idle_feasible += feasible ? 1 : 0;
    if (feasible) (void)ev.evaluate(nb.schedule);  // warm the designs
  }

  double scratch_pall = 0.0;
  double inc_pall = 0.0;
  double t_scratch = 1e9;
  double t_inc = 1e9;
  std::vector<bool> unchanged;
  for (int round = 0; round < rounds; ++round) {
    auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r) {
      double sum = 0.0;
      for (const auto& nb : neighbors) {
        if (!ev.idle_feasible(nb.schedule)) continue;
        sum += ev.evaluate(nb.schedule).pall;
      }
      scratch_pall = sum;
    }
    t_scratch = std::min(t_scratch, seconds_since(t0) / reps);

    t0 = Clock::now();
    for (int r = 0; r < reps; ++r) {
      double sum = 0.0;
      for (const auto& nb : neighbors) {
        if (!nb.move) {  // swap neighbor: hinted from-scratch fallback
          if (!ev.idle_feasible(nb.schedule)) continue;
          sum += ev.evaluate(nb.schedule, base_eval).pall;
          continue;
        }
        sched::ScheduleTiming timing = sched::derive_timing_delta(
            ev.wcets(), pattern, *nb.move, &unchanged);
        if (!ev.idle_feasible(timing)) continue;
        sum += ev.evaluate_neighbor(base_eval, std::move(timing), unchanged)
                   .pall;
      }
      inc_pall = sum;
    }
    t_inc = std::min(t_inc, seconds_since(t0) / reps);
  }
  out.scratch_secs = t_scratch;
  out.incremental_secs = t_inc;
  out.identical = scratch_pall == inc_pall;
  return out;
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

  core::InterleavedSearchOptions iopts;
  iopts.max_segments = 8;
  iopts.max_burst = 8;

  // Base schedules along the case study's trajectory: the paper's periodic
  // optimum, the interleaved optimum the search finds from it, and two of
  // the longer multi-segment bases the search wades through (where most
  // neighbors fail the idle pre-filter — the pruning regime).
  using S = sched::InterleavedSchedule;
  const std::vector<S> bases = {
      S::from_periodic(sched::PeriodicSchedule({3, 2, 3})),
      S({{1, 1}, {0, 2}, {1, 2}, {2, 2}}, 3),
      S({{0, 3}, {1, 2}, {0, 3}, {2, 2}, {1, 1}, {2, 1}}, 3),
      S({{0, 2}, {1, 1}, {0, 2}, {2, 1}, {0, 2}, {1, 1}, {2, 1}}, 3),
  };

  core::Evaluator ev(sys, dopts);
  const int reps = fast ? 100 : 2000;
  const int rounds = fast ? 3 : 5;

  std::printf("hardware threads: %zu%s\n", core::hardware_threads(),
              fast ? "   (--fast smoke budget)" : "");
  std::printf("\n== per-step neighbor-batch evaluation (designs hot) ==\n");
  std::printf("%-42s %5s %5s %10s %10s %8s\n", "base schedule", "nbrs",
              "feas", "scratch", "increm.", "speedup");
  bool identical = true;
  double worst = 1e9;
  double best = 0.0;
  for (const S& base : bases) {
    const StepResult r = bench_step(ev, base, iopts, reps, rounds);
    identical = identical && r.identical;
    const double speedup = r.scratch_secs / r.incremental_secs;
    worst = std::min(worst, speedup);
    best = std::max(best, speedup);
    std::printf("%-42s %2zu/%2zu %5zu %8.2fus %8.2fus %7.2fx%s\n",
                base.to_string().c_str(), r.delta_representable, r.neighbors,
                r.idle_feasible, r.scratch_secs * 1e6,
                r.incremental_secs * 1e6, speedup,
                r.identical ? "" : "  PALL MISMATCH");
  }
  std::printf("per-step speedup across the trajectory: %.2fx .. %.2fx\n",
              worst, best);
  std::printf("apps reused without re-quantization: %d (of %d neighbor "
              "evaluations)\n",
              ev.apps_reused(), ev.neighbor_evaluations());

  // End-to-end anchor: the search itself, both modes, fresh evaluators
  // (designs run once each; the per-step win is diluted by design cost).
  core::InterleavedSearchOptions sopts = iopts;
  sopts.max_segments = fast ? 4 : 5;
  sopts.max_burst = fast ? 4 : 8;
  sopts.max_steps = fast ? 1 : 3;
  const auto start =
      S::from_periodic(sched::PeriodicSchedule({3, 2, 3}));
  auto run_search = [&](bool incremental, double* secs) {
    core::Evaluator fresh(sys, dopts);
    core::InterleavedSearchOptions o = sopts;
    o.incremental = incremental;
    const auto t0 = Clock::now();
    const auto r = core::interleaved_search(fresh, start, o);
    *secs = seconds_since(t0);
    return r;
  };
  std::printf("\n== interleaved_search end to end ==\n");
  double scratch_secs = 0.0;
  double inc_secs = 0.0;
  const auto s1 = run_search(false, &scratch_secs);
  const auto s2 = run_search(true, &inc_secs);
  const bool same = s1.found == s2.found &&
                    s1.best.to_string() == s2.best.to_string() &&
                    s1.best_evaluation.pall == s2.best_evaluation.pall &&
                    s1.path == s2.path &&
                    s1.unique_evaluations == s2.unique_evaluations;
  std::printf("  from-scratch  %8.2fs  best=%s  Pall=%.4f\n", scratch_secs,
              s1.best.to_string().c_str(), s1.best_evaluation.pall);
  std::printf("  incremental   %8.2fs  best=%s  Pall=%.4f  (%s)\n", inc_secs,
              s2.best.to_string().c_str(), s2.best_evaluation.pall,
              same ? "identical result" : "RESULT MISMATCH");

  if (!identical || !same) {
    std::printf("\nFAIL: incremental evaluation diverged from from-scratch\n");
    return 1;
  }
  std::printf("\nincremental path bit-identical to from-scratch\n");
  return 0;
}
