// Prints the paper's results on the case study, in order:
//   * Table I: WCET with and without cache reuse per application;
//   * Tables II and III: application parameters, then the settling times
//     and Pall of the cache-oblivious (1,1,1) and cache-aware (3,2,3)
//     schedules;
//   * Fig. 6: the output responses y(t) of both schedules as CSV;
//   * Sec. V: the exhaustive search and the two-start hybrid search.
//
//   reproduce_paper
//
// Takes no arguments; any argument prints the usage and exits with
// status 2. Every search and design runs on one thread pool; serial and
// parallel runs are bit-identical, so only the bracketed wall times depend
// on the machine. Table I is also pinned by Date18.TableIExact and Table
// III by Date18Integration.RoundRobinVsCacheAware; the Sec. V counts and
// Pall values only by this output's golden (ctest reproduce_paper_golden).
//
// Paper reference values:
//   Table I (Infineon XC23xxB-class, 20 MHz, 128 x 16 B direct-mapped
//   cache, hit 1 cycle, miss 100 cycles):
//     C1: 907.55 / 455.40 / 452.15 us
//     C2: 645.25 / 470.25 / 175.00 us
//     C3: 749.15 / 514.80 / 234.35 us
//   Table III: C1 43.2 -> 37.7 ms (13%), C2 17.7 -> 15.3 ms (14%),
//     C3 17.3 -> 14.4 ms (17%); Pall((3,2,3)) = 0.195. The paper gives no
//     plant parameters, so the synthetic plants here keep the improvement
//     shape, not the absolute magnitudes.
//   Sec. V: 76 idle-feasible schedules, 74 control-feasible; the hybrid
//     search from (4,2,2) and (1,2,1) reaches the optimum with 9 and 18
//     evaluations. The paper's MATLAB exhaustive search took days.

#include <chrono>
#include <cstdio>

#include "control/design.hpp"
#include "core/case_study.hpp"
#include "core/codesign.hpp"
#include "core/evaluator.hpp"
#include "core/parallel.hpp"

using namespace catsched;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void table1(const core::SystemModel& sys) {
  const auto& cfg = sys.cache_config;
  std::printf("== Table I: WCET results with and without cache reuse ==\n");
  std::printf("cache: %zu lines x %zu B, %zu-way, hit %u cy, miss %u cy, "
              "clock %.0f MHz\n\n",
              cfg.num_lines, cfg.line_bytes, cfg.ways(), cfg.hit_cycles,
              cfg.miss_cycles, cfg.clock_hz / 1e6);

  std::printf("%-28s %16s %16s %16s\n", "Application",
              "WCET w/o reuse", "Guaranteed red.", "WCET w/ reuse");
  const double paper_cold[] = {907.55, 645.25, 749.15};
  const double paper_red[] = {455.40, 470.25, 514.80};
  const auto wcets = sys.analyze_wcets();
  for (std::size_t i = 0; i < sys.apps.size(); ++i) {
    const auto& w = wcets[i];
    std::printf("%-28s %13.2f us %13.2f us %13.2f us\n",
                sys.apps[i].name.c_str(), w.cold_seconds * 1e6,
                (w.cold_seconds - w.warm_seconds) * 1e6, w.warm_seconds * 1e6);
    std::printf("%-28s %13.2f us %13.2f us %13.2f us   (paper)\n", "",
                paper_cold[i], paper_red[i], paper_cold[i] - paper_red[i]);
  }

  std::printf("\nprogram footprints (cache is %zu B):\n",
              cfg.num_lines * cfg.line_bytes);
  for (const auto& a : sys.apps) {
    std::printf("  %-26s %6zu B (%zu lines)\n", a.name.c_str(),
                a.program.footprint_bytes(cfg.line_bytes),
                a.program.distinct_lines());
  }
}

void table3(const core::Evaluator& ev, const core::ScheduleEvaluation& rr,
            const core::ScheduleEvaluation& ca) {
  std::printf("== Table II: application parameters ==\n");
  std::printf("%-28s %10s %18s %22s %10s %12s\n", "Application", "weight",
              "settling deadline", "max allowed idle", "Umax", "reference");
  for (const auto& a : ev.model().apps) {
    std::printf("%-28s %10.1f %15.1f ms %19.1f ms %10.1f %12.2f\n",
                a.name.c_str(), a.weight, a.smax * 1e3, a.tidle * 1e3,
                a.umax, a.r);
  }

  std::printf("\n== Table III: control performance comparison ==\n");
  std::printf("%-28s %22s %22s %14s %8s\n", "Application",
              "settling for (1,1,1)", "settling for (3,2,3)", "improvement",
              "paper");
  const double paper_imp[] = {13.0, 14.0, 17.0};
  for (std::size_t i = 0; i < rr.apps.size(); ++i) {
    const double s0 = rr.apps[i].settling_time;
    const double s1 = ca.apps[i].settling_time;
    std::printf("%-28s %19.2f ms %19.2f ms %13.1f%% %7.0f%%\n",
                ev.model().apps[i].name.c_str(), s0 * 1e3, s1 * 1e3,
                (s0 - s1) / s0 * 100.0, paper_imp[i]);
  }
  std::printf("\nPall(1,1,1) = %.4f   Pall(3,2,3) = %.4f   (paper: 0.0643 "
              "and 0.195 with its plants)\n",
              rr.pall, ca.pall);
  std::printf("feasible: (1,1,1)=%s (3,2,3)=%s\n",
              rr.feasible() ? "yes" : "no", ca.feasible() ? "yes" : "no");
  std::printf("\nper-app design diagnostics for (3,2,3):\n");
  for (std::size_t i = 0; i < ca.apps.size(); ++i) {
    const auto& d = ca.apps[i].design;
    std::printf("  %-26s |u|max=%.3f  rho(monodromy)=%.3f  P_i=%.3f\n",
                ev.model().apps[i].name.c_str(), d.u_max_abs,
                d.spectral_radius, ca.apps[i].performance);
  }
}

/// Re-simulates app \p app's designed loop over \p horizon with a dense
/// trace, from the paper's worst-case phase (step at the longest interval).
control::SimTrace response(const core::SystemModel& sys, std::size_t app,
                           const core::ScheduleEvaluation& ev,
                           double horizon) {
  const auto& a = sys.apps[app];
  const auto& intervals = ev.timing.apps[app].intervals;
  control::SwitchedSimulator sim(a.plant, intervals, 1e-4);
  const control::Equilibrium eq = control::equilibrium_at(a.plant, a.y0);
  control::SimOptions so;
  so.r = a.r;
  so.horizon = horizon;
  sched::AppTiming at;
  at.intervals = intervals;
  so.start_phase = at.longest_interval();
  so.hold_first_interval = true;
  so.settle_on_samples = false;
  control::SimTrace trace;
  sim.simulate(ev.apps[app].design.gains, eq.x, eq.u, so, &trace);
  return trace;
}

void fig6(const core::SystemModel& sys, const core::ScheduleEvaluation& rr,
          const core::ScheduleEvaluation& ca) {
  const double horizon = 30e-3;  // plot window like the paper's 0..50 ms
  std::printf("== Fig. 6: system outputs, cache-oblivious (1,1,1) vs "
              "cache-aware (3,2,3) ==\n");
  for (std::size_t app = 0; app < sys.apps.size(); ++app) {
    const auto y_rr = response(sys, app, rr, horizon);
    const auto y_ca = response(sys, app, ca, horizon);
    std::printf("\n# %s  (reference r=%.2f, settle: RR %.2f ms, CA %.2f ms)\n",
                sys.apps[app].name.c_str(), sys.apps[app].r,
                rr.apps[app].settling_time * 1e3,
                ca.apps[app].settling_time * 1e3);
    std::printf("t_ms,y_round_robin,y_cache_aware\n");
    // Print on a uniform 0.2 ms grid by nearest-sample lookup.
    std::size_t i_rr = 0;
    std::size_t i_ca = 0;
    for (double t = 0.0; t <= horizon + 1e-12; t += 2e-4) {
      while (i_rr + 1 < y_rr.t.size() && y_rr.t[i_rr + 1] <= t) ++i_rr;
      while (i_ca + 1 < y_ca.t.size() && y_ca.t[i_ca + 1] <= t) ++i_ca;
      std::printf("%.1f,%.6g,%.6g\n", t * 1e3, y_rr.y[i_rr], y_ca.y[i_ca]);
    }
  }
}

/// Each search gets a fresh evaluator, so its design count and unique
/// evaluations are its own.
void sec5(const core::SystemModel& sys, core::ThreadPool& pool) {
  opt::HybridOptions hopts;
  hopts.tolerance = 0.005;  // the Sec. IV simulated-annealing tolerance
  {
    core::Evaluator ev(sys, core::date18_design_options(), &pool);
    const auto region = opt::enumerate_feasible(
        core::make_cheap_feasible(ev), sys.num_apps(), hopts);
    std::printf("idle-feasible schedules: %zu   (paper: 76)\n",
                region.size());

    const auto t0 = Clock::now();
    const auto ex = core::exhaustive_codesign(ev, hopts, &pool);
    const double secs = seconds_since(t0);
    std::printf("exhaustive search: evaluated %d schedules, %d control-"
                "feasible, best %s with Pall=%.12f  [%.1f s, %d designs]\n",
                ex.details.enumerated, ex.details.control_feasible,
                ex.best_schedule.to_string().c_str(), ex.details.best_value,
                secs, ev.designs_run());
  }
  {
    core::Evaluator ev(sys, core::date18_design_options(), &pool);
    const auto t0 = Clock::now();
    const auto hy =
        core::find_optimal_schedule(ev, {{4, 2, 2}, {1, 2, 1}}, hopts, &pool);
    const double secs = seconds_since(t0);
    std::printf("\nhybrid search (two lock-step lanes, tolerance %.3f; a "
                "point costs the first lane to propose it):\n",
                hopts.tolerance);
    for (std::size_t i = 0; i < hy.search.runs.size(); ++i) {
      const auto& run = hy.search.runs[i];
      std::printf("  start %zu (%s): reached (%d, %d, %d) Pall=%.12f, "
                  "%d new schedule evaluations, %d moves\n",
                  i, i == 0 ? "4,2,2" : "1,2,1", run.best[0], run.best[1],
                  run.best[2], run.best_value, run.new_evaluations, run.steps);
    }
    std::printf("  combined: best %s Pall=%.12f with %d unique evaluations "
                "[%.1f s]   (paper: 9 and 18 evaluations of 76)\n",
                hy.best_schedule.to_string().c_str(), hy.best_evaluation.pall,
                hy.schedules_evaluated, secs);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s   (takes no arguments)\n", argv[0]);
    return 2;
  }
  const core::SystemModel sys = core::date18_case_study();
  core::ThreadPool pool;

  table1(sys);
  {
    core::Evaluator ev(sys, core::date18_design_options(), &pool);
    const auto rr = ev.evaluate(sched::PeriodicSchedule({1, 1, 1}));
    const auto ca = ev.evaluate(sched::PeriodicSchedule({3, 2, 3}));
    table3(ev, rr, ca);
    fig6(sys, rr, ca);
  }
  sec5(sys, pool);
  return 0;
}
