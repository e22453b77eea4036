// Reproduces paper Fig. 6: system output responses y(t) of the three
// applications under the cache-oblivious (1,1,1) and the cache-aware
// (3,2,3) schedules. Prints a CSV time series (one block per application)
// that plots to the same shape as the paper's figure: the cache-aware
// responses reach and hold the reference earlier.

#include <cstdio>

#include "control/design.hpp"
#include "core/case_study.hpp"
#include "core/evaluator.hpp"

using namespace catsched;

namespace {

control::SimTrace rerun(const core::SystemModel& sys, std::size_t app,
                        const core::ScheduleEvaluation& ev, double horizon) {
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

}  // namespace

int main() {
  core::SystemModel sys = core::date18_case_study();
  core::Evaluator evals(sys, core::date18_design_options());
  const auto rr = evals.evaluate(sched::PeriodicSchedule({1, 1, 1}));
  const auto ca = evals.evaluate(sched::PeriodicSchedule({3, 2, 3}));

  const double horizon = 30e-3;  // plot window like the paper's 0..50 ms
  std::printf("== Fig. 6: system outputs, cache-oblivious (1,1,1) vs "
              "cache-aware (3,2,3) ==\n");
  for (std::size_t app = 0; app < sys.apps.size(); ++app) {
    const auto y_rr = rerun(sys, app, rr, horizon);
    const auto y_ca = rerun(sys, app, ca, horizon);
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
  return 0;
}
