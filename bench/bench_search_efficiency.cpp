// Reproduces the search-efficiency results of paper Sec. V: the exhaustive
// baseline enumerates the idle-feasible region (paper: 76 schedules, 74
// control-feasible), while the hybrid search started from (4,2,2) and
// (1,2,1) reaches the optimum with a fraction of the evaluations (paper: 9
// and 18). Wall-clock times are reported as well (the paper's MATLAB
// pipeline took days for the exhaustive search; this C++ implementation
// takes minutes).

#include <chrono>
#include <cstdio>

#include "core/case_study.hpp"
#include "core/codesign.hpp"

using namespace catsched;

int main() {
  using clock = std::chrono::steady_clock;
  core::SystemModel sys = core::date18_case_study();

  opt::HybridOptions hopts;
  hopts.tolerance = 0.005;  // the Sec. IV simulated-annealing tolerance

  {
    core::Evaluator ev(sys, core::date18_design_options());
    const auto region = opt::enumerate_feasible(
        core::make_cheap_feasible(ev), sys.num_apps(), hopts);
    std::printf("idle-feasible schedules: %zu   (paper: 76)\n",
                region.size());

    const auto t0 = clock::now();
    const auto ex = core::exhaustive_codesign(ev, hopts);
    const double secs =
        std::chrono::duration<double>(clock::now() - t0).count();
    std::printf("exhaustive search: evaluated %d schedules, %d control-"
                "feasible, best %s with Pall=%.4f  [%.1f s, %d designs]\n",
                ex.details.enumerated, ex.details.control_feasible,
                ex.best_schedule.to_string().c_str(), ex.details.best_value,
                secs, ev.designs_run());
  }

  {
    core::Evaluator ev(sys, core::date18_design_options());
    const auto t0 = clock::now();
    const auto hy =
        core::find_optimal_schedule(ev, {{4, 2, 2}, {1, 2, 1}}, hopts);
    const double secs =
        std::chrono::duration<double>(clock::now() - t0).count();
    std::printf("\nhybrid search (two lock-step lanes, tolerance %.3f; a "
                "point costs the first lane to propose it):\n",
                hopts.tolerance);
    for (std::size_t i = 0; i < hy.search.runs.size(); ++i) {
      const auto& run = hy.search.runs[i];
      std::printf("  start %zu (%s): reached (%d, %d, %d) Pall=%.4f, "
                  "%d new schedule evaluations, %d moves\n",
                  i, i == 0 ? "4,2,2" : "1,2,1", run.best[0], run.best[1],
                  run.best[2], run.best_value, run.new_evaluations, run.steps);
    }
    std::printf("  combined: best %s Pall=%.4f with %d unique evaluations "
                "[%.1f s]   (paper: 9 and 18 evaluations of 76)\n",
                hy.best_schedule.to_string().c_str(), hy.best_evaluation.pall,
                hy.schedules_evaluated, secs);
  }
  return 0;
}
