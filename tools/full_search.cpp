// Dev tool: full exhaustive + hybrid search on the case study.
#include <algorithm>
#include <cstdio>

#include "core/case_study.hpp"
#include "core/codesign.hpp"

using namespace catsched;

int main() {
  core::SystemModel sys = core::date18_case_study();
  core::Evaluator ev(sys, core::date18_design_options());

  opt::HybridOptions hopts;
  hopts.tolerance = 0.005;

  const auto region = opt::enumerate_feasible(
      core::make_cheap_feasible(ev), sys.num_apps(), hopts);
  std::printf("idle-feasible schedules: %zu\n", region.size());

  auto ex = core::exhaustive_codesign(ev, hopts);
  std::printf("exhaustive: evaluated=%d control-feasible=%d best=%s Pall=%.4f\n",
              ex.details.enumerated, ex.details.control_feasible,
              ex.best_schedule.to_string().c_str(), ex.details.best_value);
  // Top 8 schedules:
  auto all = ex.details.all;
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return a.second.value > b.second.value;
  });
  for (std::size_t i = 0; i < 8 && i < all.size(); ++i) {
    std::printf("  #%zu (%d,%d,%d) Pall=%.4f%s\n", i + 1, all[i].first[0],
                all[i].first[1], all[i].first[2], all[i].second.value,
                all[i].second.feasible ? "" : " (infeasible)");
  }

  core::Evaluator ev2(sys, core::date18_design_options());
  auto hy = core::find_optimal_schedule(ev2, {{4, 2, 2}, {1, 2, 1}}, hopts);
  std::printf("hybrid: best=%s Pall=%.4f unique evals=%d\n",
              hy.best_schedule.to_string().c_str(),
              hy.best_evaluation.pall, hy.schedules_evaluated);
  for (std::size_t i = 0; i < hy.search.runs.size(); ++i) {
    const auto& run = hy.search.runs[i];
    std::printf("  start %zu: best=(%d,%d,%d) value=%.4f new evals=%d steps=%d\n",
                i, run.best[0], run.best[1], run.best[2], run.best_value,
                run.new_evaluations, run.steps);
  }
  return 0;
}
