// Ablation B: the two Sec. IV escape mechanisms -- the simulated-annealing
// tolerance and multi-start -- measured on (a) a synthetic rugged landscape
// where plain greedy provably stalls, and (b) the case study.

#include <cstdio>

#include "core/case_study.hpp"
#include "core/codesign.hpp"
#include "opt/discrete_search.hpp"

using namespace catsched;

namespace {

// Rugged 2-D landscape: a ridge with a shallow dip that greedy cannot
// cross; global optimum at (5, 5).
opt::EvalOutcome rugged(const std::vector<int>& m) {
  const int x = m[0];
  const int y = m[1];
  double v = 1.0 - 0.02 * ((x - 5) * (x - 5) + (y - 5) * (y - 5));
  if (x == 3 || y == 3) v -= 0.015;  // the dip ring around the start
  return opt::EvalOutcome{v, true};
}

bool rugged_ok(const std::vector<int>& m) {
  return m[0] <= 9 && m[1] <= 9;
}

}  // namespace

int main() {
  std::printf("== Ablation: hybrid-search escape mechanisms ==\n\n");
  std::printf("synthetic rugged landscape (optimum (5,5), dip at x=3/y=3, "
              "start (1,1)):\n");
  for (double tol : {0.0, 0.01, 0.02}) {
    opt::HybridOptions opts;
    opts.tolerance = tol;
    opts.max_value = 9;
    opt::EvalCache cache(rugged);
    const auto res = opt::hybrid_search(cache, rugged_ok, {1, 1}, opts);
    std::printf("  tolerance %.3f: reached (%d, %d) value %.4f with %d "
                "evaluations\n",
                tol, res.best[0], res.best[1], res.best_value,
                res.new_evaluations);
  }
  {
    // Multi-start with zero tolerance also escapes.
    opt::HybridOptions ms_opts;
    ms_opts.max_value = 9;
    const auto ms = opt::hybrid_search_multistart(
        rugged, rugged_ok, {{1, 1}, {8, 8}, {1, 8}}, ms_opts);
    std::printf("  multi-start x3, tolerance 0: reached (%d, %d) value %.4f "
                "with %d unique evaluations\n",
                ms.combined.best[0], ms.combined.best[1],
                ms.combined.best_value, ms.unique_evaluations);
  }

  std::printf("\ncase study (starts (4,2,2) and (1,2,1), full pipeline):\n");
  for (double tol : {0.0, 0.005}) {
    core::SystemModel sys = core::date18_case_study();
    core::Evaluator ev(sys, core::date18_design_options());
    opt::HybridOptions hopts;
    hopts.tolerance = tol;
    const auto hy = core::find_optimal_schedule(ev, {{4, 2, 2}, {1, 2, 1}}, hopts);
    std::printf("  tolerance %.3f: best %s Pall=%.4f, %d unique schedule "
                "evaluations\n",
                tol, hy.best_schedule.to_string().c_str(),
                hy.best_evaluation.pall, hy.schedules_evaluated);
  }
  return 0;
}
