// Schedule search on a user-defined four-application system -- shows that
// the framework is not hard-wired to the paper's three-app case study.
// Compares round-robin, exhaustive optimum and hybrid search.
//
// Build & run:  ./build/examples/schedule_search

#include <cstdio>

#include "core/case_study.hpp"
#include "core/codesign.hpp"

using namespace catsched;

namespace {

core::Application make_app(const char* name, std::size_t singles,
                           std::size_t groups, std::uint64_t base,
                           double w0, double zeta, double gain, double umax,
                           double r, double smax, double tidle,
                           double weight) {
  core::Application a;
  a.name = name;
  cache::CalibratedLayout lay;
  lay.singleton_lines = singles;
  lay.conflict_group_sizes.assign(groups, 2);
  lay.extra_hit_fetches = 32;
  a.program = cache::make_calibrated_program(name, lay, 128, base);
  a.plant.a = linalg::Matrix{{0.0, 1.0}, {-w0 * w0, -2.0 * zeta * w0}};
  a.plant.b = linalg::Matrix{{0.0}, {gain}};
  a.plant.c = linalg::Matrix{{1.0, 0.0}};
  a.weight = weight;
  a.smax = smax;
  a.tidle = tidle;
  a.umax = umax;
  a.r = r;
  a.y0 = 0.0;
  return a;
}

}  // namespace

int main() {
  core::SystemModel sys;
  sys.cache_config = core::date18_cache_config();
  sys.apps = {
      make_app("engine_torque", 100, 16, 0, 130.0, 0.15, 2.0e6, 50.0,
               1200.0, 20e-3, 6e-3, 0.35),
      make_app("lane_keeping", 90, 20, 1024, 90.0, 0.2, 1.5e4, 1.0, 0.2,
               30e-3, 6.5e-3, 0.3),
      make_app("active_susp", 80, 24, 2048, 160.0, 0.1, 4.0e6, 80.0,
               1500.0, 15e-3, 6e-3, 0.2),
      make_app("egr_valve", 70, 28, 3072, 70.0, 0.3, 8.0e5, 30.0, 400.0,
               35e-3, 7e-3, 0.15),
  };

  // A slightly reduced design budget keeps the 4-dimensional search quick.
  auto dopts = core::date18_design_options();
  dopts.pso.particles = 24;
  dopts.pso.iterations = 50;
  dopts.scale_budget_with_dims = false;
  core::Evaluator ev(std::move(sys), dopts);

  const auto rr = ev.evaluate(sched::PeriodicSchedule({1, 1, 1, 1}));
  std::printf("round-robin (1,1,1,1): Pall = %.4f (%s)\n", rr.pall,
              rr.feasible() ? "feasible" : "infeasible");

  opt::HybridOptions hopts;
  hopts.tolerance = 0.005;
  const auto region =
      opt::enumerate_feasible(core::make_cheap_feasible(ev), 4, hopts);
  std::printf("idle-feasible schedules: %zu\n", region.size());

  const auto hy = core::find_optimal_schedule(
      ev, {{1, 1, 1, 1}, {2, 2, 2, 2}}, hopts);
  if (hy.found) {
    std::printf("hybrid search: best %s Pall = %.4f  (%d schedule "
                "evaluations of %zu)\n",
                hy.best_schedule.to_string().c_str(),
                hy.best_evaluation.pall, hy.schedules_evaluated,
                region.size());
    for (std::size_t i = 0; i < ev.model().num_apps(); ++i) {
      std::printf("  %-16s settle %6.2f ms (deadline %5.1f ms)\n",
                  ev.model().apps[i].name.c_str(),
                  hy.best_evaluation.apps[i].settling_time * 1e3,
                  ev.model().apps[i].smax * 1e3);
    }
  }
  return 0;
}
