// Optimizer comparison (extends the paper's Sec. V search-efficiency
// claim): the hybrid gradient search of Sec. IV versus genuine simulated
// annealing, a genetic algorithm, and the exhaustive baseline, all on the
// automotive case study. Annealing and the GA are the portfolio's
// SearchDrivers, each raced alone through opt::race_drivers. Reported per
// method: best schedule found, its Pall, unique expensive evaluations
// spent, and wall time.
//
// The PSO design budget is trimmed symmetrically for every method (the
// comparison is about search efficiency, not absolute performance).

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "core/case_study.hpp"
#include "core/codesign.hpp"
#include "opt/portfolio.hpp"

using namespace catsched;
using clock_type = std::chrono::steady_clock;

namespace {

control::DesignOptions trimmed_options() {
  control::DesignOptions o = core::date18_design_options();
  o.pso.particles = 16;
  o.pso.iterations = 30;
  o.pso.stall_iterations = 10;
  o.pso_restarts = 1;
  o.scale_budget_with_dims = false;
  return o;
}

void report(const char* method, const std::vector<int>& best, double pall,
            int evals, double secs) {
  std::printf("%-14s best (%d, %d, %d)  Pall=%.4f  evaluations=%-3d  "
              "[%.1f s]\n",
              method, best[0], best[1], best[2], pall, evals, secs);
}

}  // namespace

int main() {
  core::SystemModel sys = core::date18_case_study();
  opt::HybridOptions hopts;
  hopts.tolerance = 0.005;

  std::printf("schedule-space optimizer comparison on the DATE'18 case "
              "study\n\n");

  // Exhaustive reference.
  {
    core::Evaluator ev(sys, trimmed_options());
    const auto t0 = clock_type::now();
    const auto ex = core::exhaustive_codesign(ev, hopts);
    const double secs =
        std::chrono::duration<double>(clock_type::now() - t0).count();
    report("exhaustive", ex.best_schedule.bursts(), ex.best_evaluation.pall,
           ex.details.enumerated, secs);
  }

  // Hybrid (paper Sec. IV), two lock-step starts.
  {
    core::Evaluator ev(sys, trimmed_options());
    const auto t0 = clock_type::now();
    const auto hy =
        core::find_optimal_schedule(ev, {{4, 2, 2}, {1, 2, 1}}, hopts);
    const double secs =
        std::chrono::duration<double>(clock_type::now() - t0).count();
    report("hybrid", hy.best_schedule.bursts(), hy.best_evaluation.pall,
           hy.schedules_evaluated, secs);
  }

  // Simulated annealing and the GA: one driver each, raced alone.
  const auto race_alone = [&](const char* method, auto make_driver) {
    core::Evaluator ev(sys, trimmed_options());
    opt::EvalCache cache(core::make_objective(ev));
    const std::unique_ptr<opt::SearchDriver> driver =
        make_driver(core::make_cheap_feasible(ev));
    opt::PortfolioOptions race;
    race.max_rounds = 1000;  // the drivers' own budgets end the race
    race.elimination_rounds = 0;
    const auto t0 = clock_type::now();
    const auto res = opt::race_drivers({driver.get()}, cache, race);
    const double secs =
        std::chrono::duration<double>(clock_type::now() - t0).count();
    report(method, res.best, res.best_value, res.new_evaluations, secs);
    std::printf("               (%d rounds, %d proposals)\n", res.rounds,
                res.strategies.front().proposals);
  };
  race_alone("annealing", [](const opt::CheapFeasible& cheap) {
    opt::AnnealDriverOptions aopts;
    aopts.iterations = 120;
    aopts.initial_temperature = 0.05;
    aopts.cooling = 0.97;
    aopts.max_value = 8;
    return opt::make_anneal_driver("annealing", cheap, {1, 1, 1}, aopts);
  });
  race_alone("genetic", [&](const opt::CheapFeasible& cheap) {
    opt::GeneticDriverOptions gopts;
    gopts.population = 10;
    gopts.generations = 8;
    gopts.max_value = 8;
    return opt::make_genetic_driver("genetic", cheap, sys.num_apps(), gopts);
  });

  std::printf("\npaper reference: hybrid reaches the optimum with 9 and 18 "
              "evaluations vs 76 exhaustive.\n");
  return 0;
}
