// Portfolio racing vs. the steepest-ascent hybrid baseline: on generated
// systems, how many unique schedule evaluations does each spend before it
// reaches the baseline's final best Pall? The portfolio races hybrid
// lanes, a beam variant, compass search, SA and a GA against ONE shared
// EvalCache, retiring trailing strategies — the claim measured here is
// that the race reaches the steepest-ascent best with strictly fewer
// unique evaluations on a meaningful share of systems (the acceptance
// floor is >= 3 pinned wins; the process exits nonzero below it).
//
//   ./build/bench/bench_portfolio          # full sweep
//   ./build/bench/bench_portfolio --fast   # smoke mode (CI)

#include <cstdio>
#include <cstring>
#include <vector>

#include "core/codesign.hpp"
#include "core/evaluator.hpp"
#include "opt/portfolio.hpp"
#include "testgen/generator.hpp"
#include "testgen/invariants.hpp"

using namespace catsched;

namespace {

struct Row {
  std::uint64_t seed;
  double target;        // steepest-ascent multistart best Pall
  int baseline_evals;   // its unique evaluations at completion
  int portfolio_evals;  // portfolio uniques when it first reached target
  bool reached;
  bool win;  // reached with strictly fewer unique evaluations
};

/// Unique evaluations at the first round whose incumbent matches the
/// target (Pall comparisons on the same memoized pipeline are exact).
int evals_to_reach(const opt::PortfolioResult& res, double target,
                   bool* reached) {
  for (const opt::PortfolioRound& r : res.history) {
    if (r.incumbent_found && r.incumbent_value >= target) {
      *reached = true;
      return r.unique_evaluations;
    }
  }
  *reached = false;
  return res.unique_evaluations;
}

}  // namespace

int main(int argc, char** argv) {
  const bool fast = argc == 2 && std::strcmp(argv[1], "--fast") == 0;
  if (argc > 1 && !fast) {
    std::fprintf(stderr, "usage: %s [--fast]\n", argv[0]);
    return 2;
  }

  testgen::GeneratorConfig gcfg;
  gcfg.max_apps = fast ? 3 : 4;
  control::DesignOptions design = testgen::fuzz_design_options();

  const int systems = fast ? 8 : 16;
  std::printf("== Portfolio racing vs. steepest-ascent hybrid ==%s\n\n",
              fast ? "   (--fast smoke budget)" : "");
  std::printf("%-6s %-6s %10s %16s %16s %s\n", "seed", "apps", "target",
              "baseline evals", "portfolio evals", "result");

  std::vector<Row> rows;
  for (int k = 0; k < systems; ++k) {
    const std::uint64_t seed = 9100 + static_cast<std::uint64_t>(k);
    const testgen::GeneratedSystem gen = testgen::generate_system(gcfg, seed);
    core::Evaluator ev(gen.model, design);
    const std::size_t n = gen.model.apps.size();

    opt::HybridOptions hopts;
    hopts.min_value = 1;
    hopts.max_value = fast ? 4 : 5;
    // Diverse starts, filtered through the idle constraint (the all-ones
    // start is feasible by the generator's tidle-factor floor; the high
    // corners may not be on tight systems).
    const opt::CheapFeasible cheap = core::make_cheap_feasible(ev);
    std::vector<std::vector<int>> starts;
    starts.push_back(std::vector<int>(n, 1));
    std::vector<int> high(n, hopts.max_value);
    std::vector<int> alt(n, 1);
    for (std::size_t i = 1; i < n; i += 2) alt[i] = hopts.max_value;
    for (std::vector<int>* cand : {&high, &alt}) {
      if (cheap(*cand)) starts.push_back(*cand);
    }

    // Steepest ascent (tolerance 0) from the same starts: the baseline's
    // cost is its shared-cache unique count at full convergence.
    const opt::MultiStartResult ms = opt::hybrid_search_multistart(
        core::make_objective(ev), cheap, starts,
        hopts, nullptr, core::make_neighbor_objective(ev));
    if (!ms.combined.found_feasible) {
      std::printf("%-6llu %-6zu %10s\n",
                  static_cast<unsigned long long>(seed), n,
                  "no feasible point -- skipped");
      continue;
    }

    opt::PortfolioOptions popts;
    popts.min_value = hopts.min_value;
    popts.max_value = hopts.max_value;
    popts.elimination_rounds = 2;  // race hard: retire trailing lanes
    popts.seed = seed;
    popts.anneal.iterations = 32;
    popts.anneal.batch = 4;
    popts.genetic.population = 6;
    popts.genetic.generations = 4;
    popts.pattern.initial_step = 2;
    const opt::PortfolioResult pf = opt::portfolio_search(
        core::make_objective(ev), cheap, starts,
        popts, nullptr, core::make_neighbor_objective(ev));

    Row row;
    row.seed = seed;
    row.target = ms.combined.best_value;
    row.baseline_evals = ms.unique_evaluations;
    row.portfolio_evals = evals_to_reach(pf, row.target, &row.reached);
    row.win = row.reached && row.portfolio_evals < row.baseline_evals;
    rows.push_back(row);
    std::printf("%-6llu %-6zu %10.4f %16d %16d %s\n",
                static_cast<unsigned long long>(seed), n, row.target,
                row.baseline_evals, row.portfolio_evals,
                row.win      ? "portfolio wins"
                : row.reached ? "reached, not cheaper"
                              : "NOT reached");
  }

  int wins = 0;
  int reached = 0;
  for (const Row& r : rows) {
    wins += r.win ? 1 : 0;
    reached += r.reached ? 1 : 0;
  }
  std::printf("\nreached the steepest-ascent best: %d/%zu systems\n", reached,
              rows.size());
  std::printf("strictly fewer unique evaluations: %d/%zu systems "
              "(acceptance floor: 3)\n",
              wins, rows.size());
  if (wins < 3) {
    std::printf("FAILED: fewer than 3 pinned portfolio wins\n");
    return 1;
  }
  return 0;
}
