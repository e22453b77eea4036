// Prices two knobs of the controller design: what each value costs in
// objective evaluations and design time, and what it buys in best Pall.
//   * the compass polish's cap, DesignOptions::polish.max_evaluations;
//   * the simulated horizon the search scores candidates over,
//     DesignOptions::horizon_factor (report() checks every design over at
//     least 1.6 smax whatever the factor).
// Each grid varies one knob and keeps the other at the problem set's
// value.
//
// Two problem sets, each system evaluated on every idle-feasible periodic
// schedule of its region through core::Evaluator (so every distinct
// (app, timing pattern) is designed once per grid row, as in the
// searches):
//   * population: the pinned population_search systems (testgen seeds 1,
//     14, 29, 36, 43, 51 with max_apps 3 and branchy_chance 0.35, context
//     WCETs) at testgen::fuzz_design_options(), dense_dt raised to
//     horizon_factor * smax / 400 as perfbench raises it; bursts in
//     [1, 5];
//   * case study: the Sec. V region (binary cold/warm WCETs) at
//     core::date18_design_options().
//
// A system's best Pall is the highest over its control-feasible
// schedules. Per grid row and problem set the tool prints:
//   loss_mean/max  per-system loss of best Pall against the first row of
//                  the grid, in percent (a system with no feasible
//                  schedule loses 100%)
//   feasible       control-feasible schedules
//   flips          schedules whose control feasibility differs from the
//                  first row's
//   systems        systems with at least one of them
//   moved          systems whose best schedule differs from the first row's
//   designs        distinct designs that meet their spec (settled within
//                  smax, input within umax, stable)
//   grid/pso/polish  objective evaluations by design stage, summed over
//                  the distinct designs
//   capped         distinct designs whose polish ran to the cap
//   design_s       wall time of the row's evaluations
// Every column but design_s is deterministic. Report only: the exit status
// is 0 unless a flag is malformed (2).
//
// Usage:
//   price_design [--smoke] [--jobs N]
//
//   --smoke   caps 3000 and 700, horizons 1.6 and 1.0, on population
//             system 1 only (seconds)
//   --jobs N  schedules evaluated on N threads at once (default 4)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/case_study.hpp"
#include "core/codesign.hpp"
#include "core/evaluator.hpp"
#include "core/parallel.hpp"
#include "opt/discrete_search.hpp"
#include "testgen/generator.hpp"
#include "testgen/invariants.hpp"
#include "flag_parse.hpp"

namespace {

using namespace catsched;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kPopulation[] = {1, 14, 29, 36, 43, 51};
constexpr int kMaxBurst = 5;
constexpr double kDenseSteps = 400.0;

struct System {
  std::string name;
  core::SystemModel model;
  control::DesignOptions design;
  /// When positive, dense_dt is raised to horizon_factor * this / 400.
  double dense_smax = 0.0;
  core::EvaluatorOptions eopts;
  std::vector<std::vector<int>> schedules;  ///< the idle-feasible region
};

/// The knob a grid varies.
enum class Knob { cap, horizon };

/// \p sys's design options with \p knob set to \p value.
control::DesignOptions options_at(const System& sys, Knob knob,
                                  double value) {
  control::DesignOptions design = sys.design;
  if (knob == Knob::cap) {
    design.polish.max_evaluations = static_cast<int>(value);
  } else {
    design.horizon_factor = value;
  }
  if (sys.dense_smax > 0.0) {
    design.dense_dt =
        std::max(design.dense_dt,
                 design.horizon_factor * sys.dense_smax / kDenseSteps);
  }
  return design;
}

struct ProblemSet {
  std::string name;
  std::vector<System> systems;
};

System make_system(std::string name, core::SystemModel model,
                   control::DesignOptions design, double dense_smax,
                   bool context_wcets, int max_burst) {
  System sys{std::move(name), std::move(model), design, dense_smax, {}, {}};
  sys.eopts.context_wcets = context_wcets;
  const core::Evaluator ev(sys.model, design, nullptr, sys.eopts);
  opt::HybridOptions region;
  region.max_value = max_burst;
  sys.schedules = opt::enumerate_feasible(core::make_cheap_feasible(ev),
                                          sys.model.num_apps(), region);
  return sys;
}

ProblemSet population(bool smoke) {
  ProblemSet set{"population_search systems (fuzz design budget, context "
                 "WCETs)",
                 {}};
  testgen::GeneratorConfig g;
  g.max_apps = 3;
  g.branchy_chance = 0.35;
  for (const std::uint64_t seed : kPopulation) {
    core::SystemModel model = testgen::generate_system(g, seed).model;
    double max_smax = 0.0;
    for (const core::Application& a : model.apps) {
      max_smax = std::max(max_smax, a.smax);
    }
    set.systems.push_back(make_system(
        "testgen " + std::to_string(seed), std::move(model),
        testgen::fuzz_design_options(), max_smax, true, kMaxBurst));
    if (smoke) break;
  }
  return set;
}

ProblemSet case_study() {
  ProblemSet set{"case study, Sec. V region (date18 design budget)", {}};
  set.systems.push_back(make_system("date18", core::date18_case_study(),
                                    core::date18_design_options(), 0.0,
                                    false, opt::HybridOptions{}.max_value));
  return set;
}

/// A system's best control-feasible schedule under one grid row, and what
/// its distinct designs cost.
struct Outcome {
  double best_pall = -std::numeric_limits<double>::infinity();
  std::size_t best = 0;
  bool found = false;
  std::vector<char> feasible_at;  ///< per schedule
  int feasible = 0;
  int designs = 0;
  int designs_ok = 0;
  int capped = 0;
  long long grid = 0;
  long long swarm = 0;
  long long polish = 0;
};

Outcome evaluate(const System& sys, const control::DesignOptions& design,
                 core::ThreadPool* pool) {
  const int cap = design.polish.max_evaluations;
  core::Evaluator ev(sys.model, design, nullptr, sys.eopts);
  const std::size_t n = sys.schedules.size();
  std::vector<const core::ScheduleEvaluation*> evs(n);
  core::parallel_for(pool, n, [&](std::size_t k) {
    evs[k] = &ev.evaluate_cached(sched::InterleavedSchedule::from_periodic(
        sched::PeriodicSchedule(sys.schedules[k])));
  });

  Outcome out;
  std::set<std::pair<std::size_t, std::vector<std::int64_t>>> seen;
  for (std::size_t k = 0; k < n; ++k) {
    const core::ScheduleEvaluation& e = *evs[k];
    out.feasible_at.push_back(e.control_feasible ? 1 : 0);
    if (e.control_feasible) {
      ++out.feasible;
      if (!out.found || e.pall > out.best_pall) {
        out.best_pall = e.pall;
        out.best = k;
        out.found = true;
      }
    }
    for (std::size_t i = 0; i < e.apps.size(); ++i) {
      // The evaluator's design-memo key: one design per distinct pattern.
      const std::vector<sched::Interval>& iv = e.timing.apps[i].intervals;
      if (!seen.emplace(i, core::quantize_intervals(iv)).second) continue;
      const control::DesignResult& d = e.apps[i].design;
      ++out.designs;
      out.designs_ok += d.feasible ? 1 : 0;
      out.capped += d.polish_evaluations >= cap ? 1 : 0;
      out.grid += d.grid_evaluations;
      out.swarm += d.swarm_evaluations;
      out.polish += d.polish_evaluations;
    }
  }
  return out;
}

std::string schedule_name(const std::vector<int>& m) {
  std::string s = "(";
  for (std::size_t i = 0; i < m.size(); ++i) {
    s += (i ? "," : "") + std::to_string(m[i]);
  }
  return s + ")";
}

void price(const ProblemSet& set, Knob knob,
           const std::vector<double>& values, core::ThreadPool* pool) {
  std::size_t schedules = 0;
  for (const System& sys : set.systems) schedules += sys.schedules.size();
  const char* knob_name = knob == Knob::cap ? "cap" : "horizon";
  std::printf("%s, %s grid: %zu system(s), %zu schedules\n",
              set.name.c_str(), knob_name, set.systems.size(), schedules);
  std::printf("%7s %9s %9s %9s %6s %7s %7s %9s %8s %9s %9s %7s %9s\n",
              knob_name, "loss_mean", "loss_max", "feasible", "flips",
              "systems", "moved", "designs", "grid", "pso", "polish",
              "capped", "design_s");

  std::vector<Outcome> reference;
  for (const double value : values) {
    const Clock::time_point t0 = Clock::now();
    std::vector<Outcome> outs;
    for (const System& sys : set.systems) {
      outs.push_back(evaluate(sys, options_at(sys, knob, value), pool));
    }
    const double seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (reference.empty()) reference = outs;

    Outcome sum;
    double loss_sum = 0.0;
    double loss_max = 0.0;
    int flips = 0;
    int systems = 0;
    int moved = 0;
    for (std::size_t s = 0; s < outs.size(); ++s) {
      const Outcome& o = outs[s];
      const Outcome& r = reference[s];
      systems += o.found ? 1 : 0;
      moved += (o.found != r.found || o.best != r.best) ? 1 : 0;
      double loss = 0.0;
      if (r.found) {
        loss = o.found ? 100.0 * (r.best_pall - o.best_pall) / r.best_pall
                       : 100.0;
      }
      loss_sum += loss;
      loss_max = std::max(loss_max, loss);
      for (std::size_t k = 0; k < o.feasible_at.size(); ++k) {
        flips += o.feasible_at[k] != r.feasible_at[k] ? 1 : 0;
      }
      sum.feasible += o.feasible;
      sum.designs_ok += o.designs_ok;
      sum.capped += o.capped;
      sum.grid += o.grid;
      sum.swarm += o.swarm;
      sum.polish += o.polish;
    }
    std::printf("%7g %8.4f%% %8.4f%% %9d %6d %4d/%-2zu %7d %9d %8lld %9lld "
                "%9lld %7d %9.2f\n",
                value, loss_sum / static_cast<double>(outs.size()), loss_max,
                sum.feasible, flips, systems, outs.size(), moved,
                sum.designs_ok, sum.grid, sum.swarm, sum.polish, sum.capped,
                seconds);
  }
  for (std::size_t s = 0; s < reference.size(); ++s) {
    const System& sys = set.systems[s];
    const Outcome& r = reference[s];
    std::printf("  %s: %d designs, best at %s %g: %s Pall=%.6f\n",
                sys.name.c_str(), r.designs, knob_name, values.front(),
                r.found ? schedule_name(sys.schedules[r.best]).c_str()
                        : "none",
                r.best_pall);
  }
  std::printf("\n");
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [--smoke] [--jobs N]\n", argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::uint64_t jobs = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      const auto v = catsched::tools::parse_count(argv[++i]);
      if (!v || *v == 0 || *v > 64) usage(argv[0]);
      jobs = *v;
    } else {
      usage(argv[0]);
    }
  }
  // The calling thread evaluates schedules too.
  std::unique_ptr<core::ThreadPool> pool;
  if (jobs > 1) pool = std::make_unique<core::ThreadPool>(jobs - 1);

  const std::vector<double> caps =
      smoke ? std::vector<double>{3000, 700}
            : std::vector<double>{3000, 2000, 1000, 700, 500, 300, 100, 1};
  const std::vector<double> horizons =
      smoke ? std::vector<double>{1.6, 1.0}
            : std::vector<double>{1.6, 1.3, 1.2, 1.0, 0.8, 0.6, 0.4};
  std::vector<ProblemSet> sets;
  sets.push_back(population(smoke));
  if (!smoke) sets.push_back(case_study());
  for (const ProblemSet& set : sets) {
    price(set, Knob::cap, caps, pool.get());
    price(set, Knob::horizon, horizons, pool.get());
  }
  return 0;
}
