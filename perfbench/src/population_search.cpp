// population_search: a pinned testgen population of small branchy systems
// under schedule-dependent (context) WCETs. Per system the portfolio race
// runs from all-ones (plus the high corner when it is idle-feasible), then
// the Sec. VI interleaved search continues from the portfolio's best. This
// exercises the delta and rotation timing paths, the design memo, the
// read-mostly context-WCET lookups and the portfolio's small per-driver
// batches, which leave the pool partly idle.

#include <algorithm>
#include <exception>
#include <memory>

#include "cache/schedule_wcet.hpp"
#include "core/codesign.hpp"
#include "core/interleaved_codesign.hpp"
#include "layers.hpp"
#include "opt/portfolio.hpp"
#include "testgen/generator.hpp"
#include "testgen/invariants.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// testgen seeds of the pinned population: 3-app systems on which the
/// portfolio finds a feasible schedule and the interleaved search then takes
/// at least one step (2-app systems leave the interleaved space empty).
/// Each takes 1-3 s, so a run repeats every system several times.
constexpr std::uint64_t kSystems[] = {1, 14, 29, 36, 43, 51};
constexpr int kSetupRepeats = 21;
constexpr int kMaxBurst = 5;
/// Dense closed-loop simulation capped near this many steps per design, as
/// testgen::check_invariants adapts dense_dt to each generated system.
constexpr double kDenseSteps = 400.0;

testgen::GeneratorConfig generator_config() {
  testgen::GeneratorConfig g;
  g.max_apps = 3;
  g.branchy_chance = 0.35;
  return g;
}

opt::PortfolioOptions portfolio_options(std::uint64_t seed) {
  opt::PortfolioOptions p;
  p.min_value = 1;
  p.max_value = kMaxBurst;
  p.elimination_rounds = 2;
  p.seed = seed;
  p.anneal.iterations = 32;
  p.anneal.batch = 4;
  p.genetic.population = 6;
  p.genetic.generations = 4;
  p.pattern.initial_step = 2;
  return p;
}

core::InterleavedSearchOptions interleaved_options() {
  core::InterleavedSearchOptions o;
  o.max_steps = 8;
  o.max_segments = 6;
  o.max_burst = kMaxBurst;
  return o;
}

struct System {
  std::uint64_t seed = 0;
  core::SystemModel model;
  control::DesignOptions design;
};

/// The interleaved search's accepted path as schedules (it reports
/// canonical strings; each step is one of the previous schedule's
/// neighbors). Empty when a step cannot be matched.
std::vector<sched::InterleavedSchedule> rebuild_path(
    const sched::InterleavedSchedule& start,
    const std::vector<std::string>& path,
    const core::InterleavedSearchOptions& iopts) {
  std::vector<sched::InterleavedSchedule> out{start};
  for (std::size_t k = 1; k < path.size(); ++k) {
    const std::vector<sched::InterleavedSchedule> nbs =
        core::interleaved_neighbors(out.back(), iopts);
    const auto it = std::find_if(nbs.begin(), nbs.end(), [&](const auto& s) {
      return s.to_string() == path[k];
    });
    if (it == nbs.end()) return {};
    out.push_back(*it);
  }
  return out;
}

class PopulationSearch final : public Workload {
public:
  explicit PopulationSearch(const RunContext& ctx) : ctx_(ctx) {
    for (const std::uint64_t seed : kSystems) {
      System s;
      s.seed = seed;
      s.model = testgen::generate_system(generator_config(), seed).model;
      s.design = testgen::fuzz_design_options();
      double max_smax = 0.0;
      for (const core::Application& a : s.model.apps) {
        max_smax = std::max(max_smax, a.smax);
      }
      s.design.dense_dt = std::max(
          s.design.dense_dt, s.design.horizon_factor * max_smax / kDenseSteps);
      systems_.push_back(std::move(s));
    }
  }

  std::map<std::string, std::string> stamp() const override {
    std::map<std::string, std::string> s =
        design_stamp(testgen::fuzz_design_options());
    s["design_budget"] =
        "testgen::fuzz_design_options, dense_dt raised to 1.6 smax / 400";
    std::string seeds;
    for (const std::uint64_t seed : kSystems) {
      seeds += (seeds.empty() ? "" : ",") + std::to_string(seed);
    }
    s["systems"] = "testgen seeds " + seeds +
                   " (max_apps 3, branchy_chance 0.35, context WCETs)";
    return s;
  }

  /// Measured passes took 9.5-12 s.
  double nominal_pass_s() const override { return 11.0; }

  void warm_up() override {
    const System& sys = systems_.front();
    core::Evaluator ev(sys.model, sys.design, ctx_.pool);
    ev.evaluate(
        sched::PeriodicSchedule(std::vector<int>(sys.model.num_apps(), 1)));
  }

  PassResult run_pass(Tracer* tracer, bool verify) override {
    PassResult r;
    double pall_sum = 0.0;
    for (const std::size_t i : seeded_order(systems_.size(), ctx_.seed)) {
      ++r.attempted;
      const std::size_t before = r.failures.size();
      try {
        pall_sum += run_system(systems_[i], static_cast<int>(i), tracer,
                               verify, r);
      } catch (const std::exception& e) {
        r.failures.push_back("system " + std::to_string(systems_[i].seed) +
                             " threw: " + e.what());
      }
      if (r.failures.size() != before) ++r.failed;
    }
    r.best_pall = pall_sum / static_cast<double>(systems_.size());
    return r;
  }

private:
  /// Runs one system, adds its figures to \p r, returns its best Pall.
  double run_system(const System& sys, int request, Tracer* tracer,
                    bool verify, PassResult& r) {
    core::EvaluatorOptions eopts;
    eopts.context_wcets = true;
    std::vector<double> setups;
    std::unique_ptr<core::Evaluator> ev;
    for (int k = 0; k < kSetupRepeats; ++k) {
      ev.reset();
      const Clock::time_point t0 = Clock::now();
      ev = std::make_unique<core::Evaluator>(sys.model, sys.design, ctx_.pool,
                                             eopts);
      setups.push_back(seconds_between(t0, Clock::now()));
    }
    const double setup = median(setups);

    const std::size_t n = sys.model.num_apps();
    const opt::CheapFeasible cheap = core::make_cheap_feasible(*ev);
    std::vector<std::vector<int>> starts{std::vector<int>(n, 1)};
    if (cheap(std::vector<int>(n, kMaxBurst))) {
      starts.push_back(std::vector<int>(n, kMaxBurst));
    }
    const core::InterleavedSearchOptions iopts = interleaved_options();

    const int root = tracer ? tracer->open("opt.portfolio", -1, request) : -1;
    ObjectiveProbe probe(tracer, root, request);
    const Clock::time_point t0 = Clock::now();
    probe.start(t0);
    const opt::PortfolioResult pf = opt::portfolio_search(
        probe.wrap(core::make_objective(*ev)), cheap, starts,
        portfolio_options(sys.seed), ctx_.pool,
        probe.wrap(core::make_neighbor_objective(*ev)));
    probe.stop(Clock::now());
    if (tracer) tracer->close(root);
    if (!pf.found_feasible) {
      r.failures.push_back("system " + std::to_string(sys.seed) +
                           ": portfolio found no feasible schedule");
      return 0.0;
    }
    const sched::InterleavedSchedule il_start =
        sched::InterleavedSchedule::from_periodic(
            sched::PeriodicSchedule(pf.best));
    const int il_root =
        tracer ? tracer->open("opt.interleaved", -1, request) : -1;
    const core::InterleavedSearchResult il =
        core::interleaved_search(*ev, il_start, iopts, ctx_.pool);
    const Clock::time_point t1 = Clock::now();
    if (tracer) tracer->close(il_root);

    r.times[request] =
        SystemTimes{setup, seconds_between(t0, t1), probe.time_to_best_s()};
    r.unique_evals += ev->schedule_evaluations();
    const std::uint64_t analyses =
        ev->context_analyzer()->stats().context_analyses;
    r.determinism.insert(
        r.determinism.end(),
        {static_cast<std::uint64_t>(ev->schedule_evaluations()),
         bits_of(il.best_evaluation.pall),
         static_cast<std::uint64_t>(ev->designs_run()), analyses,
         static_cast<std::uint64_t>(pf.rounds)});

    const std::string who = "system " + std::to_string(sys.seed) + ": ";
    if (!il.found) r.failures.push_back(who + "interleaved search found nothing");
    if (bits_of(probe.best()) != bits_of(pf.best_value)) {
      r.failures.push_back(who + "probe best differs from the portfolio's");
    }
    if (verify) {
      core::Evaluator fresh(sys.model, sys.design, nullptr, eopts);
      if (bits_of(fresh.evaluate(sched::PeriodicSchedule(pf.best)).pall) !=
          bits_of(pf.best_value)) {
        r.failures.push_back(who + "portfolio best Pall differs from a fresh "
                                   "serial re-evaluation");
      }
      if (bits_of(fresh.evaluate(il.best).pall) !=
          bits_of(il.best_evaluation.pall)) {
        r.failures.push_back(who + "interleaved best Pall differs from a "
                                   "fresh serial re-evaluation");
      }
    }
    if (tracer != nullptr) {
      record_evaluator(*ev, *tracer);
      record_probe(probe, *tracer);
      int proposals = 0;
      for (const opt::StrategyReport& s : pf.strategies) proposals += s.proposals;
      tracer->add("opt.rounds", pf.rounds);
      tracer->add("opt.proposals", proposals);
      tracer->add("opt.unique_evals", pf.unique_evaluations);
      tracer->add("opt.steps", il.steps);

      replay_cache(sys.model, *tracer, request, r.failures);
      const std::vector<sched::InterleavedSchedule> path =
          rebuild_path(il_start, il.path, iopts);
      if (path.empty()) r.failures.push_back(who + "interleaved path not rebuilt");
      replay_sched(
          ev->wcets(),
          [&](const sched::InterleavedSchedule& s) {
            return ev->idle_feasible(s);
          },
          path, iopts, *tracer, request, r.failures);
      const std::vector<sched::InterleavedSchedule> sample{
          sched::InterleavedSchedule::from_periodic(
              sched::PeriodicSchedule(starts.front())),
          il.best};
      replay_control(capture_designs(*ev, sys.design, sample), *tracer,
                     request);
    }
    return il.best_evaluation.pall;
  }

  RunContext ctx_;
  std::vector<System> systems_;
};

}  // namespace

std::unique_ptr<Workload> make_population_search(const RunContext& ctx) {
  return std::make_unique<PopulationSearch>(ctx);
}

}  // namespace perfbench
