// population_wcet: larger generated systems (4-8 apps, 128-512 sets, 1-8
// ways, about half the apps branchy) and no controller design. Per system,
// serially: make_context_analyzer (setup), then analyze_wcets and
// full_table (solve) — every context of every app computed once. All of the
// work is in the cache layer: must/may/persistence walks, static loop
// fixpoints, context re-analysis and the static-analysis memo.

#include <exception>
#include <memory>

#include "cache/schedule_wcet.hpp"
#include "layers.hpp"
#include "testgen/generator.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// The pinned population: one generated system per (apps, sets, ways)
/// stratum, each from its own testgen seed, so every pass covers the whole
/// geometry grid in equal measure.
constexpr std::size_t kApps[] = {4, 5, 6, 7, 8};
constexpr std::size_t kSets[] = {128, 256, 512};
constexpr std::size_t kWays[] = {1, 2, 4, 8};
constexpr std::uint64_t kSeedBase = 7000;

class PopulationWcet final : public Workload {
public:
  explicit PopulationWcet(const RunContext& ctx) : ctx_(ctx) {
    std::uint64_t seed = kSeedBase;
    for (const std::size_t apps : kApps) {
      for (const std::size_t sets : kSets) {
        for (const std::size_t ways : kWays) {
          testgen::GeneratorConfig g;
          g.min_apps = g.max_apps = apps;
          g.set_choices = {sets};
          g.way_choices = {ways};
          g.branchy_chance = 0.5;
          systems_.push_back(testgen::generate_system(g, seed++).model);
        }
      }
    }
  }

  std::map<std::string, std::string> stamp() const override {
    return {{"design_budget", "none (no controller design)"},
            {"systems",
             std::to_string(systems_.size()) +
                 " testgen systems from seed " + std::to_string(kSeedBase) +
                 ": one per (apps 4..8, sets 128/256/512, ways 1/2/4/8), "
                 "branchy_chance 0.5"}};
  }

  /// Measured passes took 4-6 s.
  double nominal_pass_s() const override { return 5.0; }

  /// The largest system once: the allocator reaches the working-set size of
  /// a pass before the first one starts.
  void warm_up() override { systems_.back().make_context_analyzer()->full_table(); }

  PassResult run_pass(Tracer* tracer, bool verify) override {
    PassResult r;
    double tightening_sum = 0.0;
    for (const std::size_t i : seeded_order(systems_.size(), ctx_.seed)) {
      ++r.attempted;
      const std::size_t before = r.failures.size();
      try {
        tightening_sum +=
            run_system(systems_[i], static_cast<int>(i), tracer, verify, r);
      } catch (const std::exception& e) {
        r.failures.push_back("system " + std::to_string(i) +
                             " threw: " + e.what());
      }
      if (r.failures.size() != before) ++r.failed;
    }
    r.best_pall = tightening_sum / static_cast<double>(systems_.size());
    return r;
  }

private:
  /// Runs one system, adds its figures to \p r, returns its mean context
  /// tightening 1 - context/cold over every (app, mask != 0).
  double run_system(const core::SystemModel& model, int request,
                    Tracer* tracer, bool verify, PassResult& r) {
    const Clock::time_point t0 = Clock::now();
    const std::unique_ptr<cache::ScheduleWcetAnalyzer> analyzer =
        model.make_context_analyzer();
    const Clock::time_point t1 = Clock::now();
    const std::vector<sched::AppWcet> wcets = model.analyze_wcets();
    const sched::ContextWcetTable table = analyzer->full_table();
    const Clock::time_point t2 = Clock::now();
    // No search here: the final result is first available when solving
    // ends, so time_to_best_s is solve_s.
    const double solve = seconds_between(t1, t2);
    r.times[request] = SystemTimes{seconds_between(t0, t1), solve, solve};

    const cache::ScheduleWcetAnalyzer::Stats stats = analyzer->stats();
    r.unique_evals += static_cast<double>(stats.context_analyses);
    double ratio_sum = 0.0;
    std::size_t ratios = 0;
    std::uint64_t digest = 0;
    const std::string who = "system " + std::to_string(request) + ": ";
    for (std::size_t app = 0; app < table.contexts.size(); ++app) {
      const sched::AppWcet& base = table.base[app];
      for (const auto& [mask, seconds] : table.contexts[app]) {
        digest += bits_of(seconds) * (mask + 1);
        if (seconds < base.warm_seconds || seconds > base.cold_seconds) {
          r.failures.push_back(who + "context outside [warm, cold]");
        }
        if (mask != 0) {
          ratio_sum += seconds / base.cold_seconds;
          ++ratios;
        }
      }
    }
    r.determinism.insert(r.determinism.end(),
                         {stats.context_analyses, stats.context_requests,
                          digest});
    if (verify) {
      const std::vector<sched::AppWcet> base = analyzer->app_wcets();
      for (std::size_t app = 0; app < wcets.size(); ++app) {
        if (bits_of(base[app].cold_seconds) != bits_of(wcets[app].cold_seconds) ||
            bits_of(base[app].warm_seconds) != bits_of(wcets[app].warm_seconds)) {
          r.failures.push_back(who + "analyzer base differs from analyze_wcets");
        }
      }
    }
    if (tracer != nullptr) {
      tracer->span("cache.make_context_analyzer", -1, request, t0, t1);
      tracer->span("cache.analyze_and_table", -1, request, t1, t2);
      tracer->add("cache.context_requests",
                  static_cast<double>(stats.context_requests));
      tracer->add("cache.context_analyses",
                  static_cast<double>(stats.context_analyses));
      replay_cache(model, *tracer, request, r.failures);
      const sched::InterleavedSchedule round_robin =
          sched::InterleavedSchedule::from_periodic(
              sched::PeriodicSchedule(std::vector<int>(model.num_apps(), 1)));
      const std::vector<double> tidle = model.tidle_vector();
      replay_sched(
          wcets,
          [&](const sched::InterleavedSchedule& s) {
            return sched::idle_feasible(sched::derive_timing(wcets, s), tidle);
          },
          {round_robin}, core::InterleavedSearchOptions{}, *tracer, request,
          r.failures);
    }
    return ratios == 0 ? 0.0 : 1.0 - ratio_sum / static_cast<double>(ratios);
  }

  RunContext ctx_;
  std::vector<core::SystemModel> systems_;
};

}  // namespace

std::unique_ptr<Workload> make_population_wcet(const RunContext& ctx) {
  return std::make_unique<PopulationWcet>(ctx);
}

}  // namespace perfbench
