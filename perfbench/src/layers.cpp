#include "layers.hpp"

#include <cstdint>
#include <memory>

#include "cache/schedule_wcet.hpp"
#include "cache/static_wcet.hpp"
#include "control/c2d.hpp"

namespace perfbench {

namespace {

/// The per-app programs exactly as SystemModel::make_context_analyzer hands
/// them to the analyzer: structured trees as-is, traces lifted to one block.
std::vector<cache::StructuredProgram> analyzer_programs(
    const core::SystemModel& model) {
  std::vector<cache::StructuredProgram> out;
  for (const core::Application& a : model.apps) {
    if (a.has_structured()) {
      out.push_back(a.structured);
    } else {
      out.push_back(cache::StructuredProgram{
          a.program.name, cache::Stmt::block(a.program.trace)});
    }
  }
  return out;
}

template <typename Fn>
auto timed(Tracer& tracer, const std::string& name, int parent, int request,
           Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  auto result = fn();
  const Clock::time_point t1 = Clock::now();
  tracer.span(name, parent, request, t0, t1);
  tracer.sample(name, seconds_between(t0, t1));
  return result;
}

}  // namespace

void replay_cache(const core::SystemModel& model, Tracer& tracer, int request,
                  std::vector<std::string>& failures) {
  const int root = tracer.open("cache.replay", -1, request);
  const cache::CacheConfig& cfg = model.cache_config;
  const Clock::time_point w0 = Clock::now();
  const std::vector<sched::AppWcet> wcets = model.analyze_wcets();
  const Clock::time_point w1 = Clock::now();
  tracer.span("cache.wcet_s", root, request, w0, w1);
  tracer.add("cache.wcet_s", seconds_between(w0, w1));

  const std::vector<cache::StructuredProgram> programs =
      analyzer_programs(model);
  const std::unique_ptr<cache::ScheduleWcetAnalyzer> analyzer =
      model.make_context_analyzer();
  const std::size_t n = programs.size();
  std::vector<cache::CacheFootprint> footprints;
  for (const cache::StructuredProgram& p : programs) {
    footprints.push_back(cache::compute_footprint(p.root, cfg));
  }
  const std::uint64_t masks = n <= 12 ? std::uint64_t{1} << n : 0;
  for (std::size_t app = 0; app < n; ++app) {
    cache::StaticAnalysisMemo memo;
    const cache::StaticSteadyWcet steady =
        timed(tracer, "cache.steady_s", root, request, [&] {
          return cache::analyze_static_steady_wcet(programs[app], cfg, &memo);
        });
    for (std::uint64_t mask = 0; mask < masks; ++mask) {
      if ((mask >> app) & 1u) continue;
      const Clock::time_point c0 = Clock::now();
      const cache::ContextWcet& ctx = analyzer->analyze_context(app, mask);
      const Clock::time_point c1 = Clock::now();
      tracer.span("cache.context_s", root, request, c0, c1);
      tracer.sample("cache.context_s", seconds_between(c0, c1));
      tracer.add("cache.first_miss_points",
                 static_cast<double>(ctx.analysis.first_miss));
      const std::uint64_t warm = steady.warm.wcet_cycles;
      const std::uint64_t cold = steady.cold.wcet_cycles;
      if (ctx.cycles < warm || ctx.cycles > cold) {
        failures.push_back("cache: context bound outside [warm, cold]");
      }
      if (mask == 0) continue;
      cache::CacheFootprint interference;
      for (std::size_t a = 0; a < n; ++a) {
        if ((mask >> a) & 1u) cache::merge_footprint(interference, footprints[a]);
      }
      cache::CachePair entry = steady.generic_exit;
      cache::age_through_interference(entry, interference);
      const cache::StaticWcetResult raw =
          cache::analyze_static_wcet(programs[app], cfg, entry, &memo);
      if (raw.wcet_cycles != ctx.analysis.wcet_cycles) {
        failures.push_back("cache: replayed context differs from the analyzer");
      }
    }
    tracer.add("cache.memo_hits", static_cast<double>(memo.stats().hits));
    tracer.add("cache.memo_lookups",
               static_cast<double>(memo.stats().hits + memo.stats().misses));
  }
  tracer.close(root);
}

void replay_sched(
    const std::vector<sched::AppWcet>& wcets,
    const std::function<bool(const sched::InterleavedSchedule&)>& idle_ok,
    const std::vector<sched::InterleavedSchedule>& path,
    const core::InterleavedSearchOptions& iopts, Tracer& tracer, int request,
    std::vector<std::string>& failures) {
  const int root = tracer.open("sched.replay", -1, request);
  for (const sched::InterleavedSchedule& s : path) {
    const sched::TimingPattern pattern = sched::expand_timing(wcets, s);
    for (const core::InterleavedNeighbor& nb :
         core::interleaved_neighbor_moves(s, iopts)) {
      const sched::ScheduleTiming scratch =
          timed(tracer, "sched.derive_scratch_s", root, request,
                [&] { return sched::derive_timing(wcets, nb.schedule); });
      if (nb.move) {
        const sched::ScheduleTiming delta =
            timed(tracer, "sched.derive_delta_s", root, request, [&] {
              return sched::derive_timing_delta(wcets, pattern, *nb.move);
            });
        if (!(delta == scratch)) failures.push_back("sched: delta != scratch");
      }
      if (nb.rotation) {
        const sched::ScheduleTiming rot =
            timed(tracer, "sched.derive_rotation_s", root, request, [&] {
              return sched::derive_timing_rotation(wcets, pattern,
                                                   *nb.rotation);
            });
        if (!(rot == scratch)) failures.push_back("sched: rotation != scratch");
      }
      tracer.add("sched.neighbors", 1.0);
      tracer.add("sched.idle_passed", idle_ok(nb.schedule) ? 1.0 : 0.0);
    }
  }
  tracer.close(root);
}

std::vector<CapturedDesign> capture_designs(
    core::Evaluator& evaluator, const control::DesignOptions& options,
    const std::vector<sched::InterleavedSchedule>& schedules) {
  std::vector<CapturedDesign> out;
  for (const sched::InterleavedSchedule& s : schedules) {
    const core::ScheduleEvaluation& ev = evaluator.evaluate_cached(s);
    for (std::size_t i = 0; i < ev.apps.size(); ++i) {
      const core::Application& a = evaluator.model().apps[i];
      CapturedDesign d;
      d.problem.spec.plant = a.plant;
      d.problem.spec.umax = a.umax;
      d.problem.spec.r = a.r;
      d.problem.spec.y0 = a.y0;
      d.problem.spec.smax = a.smax;
      d.problem.intervals = ev.timing.apps[i].intervals;
      d.options = options;
      out.push_back(std::move(d));
    }
  }
  return out;
}

void replay_control(const std::vector<CapturedDesign>& designs,
                    Tracer& tracer, int request) {
  const int root = tracer.open("control.replay", -1, request);
  for (const CapturedDesign& d : designs) {
    const control::DesignSpec& spec = d.problem.spec;
    const std::vector<sched::Interval>& iv = d.problem.intervals;
    const control::DesignResult res =
        timed(tracer, "control.design_s", root, request,
              [&] { return control::design_controller(spec, iv, d.options); });
    tracer.add("control.pso_evals", static_cast<double>(res.pso_evaluations));
    timed(tracer, "control.particle_s", root, request, [&] {
      return control::evaluate_gains(spec, iv, res.gains, d.options);
    });
    timed(tracer, "control.c2d_s", root, request,
          [&] { return control::discretize_phases(spec.plant, iv); });
  }
  tracer.close(root);
}

void record_evaluator(const core::Evaluator& evaluator, Tracer& tracer) {
  tracer.add("core.design_requests", evaluator.design_requests());
  tracer.add("core.designs_run", evaluator.designs_run());
  tracer.add("core.apps_reused", evaluator.apps_reused());
  tracer.add("core.neighbor_evals", evaluator.neighbor_evaluations());
  if (const cache::ScheduleWcetAnalyzer* a = evaluator.context_analyzer()) {
    tracer.add("cache.context_requests",
               static_cast<double>(a->stats().context_requests));
    tracer.add("cache.context_analyses",
               static_cast<double>(a->stats().context_analyses));
  }
}

void record_probe(const ObjectiveProbe& probe, Tracer& tracer) {
  tracer.add("opt.bookkeeping_s", probe.bookkeeping_s());
  tracer.add("opt.busy_s", probe.busy_s());
  tracer.add("opt.wall_s", probe.wall_s());
}

std::map<std::string, double> layer_metrics(const Tracer& tracer,
                                            std::size_t participants) {
  const std::map<std::string, std::vector<double>> samples = tracer.samples();
  const std::map<std::string, double> counters = tracer.counters();
  auto sample = [&](const std::string& name, double q) {
    const auto it = samples.find(name);
    return it == samples.end() ? 0.0 : quantile(it->second, q);
  };
  auto count = [&](const std::string& name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  };
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };

  std::map<std::string, double> m;
  for (const char* name : {"cache.steady_s", "cache.context_s",
                           "core.evaluate_s", "control.design_s"}) {
    m[std::string(name) + ".p50"] = sample(name, 0.5);
    m[std::string(name) + ".p90"] = sample(name, 0.9);
  }
  for (const char* name :
       {"sched.derive_scratch_s", "sched.derive_delta_s",
        "sched.derive_rotation_s", "control.particle_s", "control.c2d_s"}) {
    m[name] = sample(name, 0.5);
  }
  for (const char* name :
       {"cache.wcet_s", "cache.context_analyses", "cache.context_requests",
        "cache.first_miss_points", "sched.neighbors", "core.design_requests",
        "core.designs_run", "core.apps_reused", "core.neighbor_evals",
        "control.pso_evals", "opt.bookkeeping_s", "opt.rounds",
        "opt.proposals", "opt.steps"}) {
    m[name] = count(name);
  }
  m["cache.static_memo_hit_ratio"] =
      ratio(count("cache.memo_hits"), count("cache.memo_lookups"));
  m["sched.idle_pass_ratio"] =
      ratio(count("sched.idle_passed"), count("sched.neighbors"));
  m["core.design_hit_ratio"] =
      count("core.design_requests") > 0.0
          ? 1.0 - count("core.designs_run") / count("core.design_requests")
          : 0.0;
  m["opt.occupancy"] =
      ratio(count("opt.busy_s"),
            count("opt.wall_s") * static_cast<double>(participants));
  m["opt.useful_ratio"] =
      ratio(count("opt.unique_evals"), count("opt.proposals"));
  return m;
}

}  // namespace perfbench
