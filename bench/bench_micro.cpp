// Micro-benchmarks (google-benchmark): throughput of the building blocks
// that dominate the co-design runtime -- cache-trace replay, matrix
// exponential, eigenvalues, switched simulation and one full PSO design.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "cache/schedule_wcet.hpp"
#include "cache/set_steady.hpp"
#include "cache/static_wcet.hpp"
#include "cache/structure.hpp"
#include "cache/wcet.hpp"
#include "control/design.hpp"
#include "core/case_study.hpp"
#include "linalg/eig.hpp"
#include "linalg/expm.hpp"
#include "sched/timing.hpp"
#include "testgen/generator.hpp"
#include "testgen/invariants.hpp"
#include "../tests/random_program.hpp"

using namespace catsched;

namespace {

const core::SystemModel& sys() {
  static const core::SystemModel s = core::date18_case_study();
  return s;
}

void BM_CacheTraceReplay(benchmark::State& state) {
  cache::CacheSim sim(sys().cache_config);
  const auto& trace = sys().apps[0].program.trace;
  std::uint64_t fetches = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run_trace(trace));
    fetches += trace.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(fetches));
}
BENCHMARK(BM_CacheTraceReplay);

void BM_WcetAnalysis(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache::analyze_wcet(sys().apps[1].program, sys().cache_config));
  }
}
BENCHMARK(BM_WcetAnalysis);

void BM_Expm(benchmark::State& state) {
  const linalg::Matrix a{{0.0, 1.0}, {-14400.0, -36.0}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::expm(a * 1e-3));
  }
}
BENCHMARK(BM_Expm);

void BM_ExpmWithIntegral(benchmark::State& state) {
  const linalg::Matrix a{{0.0, 1.0}, {-14400.0, -36.0}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::expm_with_integral(a, 1e-3));
  }
}
BENCHMARK(BM_ExpmWithIntegral);

void BM_Eigenvalues(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  linalg::Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = std::sin(static_cast<double>(i * 31 + j * 7));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::eigenvalues(a));
  }
}
BENCHMARK(BM_Eigenvalues)->Arg(3)->Arg(6)->Arg(12);

/// Case-study app 0 under (3,2,3) at dense_dt = 1e-4 with fixed gains;
/// \p trace, when non-null, also records the trajectory.
void switched_simulation(benchmark::State& state, control::SimTrace* trace) {
  const auto timing = sched::derive_timing(sys().analyze_wcets(),
                                           sched::PeriodicSchedule({3, 2, 3}));
  const auto& a = sys().apps[0];
  control::SwitchedSimulator sim(a.plant, timing.apps[0].intervals, 1e-4);
  const control::Equilibrium eq = control::equilibrium_at(a.plant, a.y0);
  control::PhaseGains g;
  for (std::size_t j = 0; j < 3; ++j) {
    g.k.push_back(linalg::Matrix{{-1e-4, -1e-6}});
    g.f.push_back(0.8);
  }
  control::SimOptions so;
  so.r = a.r;
  so.horizon = 40e-3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.simulate(g, eq.x, eq.u, so, trace));
    benchmark::ClobberMemory();
  }
}

// The metrics-only simulation the PSO objective runs.
void BM_SwitchedSimulation(benchmark::State& state) {
  switched_simulation(state, nullptr);
}
BENCHMARK(BM_SwitchedSimulation);

// The same simulation recording its dense and sampled trace (plots, CSV).
void BM_SwitchedSimulationTrace(benchmark::State& state) {
  control::SimTrace trace;
  switched_simulation(state, &trace);
  benchmark::DoNotOptimize(trace.y.data());
}
BENCHMARK(BM_SwitchedSimulationTrace);

void BM_StaticWcetAnalysis(benchmark::State& state) {
  testref::RandomProgramOptions opts;
  opts.seed = 42;
  opts.max_depth = 3;
  opts.branch_probability = 0.4;
  opts.max_loop_bound = 6;
  opts.address_lines = 256;
  const auto prog = testref::make_random_program("bench", opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache::analyze_static_wcet(prog, sys().cache_config));
  }
}
BENCHMARK(BM_StaticWcetAnalysis);

void BM_AbstractCacheAccess(benchmark::State& state) {
  cache::CachePair pair(sys().cache_config);
  const auto& trace = sys().apps[0].program.trace;
  std::uint64_t fetches = 0;
  for (auto _ : state) {
    for (const auto line : trace) {
      benchmark::DoNotOptimize(pair.classify_and_access(line));
    }
    fetches += trace.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(fetches));
}
BENCHMARK(BM_AbstractCacheAccess);

// Set-associative variant of the abstract-domain kernel: exercises the
// aging/eviction pass the direct-mapped fast path skips.
void BM_AbstractCacheAccessAssoc4(benchmark::State& state) {
  cache::CacheConfig cfg = sys().cache_config;
  cfg.associativity = 4;
  cache::CachePair pair(cfg);
  const auto& trace = sys().apps[0].program.trace;
  std::uint64_t fetches = 0;
  for (auto _ : state) {
    for (const auto line : trace) {
      benchmark::DoNotOptimize(pair.classify_and_access(line));
    }
    fetches += trace.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(fetches));
}
BENCHMARK(BM_AbstractCacheAccessAssoc4);

// The WCET fixpoint's other two kernels: abstract state copies (the
// dominant cost of loop fixpoints: every iteration copies the entry state)
// and joins at control-flow merges.
void BM_AbstractCacheCopy(benchmark::State& state) {
  cache::CachePair pair(sys().cache_config);
  for (const auto line : sys().apps[0].program.trace) pair.access(line);
  for (auto _ : state) {
    cache::CachePair copy = pair;
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_AbstractCacheCopy);

void BM_AbstractCacheJoin(benchmark::State& state) {
  cache::CachePair a(sys().cache_config);
  cache::CachePair b(sys().cache_config);
  for (const auto line : sys().apps[0].program.trace) a.access(line);
  for (const auto line : sys().apps[1].program.trace) b.access(line);
  for (auto _ : state) {
    cache::CachePair joined = a;  // copy included: the fixpoint's pattern
    joined.join(b);
    benchmark::DoNotOptimize(joined);
  }
}
BENCHMARK(BM_AbstractCacheJoin);

void BM_AbstractCacheEquality(benchmark::State& state) {
  cache::CachePair a(sys().cache_config);
  for (const auto line : sys().apps[0].program.trace) a.access(line);
  const cache::CachePair b = a;
  for (auto _ : state) {
    benchmark::DoNotOptimize(a == b);
  }
}
BENCHMARK(BM_AbstractCacheEquality);

// The same kernels at the generated population's geometry (512 sets x 8
// ways), where a per-set storage layout would pay for every empty set. The
// states are exit states of branchy random programs, so they carry the
// joined, partly filled contents the WCET fixpoint actually copies.
cache::CacheConfig population_cache() {
  cache::CacheConfig cfg = sys().cache_config;
  cfg.num_lines = 4096;
  cfg.associativity = 8;
  return cfg;
}

cache::StructuredProgram branchy_program(std::uint32_t seed) {
  testref::RandomProgramOptions opts;
  opts.seed = seed;
  opts.max_depth = 3;
  opts.branch_probability = 0.6;
  opts.max_loop_bound = 6;
  opts.max_block_lines = 16;
  opts.address_lines = 4096;
  return testref::make_random_program("bench", opts);
}

cache::CachePair population_exit_state(std::uint32_t seed) {
  return cache::analyze_static_wcet(branchy_program(seed), population_cache())
      .exit_state;
}

void BM_StaticWcetAnalysis_512x8(benchmark::State& state) {
  const auto prog = branchy_program(42);
  const cache::CacheConfig cfg = population_cache();
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache::analyze_static_wcet(prog, cfg));
  }
}
BENCHMARK(BM_StaticWcetAnalysis_512x8);

void BM_AbstractCacheCopy_512x8(benchmark::State& state) {
  const cache::CachePair pair = population_exit_state(42);
  for (auto _ : state) {
    cache::CachePair copy = pair;
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_AbstractCacheCopy_512x8);

void BM_AbstractCacheJoin_512x8(benchmark::State& state) {
  const cache::CachePair a = population_exit_state(42);
  const cache::CachePair b = population_exit_state(43);
  for (auto _ : state) {
    cache::CachePair joined = a;  // copy included: the fixpoint's pattern
    joined.join(b);
    benchmark::DoNotOptimize(joined);
  }
}
BENCHMARK(BM_AbstractCacheJoin_512x8);

void BM_AbstractCacheEquality_512x8(benchmark::State& state) {
  const cache::CachePair a = population_exit_state(42);
  const cache::CachePair b = a;
  for (auto _ : state) {
    benchmark::DoNotOptimize(a == b);
  }
}
BENCHMARK(BM_AbstractCacheEquality_512x8);

// The context-table kernels of perfbench's population_wcet workload. One
// iteration of BM_ContextTable is that workload's largest system (8 apps,
// 512 sets x 8 ways: testgen seed 7059 under the same GeneratorConfig):
// make_context_analyzer, then full_table, every context of every app.
void BM_ContextTable(benchmark::State& state) {
  testgen::GeneratorConfig g;
  g.min_apps = g.max_apps = 8;
  g.set_choices = {512};
  g.way_choices = {8};
  g.branchy_chance = 0.5;
  const core::SystemModel model = testgen::generate_system(g, 7059).model;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.make_context_analyzer()->full_table());
  }
}
BENCHMARK(BM_ContextTable)->Unit(benchmark::kMillisecond);

// One per-set part as the context analyzer walks it: copy a one-set
// generic exit (the first live set of branchy_program(42)'s split), age
// it, and analyze a 4-fetch block of renamed lines under the one-set
// cache, collecting the leaves.
void BM_OnePartWalk(benchmark::State& state) {
  const std::vector<cache::StructuredProgram> programs{branchy_program(42)};
  const std::vector<cache::SetSteady> split =
      cache::analyze_set_steady(programs, population_cache());
  const cache::SetSteady::Shape* shape = nullptr;
  for (const cache::SetSteady::Set& set : split[0].sets()) {
    shape = &split[0].shapes()[set.shape];
    if (!shape->exit.must().set_entries(0).empty()) break;
  }
  const cache::CachePair& exit = shape->exit;
  cache::StructuredProgram part;
  part.root = cache::Stmt::block({0, 1, 0, 2});
  std::vector<cache::PassCounts> leaves;
  for (auto _ : state) {
    cache::CachePair entry = exit;
    entry.age_interference_set(0, 1);
    leaves.clear();
    const cache::CacheConfig one = entry.config();
    cache::analyze_static_wcet(part, one, std::move(entry), nullptr, &leaves);
    benchmark::DoNotOptimize(leaves.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_OnePartWalk);

// One app's cold/warm pair through cache::analyze_set_steady, the routine
// SystemModel::analyze_wcets and the context analyzer run for every app:
// the split by set, the one-set steady walks and the folds. The app is the
// largest of perfbench's population_wcet population (testgen seeds
// 7000-7059 under its GeneratorConfig), by fetches on its longest path.
void BM_AppSteady(benchmark::State& state) {
  std::vector<cache::StructuredProgram> largest(1);
  cache::CacheConfig cfg;
  std::uint64_t most = 0;
  std::uint64_t seed = 7000;
  for (const std::size_t apps : {4u, 5u, 6u, 7u, 8u}) {
    for (const std::size_t sets : {128u, 256u, 512u}) {
      for (const std::size_t ways : {1u, 2u, 4u, 8u}) {
        testgen::GeneratorConfig g;
        g.min_apps = g.max_apps = apps;
        g.set_choices = {sets};
        g.way_choices = {ways};
        g.branchy_chance = 0.5;
        const core::SystemModel model = testgen::generate_system(g, seed++).model;
        for (const core::Application& a : model.apps) {
          cache::StructuredProgram p = a.analysis_program();
          const std::uint64_t fetches = p.root.max_path_accesses();
          if (fetches <= most) continue;
          most = fetches;
          largest[0] = std::move(p);
          cfg = model.cache_config;
        }
      }
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache::analyze_set_steady(largest, cfg));
  }
}
BENCHMARK(BM_AppSteady);

// ---------------------------------------------------------- design kernels
// The controller-design hot path (ISSUE 3): everything design_controller
// runs per PSO particle, plus the full design. Regressions here multiply
// into every schedule the search engines touch.

// One PSO particle: the objective design_controller minimizes
// (control::DesignObjective) on one candidate. At bound +infinity that is
// the spectral radius of the closed-loop monodromy, the exact feedforward,
// then the metrics-only switched simulation -- the body the design search
// runs thousands of times per design.
void pso_particle_eval(benchmark::State& state,
                       const control::DesignObjective& objective,
                       const std::vector<double>& theta, double bound) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(objective(theta, bound));
  }
}

/// The flattened gains vector the objective takes: theta[j * l + q].
std::vector<double> flatten_gains(const std::vector<linalg::Matrix>& k) {
  std::vector<double> theta;
  for (const linalg::Matrix& kj : k) {
    theta.insert(theta.end(), kj.data(), kj.data() + kj.size());
  }
  return theta;
}

// Case-study geometry: app 0 under (3,2,3), dense_dt = 1e-4, so every
// interval spans many dense substeps.
void BM_PsoParticleEval(benchmark::State& state) {
  const auto timing = sched::derive_timing(sys().analyze_wcets(),
                                           sched::PeriodicSchedule({3, 2, 3}));
  const auto& a = sys().apps[0];
  control::DesignSpec spec;
  spec.plant = a.plant;
  spec.umax = a.umax;
  spec.r = a.r;
  spec.y0 = a.y0;
  spec.smax = a.smax;
  const auto& intervals = timing.apps[0].intervals;
  const control::DesignObjective objective(spec, intervals);
  pso_particle_eval(state, objective,
                    flatten_gains(std::vector<linalg::Matrix>(
                        intervals.size(), linalg::Matrix{{-1e-4, -1e-6}})),
                    std::numeric_limits<double>::infinity());
}
BENCHMARK(BM_PsoParticleEval);

// population_search geometry: testgen seed 1 of perfbench's pinned
// population (3 apps, branchy_chance 0.35), its order-3 app 0 under the
// first schedule of kPopulationSchedules whose design of that app settles,
// dense_dt = max(fuzz dense_dt, horizon_factor * max smax / 400) = 2 ms as
// perfbench sets it. Under (2,2,2) both intervals (0.53 and 1.42 ms) are
// shorter than dense_dt, so each segment is one substep.
struct PopulationDesign {
  control::DesignSpec spec;
  std::vector<sched::Interval> intervals;
  control::DesignOptions opts;
  control::DesignResult design;  ///< design_controller's, settled
};

/// Candidate schedules, in order. (3,2,2), the first pin, stopped
/// settling when the polish cap fell to 700.
const std::vector<std::vector<int>> kPopulationSchedules = {
    {2, 2, 2}, {3, 2, 2}, {1, 1, 1}};

/// The pinned geometry, or nullopt when no candidate schedule gives a
/// settling order-3 app 0.
std::optional<PopulationDesign> population_design() {
  testgen::GeneratorConfig gen;
  gen.max_apps = 3;
  gen.branchy_chance = 0.35;
  const core::SystemModel model = testgen::generate_system(gen, 1).model;
  const core::Application& a = model.apps[0];
  if (a.plant.order() != 3) return std::nullopt;
  double max_smax = 0.0;
  for (const core::Application& app : model.apps) {
    max_smax = std::max(max_smax, app.smax);
  }
  PopulationDesign d;
  d.opts = testgen::fuzz_design_options();
  d.opts.dense_dt = std::max(d.opts.dense_dt,
                             d.opts.horizon_factor * max_smax / 400.0);
  d.spec.plant = a.plant;
  d.spec.umax = a.umax;
  d.spec.r = a.r;
  d.spec.y0 = a.y0;
  d.spec.smax = a.smax;
  const auto wcets = model.analyze_wcets();
  for (const std::vector<int>& m : kPopulationSchedules) {
    d.intervals = sched::derive_timing(wcets, sched::PeriodicSchedule(m))
                      .apps[0]
                      .intervals;
    d.design = control::design_controller(d.spec, d.intervals, d.opts);
    if (d.design.settled) return d;
  }
  return std::nullopt;
}

// The particle is the gains a design under those options returns: stable
// and settling. \p bound_factor scales its cost into the bound it is
// evaluated at (+infinity: unbounded).
void population_particle_eval(benchmark::State& state, double bound_factor) {
  const std::optional<PopulationDesign> d = population_design();
  if (!d) {
    state.SkipWithError("pinned system changed: no settling order-3 app 0");
    return;
  }
  const control::DesignObjective objective(d->spec, d->intervals, d->opts);
  const std::vector<double> theta = flatten_gains(d->design.gains.k);
  const double inf = std::numeric_limits<double>::infinity();
  pso_particle_eval(
      state, objective, theta,
      bound_factor == inf ? inf : bound_factor * objective(theta, inf));
}

void BM_PsoParticleEvalPopulation(benchmark::State& state) {
  population_particle_eval(state, std::numeric_limits<double>::infinity());
}
BENCHMARK(BM_PsoParticleEvalPopulation);

// The same particle bounded just below its cost, as a candidate that
// cannot beat its bound: the run is abandoned, and its stability is never
// checked.
void BM_PsoParticleEvalPopulationReject(benchmark::State& state) {
  population_particle_eval(state, 0.99);
}
BENCHMARK(BM_PsoParticleEvalPopulationReject);

// Bounded just above its cost, as a candidate that beats its bound: the
// full run, then the spectral radius.
void BM_PsoParticleEvalPopulationAccept(benchmark::State& state) {
  population_particle_eval(state, 1.01);
}
BENCHMARK(BM_PsoParticleEvalPopulationAccept);

// One full design (grid, PSO, compass polish) at that geometry with the
// fuzz design budget: the unit of work population_search repeats (680
// designs in one traced run).
void BM_FullControllerDesignPopulation(benchmark::State& state) {
  const std::optional<PopulationDesign> d = population_design();
  if (!d) {
    state.SkipWithError("pinned system changed: no settling order-3 app 0");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        control::design_controller(d->spec, d->intervals, d->opts));
  }
}
BENCHMARK(BM_FullControllerDesignPopulation)->Unit(benchmark::kMillisecond);

void BM_FullControllerDesign(benchmark::State& state) {
  const auto timing = sched::derive_timing(sys().analyze_wcets(),
                                           sched::PeriodicSchedule({3, 2, 3}));
  const auto& a = sys().apps[2];
  control::DesignSpec spec;
  spec.plant = a.plant;
  spec.umax = a.umax;
  spec.r = a.r;
  spec.y0 = a.y0;
  spec.smax = a.smax;
  auto opts = core::date18_design_options();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        control::design_controller(spec, timing.apps[2].intervals, opts));
  }
}
BENCHMARK(BM_FullControllerDesign)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main so CI can run `bench_micro --fast`: a smoke pass (tiny
// min_time) that still executes every kernel, failing the build on compile
// or runtime regressions in the design/cache hot paths (like the other
// benches' --fast).
int main(int argc, char** argv) {
  std::vector<char*> args;
  bool fast = false;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::strcmp(argv[i], "--fast") == 0) {
      fast = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  char min_time[] = "--benchmark_min_time=0.01";
  if (fast) args.push_back(min_time);
  int ac = static_cast<int>(args.size());
  benchmark::Initialize(&ac, args.data());
  if (benchmark::ReportUnrecognizedArguments(ac, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
