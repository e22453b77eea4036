// Static WCET analysis demo: bound a structured control program (blocks,
// branches, a bounded loop) with abstract must/persistence cache
// interpretation, compare the bound against concrete simulation of every
// execution path, and certify the guaranteed warm-cache reduction without
// replaying a single fetch -- the analysis-side counterpart of the paper's
// Sec. II-B. Exits 1 if the bound falls below the worst simulated path.
//
// Build & run:  ./build/examples/wcet_analysis

#include <algorithm>
#include <cstdio>

#include "cache/cache_model.hpp"
#include "cache/static_wcet.hpp"
#include "cache/structure.hpp"
#include "../tests/random_program.hpp"

using namespace catsched;

int main() {
  cache::CacheConfig cfg;
  cfg.num_lines = 32;  // small cache so the program does not trivially fit
  cfg.associativity = 2;

  // A control task skeleton: sensor read, a mode branch (fault handling vs
  // nominal), a fixed-point filter loop, and the actuation epilogue.
  using cache::Stmt;
  cache::StructuredProgram prog;
  prog.name = "pid_task";
  prog.root = Stmt::seq({
      Stmt::block({0, 1, 2, 3}),  // prologue: read sensors, load state
      Stmt::branch(               // fault path touches extra lines
          Stmt::block({10, 11, 12, 13, 14, 15}),
          Stmt::block({20, 21})),
      Stmt::loop(                 // filter: 8 taps over a hot kernel
          Stmt::block({30, 31, 32, 33}), 8),
      Stmt::block({40, 41}),      // epilogue: write actuator command
  });

  std::printf("program: %zu branches, longest path %llu fetches\n",
              testref::branch_count(prog.root),
              static_cast<unsigned long long>(
                  prog.root.max_path_accesses()));

  // -- Static bound (cold entry) ---------------------------------------
  const auto cold = cache::analyze_static_wcet(prog, cfg);
  std::printf("\ncold analysis:  WCET bound %llu cycles  "
              "(AH %llu / FM %llu / NC %llu)\n",
              static_cast<unsigned long long>(cold.wcet_cycles),
              static_cast<unsigned long long>(cold.always_hit),
              static_cast<unsigned long long>(cold.first_miss),
              static_cast<unsigned long long>(cold.not_classified));

  // -- Exhaustive concrete check ---------------------------------------
  const auto paths = testref::enumerate_paths(prog.root);
  std::uint64_t worst = 0;
  for (const auto& p : paths) {
    cache::CacheSim sim(cfg);
    worst = std::max(worst, sim.run_trace(p));
  }
  const bool sound = cold.wcet_cycles >= worst;
  std::printf("simulation:     worst path of %zu paths costs %llu cycles "
              "(bound is %s)\n",
              paths.size(), static_cast<unsigned long long>(worst),
              sound ? "sound" : "UNSOUND?!");
  if (!sound) return 1;

  // -- Warm re-execution bound (paper's guaranteed reuse) ---------------
  const auto app = cache::analyze_static_steady_wcet(prog, cfg);
  std::printf("\nwarm analysis:  WCET bound %llu cycles  "
              "(AH %llu / FM %llu / NC %llu)\n",
              static_cast<unsigned long long>(app.warm.wcet_cycles),
              static_cast<unsigned long long>(app.warm.always_hit),
              static_cast<unsigned long long>(app.warm.first_miss),
              static_cast<unsigned long long>(app.warm.not_classified));
  std::printf("guaranteed reduction E^gu = %llu cycles (%.1f%% of cold)\n",
              static_cast<unsigned long long>(app.reduction_cycles()),
              100.0 * static_cast<double>(app.reduction_cycles()) /
                  static_cast<double>(app.cold.wcet_cycles));

  // The scheduler consumes exactly two numbers per task:
  std::printf("\nscheduler view: cold %.2f us, warm %.2f us @ %.0f MHz\n",
              app.cold.wcet_seconds(cfg) * 1e6,
              app.warm.wcet_seconds(cfg) * 1e6, cfg.clock_hz / 1e6);
  return 0;
}
