#pragma once
/// \file wcet.hpp
/// \brief Concrete trace replay on the cache simulator: the cold and
///        steady warm cycles of one trace, and whole-schedule
///        instruction-stream simulation.
///
/// The pipeline's WCETs come from the static analysis
/// (cache::analyze_set_steady on core::Application::analysis_program(),
/// equal to cache::analyze_static_steady_wcet). analyze_wcet is the reference
/// the tests and the fuzz harness hold it to: on a single trace the static
/// analysis is exact, so the two agree bit for bit.

#include <cstdint>
#include <vector>

#include "cache/cache_model.hpp"
#include "cache/program.hpp"

namespace catsched::cache {

/// Result of analyzing one program on one cache configuration.
struct WcetResult {
  std::uint64_t cold_cycles = 0;  ///< cycles from an empty cache
  std::uint64_t warm_cycles = 0;  ///< steady-state cycles when re-executed
  bool steady = false;            ///< warm re-executions reached a fixpoint

  double cold_seconds = 0.0;
  double warm_seconds = 0.0;
  /// Guaranteed WCET reduction E^gu = cold - warm (paper eq. (5) input).
  double reduction_seconds = 0.0;
};

/// Run \p program cold, then re-run it \p warm_runs times back-to-back and
/// report the steady warm cycle count. `steady` is true when the last two
/// warm runs agree (the guaranteed-reuse bound is then exact for this
/// trace). \throws std::invalid_argument if warm_runs < 1.
WcetResult analyze_wcet(const Program& program, const CacheConfig& config,
                        int warm_runs = 4);

/// One executed task inside a simulated schedule instruction stream.
struct TaskExecution {
  std::size_t app = 0;       ///< index into the program list
  std::size_t burst_pos = 0; ///< 0-based position within its consecutive burst
  std::uint64_t cycles = 0;  ///< simulated execution cycles
  double start_seconds = 0.0;
  double end_seconds = 0.0;
};

/// Simulate the full instruction stream of a task sequence (e.g. one or
/// more schedule periods of (m1..mn)) through a single shared cache and
/// return per-task execution times. Tasks run back-to-back (the paper's
/// non-preemptive consecutive execution).
/// \param task_app_ids for each task in order, which program runs.
/// \throws std::out_of_range if an id exceeds the program list.
std::vector<TaskExecution> simulate_task_sequence(
    const std::vector<Program>& programs,
    const std::vector<std::size_t>& task_app_ids, const CacheConfig& config);

/// Expand a periodic schedule (m1..mn) into `periods` repetitions of the
/// task sequence [0 x m1, 1 x m2, ...], for simulate_task_sequence.
std::vector<std::size_t> expand_periodic_schedule(
    const std::vector<int>& m, std::size_t periods);

}  // namespace catsched::cache
