#pragma once
/// \file system_model.hpp
/// \brief The co-design problem instance: n control applications sharing
///        one processor with an instruction cache (paper Sec. II).

#include <memory>
#include <string>
#include <vector>

#include "cache/cache_model.hpp"
#include "cache/program.hpp"
#include "cache/structure.hpp"
#include "control/design.hpp"
#include "sched/timing.hpp"

namespace catsched::cache {
// The schedule-dependent WCET engine (cache/schedule_wcet.hpp) is only
// named through pointers here; including its header (shared_mutex, the
// static-analysis stack) in every TU that sees the system model would be
// pure build weight.
class ScheduleWcetAnalyzer;
}  // namespace catsched::cache

namespace catsched::core {

/// One feedback control application: its plant, its program image, and the
/// parameters of Table II (weight, settling deadline, max idle time) plus
/// the input saturation and reference step of Sec. II-A.
struct Application {
  std::string name;
  control::ContinuousLTI plant;
  cache::Program program;  ///< worst-case-path instruction trace
  /// Optional structured control-flow image (branches + bounded loops).
  /// When present (see has_structured), the WCET analyses bound EVERY path
  /// of this tree, and `program.trace` must hold ONE concrete path of it
  /// (by convention a maximal-access path) — the trace stays required
  /// because replay invariants and shrinking both consume a concrete path.
  cache::StructuredProgram structured;
  double weight = 1.0;     ///< w_i, sum over apps must be 1
  double smax = 1.0;       ///< settling deadline s_i^max [s] (also s_i^0)
  double tidle = 1.0;      ///< max allowed idle time t_i^idle [s]
  double umax = 1.0;       ///< input saturation U^max
  double r = 1.0;          ///< reference level after the step
  double y0 = 0.0;         ///< pre-step equilibrium output

  /// True iff a structured control-flow tree was attached (the default-
  /// constructed `structured` is an empty block, which no generator emits).
  bool has_structured() const noexcept {
    return structured.root.kind != cache::Stmt::Kind::block ||
           !structured.root.lines.empty();
  }

  /// The program every WCET analysis of this app runs on: the structured
  /// tree, or the trace lifted to one block. The static analysis of a
  /// single path is exact, so a lifted trace's cold/warm pair equals the
  /// CacheSim replay of cache/wcet (gtest- and fuzz-enforced).
  cache::StructuredProgram analysis_program() const;
};

/// The full system: applications plus the shared cache/platform.
struct SystemModel {
  std::vector<Application> apps;
  cache::CacheConfig cache_config{};

  std::size_t num_apps() const noexcept { return apps.size(); }

  /// \throws std::invalid_argument if empty, weights do not sum to ~1, any
  ///         application field is out of range, or the cache config fails
  ///         CacheConfig::validate.
  void validate() const;

  /// The cold and guaranteed-warm WCET of every application on the shared
  /// cache: the static must/persistence analysis of each app's
  /// analysis_program(), which bounds EVERY path of a structured app, run
  /// one cache set at a time (cache::analyze_set_steady; bit-identical to
  /// cache::analyze_static_steady_wcet on the whole program).
  std::vector<sched::AppWcet> analyze_wcets() const;

  /// Build the schedule-dependent WCET engine for the shared cache: lazy,
  /// memoized per-(app, interference-mask) bounds sitting strictly between
  /// the guaranteed-warm and cold extremes. It analyzes the same
  /// analysis_program()s, so its cold/warm base equals analyze_wcets()
  /// bit for bit.
  std::unique_ptr<cache::ScheduleWcetAnalyzer> make_context_analyzer() const;

  /// Table II-style constraint vector.
  std::vector<double> tidle_vector() const;
};

}  // namespace catsched::core
