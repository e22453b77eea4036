#include "core/system_model.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cache/schedule_wcet.hpp"
#include "cache/static_wcet.hpp"

namespace catsched::core {

void SystemModel::validate() const {
  if (apps.empty()) {
    throw std::invalid_argument("SystemModel: no applications");
  }
  double wsum = 0.0;
  for (const Application& a : apps) {
    a.plant.validate();
    if (a.weight < 0.0 || a.smax <= 0.0 || a.tidle <= 0.0 || a.umax <= 0.0) {
      throw std::invalid_argument("SystemModel: bad application parameters");
    }
    if (a.program.trace.empty()) {
      throw std::invalid_argument("SystemModel: application has no program");
    }
    if (a.has_structured() && a.structured.root.max_path_accesses() == 0) {
      throw std::invalid_argument(
          "SystemModel: structured program performs no accesses");
    }
    wsum += a.weight;
  }
  if (std::abs(wsum - 1.0) > 1e-9) {
    throw std::invalid_argument("SystemModel: weights must sum to 1");
  }
}

std::vector<sched::AppWcet> SystemModel::analyze_wcets() const {
  std::vector<sched::AppWcet> out;
  out.reserve(apps.size());
  for (const Application& a : apps) {
    if (a.has_structured()) {
      // All-paths bound for branchy programs: the static analysis always
      // reaches a steady warm state (finite abstract domain), and its
      // single-path specialization agrees with the simulator bit-for-bit,
      // so mixing the two kinds in one system stays consistent.
      const cache::StaticSteadyWcet w =
          cache::analyze_static_steady_wcet(a.structured, cache_config);
      out.push_back(sched::AppWcet{w.cold.wcet_seconds(cache_config),
                                   w.warm.wcet_seconds(cache_config)});
      continue;
    }
    const cache::WcetResult w = cache::analyze_wcet(a.program, cache_config);
    if (!w.steady) {
      throw std::runtime_error("SystemModel: program '" + a.name +
                               "' has no steady warm-cache WCET");
    }
    out.push_back(sched::AppWcet{w.cold_seconds, w.warm_seconds});
  }
  return out;
}

std::unique_ptr<cache::ScheduleWcetAnalyzer>
SystemModel::make_context_analyzer() const {
  std::vector<cache::StructuredProgram> programs;
  programs.reserve(apps.size());
  for (const Application& a : apps) {
    if (a.has_structured()) {
      programs.push_back(a.structured);
    } else {
      programs.push_back(cache::StructuredProgram{
          a.program.name, cache::Stmt::block(a.program.trace)});
    }
  }
  return std::make_unique<cache::ScheduleWcetAnalyzer>(std::move(programs),
                                                       cache_config);
}

sched::ContextWcetTable SystemModel::analyze_context_wcets() const {
  return make_context_analyzer()->full_table();
}

std::vector<double> SystemModel::tidle_vector() const {
  std::vector<double> v;
  v.reserve(apps.size());
  for (const Application& a : apps) v.push_back(a.tidle);
  return v;
}

}  // namespace catsched::core
