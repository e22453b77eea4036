#include "core/system_model.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cache/schedule_wcet.hpp"
#include "cache/set_steady.hpp"

namespace catsched::core {

void SystemModel::validate() const {
  if (apps.empty()) {
    throw std::invalid_argument("SystemModel: no applications");
  }
  cache_config.validate();
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

cache::StructuredProgram Application::analysis_program() const {
  if (has_structured()) return structured;
  return cache::StructuredProgram{program.name,
                                  cache::Stmt::block(program.trace)};
}

std::vector<sched::AppWcet> SystemModel::analyze_wcets() const {
  std::vector<cache::StructuredProgram> programs;
  programs.reserve(apps.size());
  for (const Application& a : apps) programs.push_back(a.analysis_program());
  std::vector<sched::AppWcet> out;
  out.reserve(apps.size());
  for (const cache::SetSteady& s :
       cache::analyze_set_steady(programs, cache_config)) {
    out.push_back(sched::AppWcet{s.pair().cold.wcet_seconds(cache_config),
                                 s.pair().warm.wcet_seconds(cache_config)});
  }
  return out;
}

std::unique_ptr<cache::ScheduleWcetAnalyzer>
SystemModel::make_context_analyzer() const {
  std::vector<cache::StructuredProgram> programs;
  programs.reserve(apps.size());
  for (const Application& a : apps) programs.push_back(a.analysis_program());
  return std::make_unique<cache::ScheduleWcetAnalyzer>(std::move(programs),
                                                       cache_config);
}

std::vector<double> SystemModel::tidle_vector() const {
  std::vector<double> v;
  v.reserve(apps.size());
  for (const Application& a : apps) v.push_back(a.tidle);
  return v;
}

}  // namespace catsched::core
