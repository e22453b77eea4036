#pragma once
/// \file pattern_search.hpp
/// \brief Deterministic coordinate pattern search (compass search), used to
///        polish PSO results: settling-time objectives are piecewise
///        constant, so a deterministic descent-to-plateau removes the
///        swarm's run-to-run variance from schedule comparisons.

#include <vector>

#include "opt/pso.hpp"

namespace catsched::opt {

struct PatternSearchOptions {
  double initial_step = 0.25;  ///< step as a fraction of each |x| (see below)
  double min_step = 1e-4;      ///< stop when the relative step drops below
  int max_evaluations = 4000;
  double step_floor_abs = 1e-9;  ///< absolute step floor for zero entries
};

struct PatternSearchResult {
  std::vector<double> x;
  double cost = 0.0;
  int evaluations = 0;
};

/// Minimize f from x0 by cycling coordinates with +-step moves (step is
/// per-coordinate, proportional to max(|x0_i|, scale)); halve the step when
/// a full sweep yields no improvement. Fully deterministic. x0 is
/// evaluated unbounded; every candidate after it is bounded by the
/// incumbent's cost, which is all the acceptance test compares against.
/// \throws std::invalid_argument if x0 is empty.
PatternSearchResult pattern_search(const Objective& f,
                                   const std::vector<double>& x0,
                                   const PatternSearchOptions& opts = {});

}  // namespace catsched::opt
