#include "opt/pattern_search.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

namespace catsched::opt {

PatternSearchResult pattern_search(const Objective& f,
                                   const std::vector<double>& x0,
                                   const PatternSearchOptions& opts) {
  if (x0.empty()) {
    throw std::invalid_argument("pattern_search: empty start point");
  }
  const std::size_t d = x0.size();
  PatternSearchResult res;
  res.x = x0;
  res.cost = f(res.x, std::numeric_limits<double>::infinity());
  res.evaluations = 1;

  double scale = 0.0;
  for (double v : x0) scale = std::max(scale, std::abs(v));
  if (scale <= 0.0) scale = 1.0;

  std::vector<double> step(d);
  for (std::size_t i = 0; i < d; ++i) {
    step[i] = opts.initial_step * std::max(std::abs(x0[i]), 0.1 * scale);
    step[i] = std::max(step[i], opts.step_floor_abs);
  }
  double rel = opts.initial_step;

  while (rel > opts.min_step && res.evaluations < opts.max_evaluations) {
    bool improved = false;
    for (std::size_t i = 0; i < d && res.evaluations < opts.max_evaluations;
         ++i) {
      for (double sgn : {+1.0, -1.0}) {
        if (res.evaluations >= opts.max_evaluations) break;
        std::vector<double> cand = res.x;
        cand[i] += sgn * step[i];
        const double c = f(cand, res.cost);
        ++res.evaluations;
        if (c < res.cost) {
          res.cost = c;
          res.x = std::move(cand);
          improved = true;
          break;  // keep moving this direction next sweep
        }
      }
    }
    if (!improved) {
      rel *= 0.5;
      for (double& s : step) s *= 0.5;
    }
  }
  return res;
}

}  // namespace catsched::opt
