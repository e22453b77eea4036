#include "opt/pso.hpp"

#include <algorithm>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

namespace catsched::opt {

PsoResult pso_minimize(const Objective& f, const std::vector<double>& lo,
                       const std::vector<double>& hi, const PsoOptions& opts,
                       const std::vector<std::vector<double>>& seeds) {
  const std::size_t d = lo.size();
  if (d == 0 || hi.size() != d) {
    throw std::invalid_argument("pso_minimize: bad bounds");
  }
  for (std::size_t j = 0; j < d; ++j) {
    if (!(lo[j] <= hi[j])) {
      throw std::invalid_argument("pso_minimize: lo > hi");
    }
  }
  if (opts.particles < 1 || opts.iterations < 0) {
    throw std::invalid_argument("pso_minimize: bad particle/iteration count");
  }

  std::mt19937_64 rng(opts.seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  const std::size_t n = static_cast<std::size_t>(opts.particles);
  std::vector<std::vector<double>> x(n, std::vector<double>(d));
  std::vector<std::vector<double>> v(n, std::vector<double>(d));
  std::vector<std::vector<double>> pbest(n);
  std::vector<double> pbest_cost(n, std::numeric_limits<double>::infinity());

  std::vector<double> width(d);
  for (std::size_t j = 0; j < d; ++j) width[j] = hi[j] - lo[j];

  auto clamp_to_box = [&](std::vector<double>& p) {
    for (std::size_t j = 0; j < d; ++j) p[j] = std::clamp(p[j], lo[j], hi[j]);
  };

  // Initialize: seeds first, then uniform random positions.
  for (std::size_t i = 0; i < n; ++i) {
    if (i < seeds.size()) {
      if (seeds[i].size() != d) {
        throw std::invalid_argument("pso_minimize: seed dimension mismatch");
      }
      x[i] = seeds[i];
      clamp_to_box(x[i]);
    } else {
      for (std::size_t j = 0; j < d; ++j) {
        x[i][j] = lo[j] + unit(rng) * width[j];
      }
    }
    for (std::size_t j = 0; j < d; ++j) {
      v[i][j] = (unit(rng) - 0.5) * width[j] * 0.1;
    }
  }

  PsoResult res;
  res.cost = std::numeric_limits<double>::infinity();
  int evals = 0;

  std::vector<double> costs(n);  // generation cost slots, reused
  auto evaluate_all = [&]() {
    // Evaluate the whole generation into index-addressed slots (possibly
    // in parallel via the batch hook), then reduce serially in particle
    // order — bit-identical to the one-at-a-time loop. A particle's cost
    // matters only if it beats the particle's own best, which is never
    // below the global best, so that best bounds its evaluation (+infinity
    // in generation 0).
    if (opts.batch_eval) {
      opts.batch_eval(x, pbest_cost, costs);
    } else {
      for (std::size_t i = 0; i < n; ++i) costs[i] = f(x[i], pbest_cost[i]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const double c = costs[i];
      ++evals;
      if (c < pbest_cost[i]) {
        pbest_cost[i] = c;
        pbest[i] = x[i];
      }
      if (c < res.cost) {
        res.cost = c;
        res.x = x[i];
      }
    }
  };

  evaluate_all();

  int stall = 0;
  double last_best = res.cost;
  for (int it = 0; it < opts.iterations; ++it) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < d; ++j) {
        const double r1 = unit(rng);
        const double r2 = unit(rng);
        v[i][j] = opts.inertia * v[i][j] +
                  opts.cognitive * r1 * (pbest[i][j] - x[i][j]) +
                  opts.social * r2 * (res.x[j] - x[i][j]);
        const double vmax = opts.velocity_clamp * width[j];
        v[i][j] = std::clamp(v[i][j], -vmax, vmax);
        x[i][j] += v[i][j];
      }
      clamp_to_box(x[i]);
    }
    evaluate_all();
    res.iterations_run = it + 1;
    if (opts.stall_iterations > 0) {
      if (last_best - res.cost <= opts.stall_tolerance) {
        if (++stall >= opts.stall_iterations) break;
      } else {
        stall = 0;
      }
      last_best = res.cost;
    }
  }
  res.evaluations = evals;
  return res;
}

}  // namespace catsched::opt
