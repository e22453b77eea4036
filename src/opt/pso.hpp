#pragma once
/// \file pso.hpp
/// \brief Deterministic particle swarm optimization (paper Sec. III uses
///        PSO for pole placement [14]). Generic box-constrained minimizer;
///        the control design wraps it with a settling-time objective.

#include <cstdint>
#include <functional>
#include <vector>

namespace catsched::opt {

/// PSO tuning knobs. Defaults follow the canonical constricted swarm
/// (Clerc–Kennedy coefficients).
struct PsoOptions {
  int particles = 40;
  int iterations = 80;
  double inertia = 0.7298;
  double cognitive = 1.49618;  ///< pull toward each particle's best
  double social = 1.49618;     ///< pull toward the global best
  std::uint64_t seed = 1;      ///< deterministic runs
  double velocity_clamp = 0.5; ///< max |v| as a fraction of the box width
  /// Stop early when the global best has not improved by more than
  /// stall_tolerance for stall_iterations consecutive iterations (0 = off).
  int stall_iterations = 25;
  double stall_tolerance = 1e-9;
  /// Optional batched objective: fill costs[i] with the objective at
  /// positions[i] under bounds[i] (costs is pre-sized to positions.size()).
  /// When set, every swarm generation is evaluated through this hook
  /// instead of calling the scalar objective particle-by-particle — the
  /// controller design uses it to fan particles across a thread pool. The
  /// swarm update itself never changes: costs feed the exact same serial
  /// pbest/gbest reduction, so a batch evaluator that returns
  /// f(positions[i], bounds[i]) under the Objective contract (e.g. the same
  /// pure objective run on worker threads) leaves results bit-identical.
  std::function<void(const std::vector<std::vector<double>>& positions,
                     const std::vector<double>& bounds,
                     std::vector<double>& costs)>
      batch_eval;
};

/// Result of one swarm run.
struct PsoResult {
  std::vector<double> x;    ///< best position found
  double cost = 0.0;        ///< objective at x
  int evaluations = 0;      ///< objective evaluations performed
  int iterations_run = 0;
};

/// Objective f(x, bound): R^d -> R, minimized. It returns f(x) bit-exactly
/// when f(x) < bound, and otherwise any value >= bound, so an expensive
/// objective may stop evaluating a point once it provably cannot beat the
/// bound. Each minimizer passes a bound that decides every comparison it
/// makes with the returned cost (pso_minimize: the particle's own best,
/// +infinity until it has one; pattern_search: the incumbent's cost,
/// +infinity for the start point), so results and evaluation counts are
/// those of the exact f. An evaluation cut short still counts as one.
using Objective =
    std::function<double(const std::vector<double>& x, double bound)>;

/// Minimize \p f over the box [lo, hi]^d. Seed positions (clamped to the
/// box) are injected as the first particles; remaining particles are drawn
/// uniformly. Fully deterministic for a fixed options.seed.
/// \throws std::invalid_argument on empty/mismatched bounds or lo > hi.
PsoResult pso_minimize(const Objective& f, const std::vector<double>& lo,
                       const std::vector<double>& hi, const PsoOptions& opts,
                       const std::vector<std::vector<double>>& seeds = {});

}  // namespace catsched::opt
