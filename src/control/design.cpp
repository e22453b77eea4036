#include "control/design.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "control/pole_place.hpp"
#include "core/parallel.hpp"
#include "opt/pattern_search.hpp"
#include "linalg/eig.hpp"

namespace catsched::control {

namespace {

/// Shared evaluation context so the PSO objective and the final metric
/// report use identical code paths. Every design is scored on the
/// worst-case step response: the reference steps at the start of the
/// longest interval, the input held through it.
struct EvalContext {
  EvalContext(const DesignSpec& s, const std::vector<sched::Interval>& ivs,
              const DesignOptions& o)
      : spec(s),
        opts(o),
        sim(s.plant, ivs, o.dense_dt),
        eq(equilibrium_at(s.plant, s.y0)) {
    sched::AppTiming at;
    at.intervals = ivs;
    sim_opts.r = s.r;
    sim_opts.horizon = o.horizon_factor * s.smax;
    sim_opts.start_phase = at.longest_interval();
    sim_opts.hold_first_interval = true;
    sim_opts.settle_band = s.settle_band;
    sim_opts.settle_on_samples = o.settle_on_samples;
  }

  const DesignSpec& spec;
  const DesignOptions& opts;
  SwitchedSimulator sim;
  Equilibrium eq;
  SimOptions sim_opts;

  std::optional<std::vector<double>> feedforward(
      const std::vector<Matrix>& k) const {
    return opts.exact_feedforward
               ? exact_feedforward(sim.phases(), spec.plant.c, k)
               : per_interval_feedforward(sim.phases(), spec.plant.c, k);
  }
};

std::vector<Matrix> unpack_gains(const std::vector<double>& theta,
                                 std::size_t m, std::size_t l) {
  std::vector<Matrix> k(m, Matrix(1, l));
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t q = 0; q < l; ++q) k[j](0, q) = theta[j * l + q];
  }
  return k;
}

/// design_cost's score of a simulated step response: worst-case settling
/// time with a small IAE tie-breaker, a graded floor for responses that
/// never settle or diverge, plus a graded input-saturation penalty.
double response_cost(const EvalContext& ctx, const SimResult& sr) {
  const double horizon = ctx.sim_opts.horizon;
  double cost;
  if (sr.diverged) {
    cost = 5.0e2 * horizon;
  } else if (!sr.settled) {
    cost = 2.0 * horizon + std::min(sr.tail_error, 1.0e3) * horizon;
  } else {
    // Settling time is piecewise constant in the gains; a small integral
    // absolute error term breaks plateau ties toward robust centers.
    cost = sr.settling_time + 0.05 * sr.iae;
  }
  if (sr.u_max_abs > ctx.spec.umax) {
    cost += 50.0 * horizon * (sr.u_max_abs / ctx.spec.umax - 1.0);
  }
  return cost;
}

/// A lower bound on response_cost of every run that has streamed
/// \p so_far: response_cost itself, at the cheapest completion of each
/// branch. A run that settles does so no earlier than so_far.settling_time
/// with no less IAE; one that does not settle scores at least its zero
/// tail error floor 2H; the diverged branch (500 H) lies above that floor.
///
/// Why it never exceeds the final cost: every input only grows as the run
/// goes on. IAE sums non-negative terms, u_max_abs is a running maximum,
/// and the settling time only moves later. response_cost is non-decreasing
/// in each input, and IEEE rounding is monotone, so each rounded step of
/// the final cost is at least its counterpart here; the saturation term,
/// added to both branches alike, commutes with the min.
double response_cost_floor(const EvalContext& ctx, SimResult so_far) {
  so_far.settled = true;
  const double settles = response_cost(ctx, so_far);
  so_far.settled = false;
  so_far.tail_error = 0.0;
  return std::min(settles, response_cost(ctx, so_far));
}

/// Objective for the PSO: stability barrier, then response_cost. Lower is
/// better. Returns the exact cost when it is below \p bound, and otherwise
/// some value >= bound: the simulation stops once response_cost_floor
/// reaches the bound.
double design_cost(const EvalContext& ctx, const std::vector<double>& theta,
                   double bound) {
  const std::size_t m = ctx.sim.num_phases();
  const std::size_t l = ctx.spec.plant.order();
  std::vector<Matrix> k = unpack_gains(theta, m, l);

  const double rho = linalg::spectral_radius(closed_loop_monodromy(
      ctx.sim.phases(), k));
  const double horizon = ctx.sim_opts.horizon;
  if (rho >= 1.0 - ctx.opts.stability_margin) {
    return 1.0e3 * horizon * (1.0 + rho);  // graded push toward stability
  }
  auto f = ctx.feedforward(k);
  if (!f) {
    return 1.0e3 * horizon * (1.0 + rho);
  }
  const SimResult sr = ctx.sim.simulate(
      {std::move(k), std::move(*f)}, ctx.eq.x, ctx.eq.u, ctx.sim_opts,
      nullptr, bound, [&ctx](const SimResult& so_far) {
        return response_cost_floor(ctx, so_far);
      });
  return sr.abandoned ? response_cost_floor(ctx, sr) : response_cost(ctx, sr);
}

DesignResult report_for(const EvalContext& ctx,
                        const std::vector<double>& theta,
                        int pso_evaluations) {
  const std::size_t m = ctx.sim.num_phases();
  const std::size_t l = ctx.spec.plant.order();
  DesignResult res;
  res.pso_evaluations = pso_evaluations;
  std::vector<Matrix> k = unpack_gains(theta, m, l);
  res.spectral_radius = linalg::spectral_radius(
      closed_loop_monodromy(ctx.sim.phases(), k));
  auto f = ctx.feedforward(k);
  if (!f || res.spectral_radius >= 1.0 - ctx.opts.stability_margin) {
    res.settled = false;
    res.feasible = false;
    res.settling_time = std::numeric_limits<double>::infinity();
    res.gains = PhaseGains{std::move(k), std::vector<double>(m, 0.0)};
    return res;
  }
  res.gains = PhaseGains{std::move(k), std::move(*f)};
  const SimResult sr =
      ctx.sim.simulate(res.gains, ctx.eq.x, ctx.eq.u, ctx.sim_opts);
  res.settling_time =
      sr.settled ? sr.settling_time : std::numeric_limits<double>::infinity();
  res.settled = sr.settled;
  res.u_max_abs = sr.u_max_abs;
  res.feasible = sr.settled && !sr.diverged &&
                 sr.settling_time <= ctx.spec.smax &&
                 sr.u_max_abs <= ctx.spec.umax * (1.0 + 1e-9);
  return res;
}

}  // namespace

DesignResult design_controller(const DesignSpec& spec,
                               const std::vector<sched::Interval>& intervals,
                               const DesignOptions& opts,
                               core::ThreadPool* pool) {
  spec.plant.validate();
  if (spec.smax <= 0.0 || spec.umax <= 0.0) {
    throw std::invalid_argument("design_controller: smax/umax must be > 0");
  }
  const std::size_t l = spec.plant.order();
  const std::size_t m = intervals.size();
  if (m == 0) {
    throw std::invalid_argument("design_controller: no intervals");
  }

  const EvalContext ctx(spec, intervals, opts);
  const SwitchedSimulator& sim = ctx.sim;

  // Stage A (paper's PSO-over-poles spirit): scan a grid of closed-loop
  // pole patterns on the average-rate surrogate, recover gains with
  // Ackermann, and rank them by the true switched-system cost.
  double h_bar = 0.0;
  double tau_bar = 0.0;
  for (const auto& iv : intervals) {
    h_bar += iv.h;
    tau_bar += iv.tau;
  }
  h_bar /= static_cast<double>(m);
  tau_bar = std::min(tau_bar / static_cast<double>(m), h_bar);
  const PhaseDynamics avg = discretize_interval(spec.plant, h_bar, tau_bar);

  // Candidate generation is serial and deterministic; the expensive part —
  // design_cost, a full switched simulation per candidate — is batched
  // below into index-addressed slots (parallel when a pool is given) and
  // ranked in generation order, identical to evaluating inline.
  std::vector<std::vector<double>> grid;
  for (double radius : opts.seed_pole_radii) {
    for (double angle : opts.seed_pole_angles) {
      std::vector<std::complex<double>> poles;
      if (l == 1) {
        poles.emplace_back(radius, 0.0);
      } else {
        poles.emplace_back(radius * std::cos(angle), radius * std::sin(angle));
        poles.emplace_back(radius * std::cos(angle),
                           -radius * std::sin(angle));
        for (std::size_t q = 2; q < l; ++q) {
          poles.emplace_back(radius * std::pow(0.7, q - 1), 0.0);
        }
      }
      // Candidate 1: the average-rate Ackermann gain replicated per phase.
      try {
        const Matrix k0 = place_poles(avg.ad, avg.btot, poles);
        std::vector<double> seed(m * l);
        for (std::size_t j = 0; j < m; ++j) {
          for (std::size_t q = 0; q < l; ++q) seed[j * l + q] = k0(0, q);
        }
        grid.push_back(std::move(seed));
      } catch (const std::exception&) {
        // uncontrollable surrogate at this rate: skip this candidate
      }
      // Candidate 2: per-phase Ackermann gains -- each phase places the
      // same pole pattern against its own (h, tau), which is where the
      // holistic design's advantage over replication comes from.
      if (m > 1) {
        std::vector<double> seed(m * l);
        bool ok = true;
        for (std::size_t j = 0; j < m && ok; ++j) {
          try {
            const Matrix kj = place_poles(sim.phases()[j].ad,
                                          sim.phases()[j].btot, poles);
            for (std::size_t q = 0; q < l; ++q) seed[j * l + q] = kj(0, q);
          } catch (const std::exception&) {
            ok = false;
          }
        }
        if (ok) grid.push_back(std::move(seed));
      }
      // Candidate 3: equalized continuous-time rate -- phase j places the
      // pattern at radius^(h_j / h_bar), so every interval contracts at the
      // same continuous rate despite the non-uniform sampling.
      if (m > 1 && radius > 0.0) {
        std::vector<double> seed(m * l);
        bool ok = true;
        for (std::size_t j = 0; j < m && ok; ++j) {
          const double rj = std::pow(radius, sim.phases()[j].h / h_bar);
          std::vector<std::complex<double>> pj;
          if (l == 1) {
            pj.emplace_back(rj, 0.0);
          } else {
            const double aj = angle * sim.phases()[j].h / h_bar;
            pj.emplace_back(rj * std::cos(aj), rj * std::sin(aj));
            pj.emplace_back(rj * std::cos(aj), -rj * std::sin(aj));
            for (std::size_t q = 2; q < l; ++q) {
              pj.emplace_back(rj * std::pow(0.7, q - 1), 0.0);
            }
          }
          try {
            const Matrix kj = place_poles(sim.phases()[j].ad,
                                          sim.phases()[j].btot, pj);
            for (std::size_t q = 0; q < l; ++q) seed[j * l + q] = kj(0, q);
          } catch (const std::exception&) {
            ok = false;
          }
        }
        if (ok) grid.push_back(std::move(seed));
      }
    }
  }
  // Batch-evaluate the grid: index-addressed cost slots, serial ranking.
  // A candidate whose evaluation fails numerically (QR non-convergence on
  // a degenerate closed loop — a runtime_error) is dropped, like an
  // uncontrollable seed above: one bad grid point must not abort the whole
  // design. logic_errors (dimension mismatches) still propagate — those
  // are bugs and must surface, per the Matrix contract.
  std::vector<double> grid_cost(grid.size());
  std::vector<char> grid_failed(grid.size(), 0);
  core::parallel_for(pool, grid.size(), [&](std::size_t i) {
    try {
      grid_cost[i] =
          design_cost(ctx, grid[i], std::numeric_limits<double>::infinity());
    } catch (const std::runtime_error&) {
      grid_failed[i] = 1;
    }
  });
  int grid_evals = 0;
  std::vector<std::pair<double, std::vector<double>>> ranked;
  ranked.reserve(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (grid_failed[i]) continue;
    ranked.emplace_back(grid_cost[i], std::move(grid[i]));
    ++grid_evals;
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  // Stage B: PSO over the gain entries in a box around the best grid
  // candidate (falling back to a unit box if the grid produced nothing).
  std::vector<std::vector<double>> seeds;
  for (std::size_t i = 0; i < ranked.size() && i < 6; ++i) {
    seeds.push_back(ranked[i].second);
  }
  std::vector<double> center(m * l, 0.0);
  double scale = 1.0;
  if (!seeds.empty()) {
    center = seeds.front();
    scale = 0.0;
    for (double v : center) scale = std::max(scale, std::abs(v));
    if (scale <= 0.0) scale = 1.0;
  }
  std::vector<double> lo(m * l);
  std::vector<double> hi(m * l);
  for (std::size_t d = 0; d < m * l; ++d) {
    const double half = opts.gain_box_factor *
                        std::max(std::abs(center[d]), 0.1 * scale);
    lo[d] = center[d] - half;
    hi[d] = center[d] + half;
  }

  const auto objective = [&](const std::vector<double>& theta,
                             double bound) {
    // Same policy as the seed grid: a numerically degenerate candidate
    // (QR non-convergence in the stability barrier) is penalized out of
    // contention, never fatal, while logic_errors propagate. The PSO
    // batch hook below routes through this exact callable so serial and
    // pooled runs stay bit-identical.
    try {
      return design_cost(ctx, theta, bound);
    } catch (const std::runtime_error&) {
      return std::numeric_limits<double>::infinity();
    }
  };
  // Scale the swarm with problem dimension and restart with fresh draws;
  // the evaluation cost is tiny next to the paper's MATLAB runtimes.
  opt::PsoOptions pso = opts.pso;
  const int dims = static_cast<int>(m * l);
  if (opts.scale_budget_with_dims) {
    pso.particles = std::max(pso.particles, 12 * dims + 24);
    pso.iterations = std::max(pso.iterations, 20 * dims + 80);
    pso.stall_iterations = std::max(pso.stall_iterations, 40);
  }
  if (pool != nullptr) {
    // Fan each swarm generation across the pool; the swarm's serial
    // reduction keeps results bit-identical to the particle-by-particle
    // loop (the objective is pure, including its exception policy).
    pso.batch_eval = [&objective,
                      pool](const std::vector<std::vector<double>>& xs,
                            const std::vector<double>& bounds,
                            std::vector<double>& costs) {
      core::parallel_for(pool, xs.size(), [&](std::size_t i) {
        costs[i] = objective(xs[i], bounds[i]);
      });
    };
  }

  std::vector<double> best;
  double best_cost = std::numeric_limits<double>::infinity();
  int evals = grid_evals;
  if (!seeds.empty()) {
    best = seeds.front();
    best_cost = ranked.front().first;
  }
  for (int restart = 0; restart < std::max(1, opts.pso_restarts); ++restart) {
    pso.seed = opts.pso.seed + 7919 * static_cast<std::uint64_t>(restart);
    const opt::PsoResult pr = opt::pso_minimize(objective, lo, hi, pso,
                                                restart == 0 ? seeds
                                                             : std::vector<std::vector<double>>{best});
    evals += pr.evaluations;
    if (pr.cost < best_cost) {
      best_cost = pr.cost;
      best = pr.x;
    }
  }
  if (best.empty()) best.assign(m * l, 0.0);
  // Deterministic polish: compass search removes the swarm's run-to-run
  // variance so schedule comparisons see design quality, not PSO noise.
  opt::PatternSearchOptions ps;
  ps.initial_step = 0.2;
  ps.max_evaluations = 3000;
  const opt::PatternSearchResult pol = opt::pattern_search(objective, best, ps);
  evals += pol.evaluations;
  if (pol.cost < best_cost) best = pol.x;
  return report_for(ctx, best, evals);
}

std::vector<DesignResult> design_batch(
    const std::vector<DesignProblem>& problems, const DesignOptions& opts,
    core::ThreadPool* pool) {
  std::vector<DesignResult> results(problems.size());
  // Problems land in index-addressed slots; each design may itself batch
  // its particle generations on the same pool (parallel_for nests safely).
  core::parallel_for(pool, problems.size(), [&](std::size_t i) {
    results[i] =
        design_controller(problems[i].spec, problems[i].intervals, opts, pool);
  });
  return results;
}

DesignResult evaluate_gains(const DesignSpec& spec,
                            const std::vector<sched::Interval>& intervals,
                            const PhaseGains& gains,
                            const DesignOptions& opts) {
  spec.plant.validate();
  const std::size_t l = spec.plant.order();
  const std::size_t m = intervals.size();
  if (gains.k.size() != m) {
    throw std::invalid_argument("evaluate_gains: gain/interval mismatch");
  }
  const EvalContext ctx(spec, intervals, opts);

  std::vector<double> theta(m * l);
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t q = 0; q < l; ++q) theta[j * l + q] = gains.k[j](0, q);
  }
  return report_for(ctx, theta, 0);
}

}  // namespace catsched::control
