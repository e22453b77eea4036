#include "control/design.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
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

/// A closed loop counts as stable when its monodromy's spectral radius is
/// below 1 - kStabilityMargin.
constexpr double kStabilityMargin = 1e-9;
/// Each swarm-box halfwidth over |its center entry|.
constexpr double kGainBoxFactor = 3.0;
/// report() checks each design over at least this many smax, whatever
/// the search's horizon: reported settling times, peak inputs and
/// feasibility keep the window the goldens and Table III are pinned over.
constexpr double kReportHorizonFactor = 1.6;

/// Write \p theta into \p k as m rows of 1 x l, reusing their storage.
void unpack_gains(std::vector<Matrix>& k, const std::vector<double>& theta,
                  std::size_t m, std::size_t l) {
  k.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    k[j].resize(1, l);
    for (std::size_t q = 0; q < l; ++q) k[j](0, q) = theta[j * l + q];
  }
}

/// The score of a simulated step response over \p horizon: worst-case
/// settling time with a small IAE tie-breaker, a graded floor for
/// responses that never settle or diverge, plus a graded input-saturation
/// penalty above \p umax.
inline double response_cost(const SimResult& sr, double horizon,
                            double umax) {
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
  if (sr.u_max_abs > umax) {
    cost += 50.0 * horizon * (sr.u_max_abs / umax - 1.0);
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
inline double response_cost_floor(SimResult so_far, double horizon,
                                  double umax) {
  so_far.settled = true;
  const double settles = response_cost(so_far, horizon, umax);
  so_far.settled = false;
  so_far.tail_error = 0.0;
  return std::min(settles, response_cost(so_far, horizon, umax));
}

}  // namespace

DesignObjective::DesignObjective(const DesignSpec& spec,
                                 const std::vector<sched::Interval>& intervals,
                                 const DesignOptions& opts)
    : sim_(spec.plant, intervals, opts.dense_dt),
      eq_(equilibrium_at(spec.plant, spec.y0)),
      umax_(spec.umax),
      smax_(spec.smax) {
  sched::AppTiming at;
  at.intervals = intervals;
  sim_opts_.r = spec.r;
  sim_opts_.horizon = opts.horizon_factor * spec.smax;
  sim_opts_.start_phase = at.longest_interval();
  sim_opts_.hold_first_interval = true;
  sim_opts_.settle_band = spec.settle_band;
  sim_opts_.settle_on_samples = opts.settle_on_samples;
  report_opts_ = sim_opts_;
  report_opts_.horizon =
      std::max(opts.horizon_factor, kReportHorizonFactor) * spec.smax;
}

/// The feedforward of \p gains' feedback rows into gains.f; false when
/// its system is singular.
bool DesignObjective::feedforward(PhaseGains& gains) const {
  return exact_feedforward_into(gains.f, sim_.phases(), sim_.plant().c,
                                gains.k);
}

/// response_cost of the simulated step response, or, once its running
/// floor reaches \p bound, that floor (>= bound).
double DesignObjective::simulated_cost(const PhaseGains& gains,
                                       double bound) const {
  const double horizon = sim_opts_.horizon;
  const double umax = umax_;
  const auto floor = [horizon, umax](const SimResult& so_far) {
    return response_cost_floor(so_far, horizon, umax);
  };
  const SimResult sr = sim_.simulate(gains, eq_.x, eq_.u, sim_opts_, bound,
                                     floor);
  return sr.abandoned ? floor(sr) : response_cost(sr, horizon, umax);
}

double DesignObjective::cost(const std::vector<double>& theta,
                             double bound) const {
  // The candidate's gains, in storage this thread reuses call after call.
  thread_local PhaseGains gains;
  unpack_gains(gains.k, theta, sim_.num_phases(), sim_.plant().order());
  // The stability barrier: no unstable or singular candidate costs less.
  const double barrier = 1.0e3 * sim_opts_.horizon;
  const double unstable = 1.0 - kStabilityMargin;
  if (!(bound <= barrier)) {
    // Such a candidate can still beat the bound, so its exact barrier
    // counts: the spectral radius comes first.
    const double rho = linalg::spectral_radius(
        closed_loop_monodromy(sim_.phases(), gains.k));
    if (rho >= unstable || !feedforward(gains)) {
      return barrier * (1.0 + rho);  // graded push toward stability
    }
    return simulated_cost(gains, bound);
  }
  // Stability last: an unstable or singular candidate cannot beat the
  // bound, so only a cost below it needs the eigen-solve. A NaN cost is
  // checked too; it stands for a stable candidate only.
  if (!feedforward(gains)) return barrier;
  const double simulated = simulated_cost(gains, bound);
  if (simulated >= bound) return simulated;
  const double rho = linalg::spectral_radius(
      closed_loop_monodromy(sim_.phases(), gains.k));
  return rho >= unstable ? barrier * (1.0 + rho) : simulated;
}

double DesignObjective::operator()(const std::vector<double>& theta,
                                   double bound) const {
  // logic_errors (dimension mismatches) still propagate: those are bugs.
  try {
    return cost(theta, bound);
  } catch (const std::runtime_error&) {
    return std::numeric_limits<double>::infinity();
  }
}

DesignResult DesignObjective::report(const std::vector<double>& theta) const {
  const std::size_t m = sim_.num_phases();
  DesignResult res;
  PhaseGains gains;
  unpack_gains(gains.k, theta, m, sim_.plant().order());
  res.spectral_radius = linalg::spectral_radius(
      closed_loop_monodromy(sim_.phases(), gains.k));
  if (!feedforward(gains) ||
      res.spectral_radius >= 1.0 - kStabilityMargin) {
    res.settled = false;
    res.feasible = false;
    res.settling_time = std::numeric_limits<double>::infinity();
    gains.f.assign(m, 0.0);
    res.gains = std::move(gains);
    return res;
  }
  res.gains = std::move(gains);
  const SimResult sr = sim_.simulate(res.gains, eq_.x, eq_.u, report_opts_);
  res.settling_time =
      sr.settled ? sr.settling_time : std::numeric_limits<double>::infinity();
  res.settled = sr.settled;
  res.u_max_abs = sr.u_max_abs;
  res.feasible = sr.settled && !sr.diverged && sr.settling_time <= smax_ &&
                 sr.u_max_abs <= umax_ * (1.0 + 1e-9);
  return res;
}

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

  const DesignObjective objective(spec, intervals, opts);
  const SwitchedSimulator& sim = objective.simulator();

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
  // the objective, a full switched simulation per candidate — is batched
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
          objective.cost(grid[i], std::numeric_limits<double>::infinity());
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
    const double half = kGainBoxFactor *
                        std::max(std::abs(center[d]), 0.1 * scale);
    lo[d] = center[d] - half;
    hi[d] = center[d] + half;
  }

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
  int swarm_evals = 0;
  if (!seeds.empty()) {
    best = seeds.front();
    best_cost = ranked.front().first;
  }
  for (int restart = 0; restart < std::max(1, opts.pso_restarts); ++restart) {
    pso.seed = opts.pso.seed + 7919 * static_cast<std::uint64_t>(restart);
    const opt::PsoResult pr = opt::pso_minimize(
        std::cref(objective), lo, hi, pso,
        restart == 0 ? seeds : std::vector<std::vector<double>>{best});
    swarm_evals += pr.evaluations;
    if (pr.cost < best_cost) {
      best_cost = pr.cost;
      best = pr.x;
    }
  }
  if (best.empty()) best.assign(m * l, 0.0);
  // Deterministic polish: compass search removes the swarm's run-to-run
  // variance so schedule comparisons see design quality, not PSO noise.
  const opt::PatternSearchResult pol =
      opt::pattern_search(std::cref(objective), best, opts.polish);
  if (pol.cost < best_cost) best = pol.x;
  DesignResult res = objective.report(best);
  res.pso_evaluations = grid_evals + swarm_evals + pol.evaluations;
  res.grid_evaluations = grid_evals;
  res.swarm_evaluations = swarm_evals;
  res.polish_evaluations = pol.evaluations;
  return res;
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
  const DesignObjective objective(spec, intervals, opts);

  std::vector<double> theta(m * l);
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t q = 0; q < l; ++q) theta[j * l + q] = gains.k[j](0, q);
  }
  return objective.report(theta);
}

}  // namespace catsched::control
