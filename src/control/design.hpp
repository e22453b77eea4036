#pragma once
/// \file design.hpp
/// \brief Holistic controller design for a given schedule (paper Sec. III):
///        all per-phase gains are designed together against the full
///        non-uniform timing pattern, maximizing control performance
///        (minimizing worst-case settling time) subject to stability and
///        input saturation.
///
/// The paper searches pole locations with PSO and recovers gains with an
/// extended Ackermann formula (details omitted there). Placing the lifted
/// matrix's poles under the block-diagonal gain structure is a structured
/// inverse eigenvalue problem, so this implementation runs the PSO over the
/// gain entries directly -- an equivalent parameterization with the same
/// objective and constraints (the paper omits its extended Ackermann
/// formula, so it cannot be reproduced as written). Classic
/// Ackermann solutions on the average-rate system seed the swarm.

#include "control/switched.hpp"
#include "opt/pattern_search.hpp"
#include "opt/pso.hpp"

namespace catsched::core {
class ThreadPool;  // core/parallel.hpp; control only holds a pointer
}

namespace catsched::control {

/// Control-side requirements of one application (paper Sec. II-A).
struct DesignSpec {
  ContinuousLTI plant;
  double umax = 1.0;        ///< input saturation bound |u| <= umax
  double r = 1.0;           ///< reference level after the step
  double y0 = 0.0;          ///< pre-step equilibrium output
  double smax = 1.0;        ///< settling deadline [s] (also normalization s0)
  double settle_band = 0.02;  ///< +-2% settling band (paper Sec. II-A)
};

/// Knobs of the design search.
struct DesignOptions {
  opt::PsoOptions pso{};
  /// The compass polish after the swarm. The evaluation cap is the lowest
  /// of tools/price_design's grid that keeps best Pall within 0.5% and the
  /// searches' paths within their bounds (docs/BENCHMARKS.md): late polish
  /// moves mostly trade the 0.05 IAE tie-break, which Pall never reads.
  opt::PatternSearchOptions polish{.initial_step = 0.2,
                                   .min_step = 1e-4,
                                   .max_evaluations = 700,
                                   .step_floor_abs = 1e-9};
  double dense_dt = 1.0e-4;      ///< dense simulation resolution
  /// The search scores each candidate's step response over
  /// horizon_factor * smax; report() checks the chosen gains over
  /// max(horizon_factor, 1.6) * smax. At 1.0 the score ends at the
  /// deadline, the window the feasibility test reads: on
  /// tools/price_design's horizon grid it keeps every population system's
  /// best Pall, every schedule's feasibility and the searches' paths
  /// (docs/BENCHMARKS.md). A lower factor scores candidates that settle
  /// before their deadline as unsettled. The case study loses feasible
  /// schedules below 1.6 and keeps it (core::date18_design_options()).
  double horizon_factor = 1.0;
  bool settle_on_samples = true; ///< measure settling on y[k] (Sec. II-A)
  /// Pole-pattern grid for the Ackermann seeding stage (average-rate
  /// system): every (radius, angle) pair becomes a candidate pole set.
  std::vector<double> seed_pole_radii = {0.05, 0.15, 0.3, 0.45, 0.6,
                                         0.7,  0.8,  0.88, 0.94};
  std::vector<double> seed_pole_angles = {0.0, 0.2, 0.45, 0.8};
  int pso_restarts = 2;          ///< independent swarm restarts (best kept)
  /// Grow the swarm with the number of gain dimensions (m*l); disable for
  /// fast unit tests that provide an explicit small budget.
  bool scale_budget_with_dims = true;
};

/// Outcome of one holistic design.
struct DesignResult {
  PhaseGains gains;
  double settling_time = 0.0;  ///< worst-case settling (step at idle gap)
  bool settled = false;
  double u_max_abs = 0.0;
  double spectral_radius = 0.0;  ///< of the closed-loop monodromy
  bool feasible = false;  ///< settled within smax, |u| within umax, stable
  /// Objective evaluations of the whole design, including evaluations cut
  /// short by their bound: the sum of the three stage counts below.
  int pso_evaluations = 0;
  int grid_evaluations = 0;    ///< Ackermann seed grid (failed ones omitted)
  int swarm_evaluations = 0;   ///< every PSO restart
  int polish_evaluations = 0;  ///< compass polish, its start point included
};

/// The objective design_controller minimizes: the cost of a candidate's
/// flattened per-phase gains theta (theta[j * l + q] = K_j(0, q)), scored
/// on the worst-case step response (the reference steps at the start of
/// the longest interval). Lower is better:
///   - a candidate whose closed-loop monodromy has spectral radius
///     rho >= 1 - 1e-9, or any candidate when the problem's periodic
///     steady state is singular (so no feedforward exists),
///     costs 1e3 H (1 + rho), with H = horizon_factor * smax the
///     simulated horizon;
///   - any other costs its worst-case settling time plus 0.05 IAE when it
///     settles, 2 H plus the capped tail error when it does not, 500 H
///     when it diverges, plus a graded input-saturation penalty.
///
/// Calls follow opt::Objective's contract: the exact cost when it is
/// below \p bound, otherwise some value >= bound. Since no unstable or
/// singular candidate costs less than 1e3 H, a call with bound <= 1e3 H
/// simulates first and checks stability only for a cost below the bound.
class DesignObjective {
public:
  /// \throws std::invalid_argument on a bad plant, intervals or dense_dt.
  DesignObjective(const DesignSpec& spec,
                  const std::vector<sched::Interval>& intervals,
                  const DesignOptions& opts = {});

  /// The cost of \p theta, or some value >= \p bound. A candidate whose
  /// stability check fails numerically (QR non-convergence on a
  /// degenerate closed loop) costs +infinity: out of contention, never
  /// fatal. Thread-safe; every thread keeps its own candidate workspace.
  double operator()(const std::vector<double>& theta, double bound) const;

  /// operator() with that numerical failure left to propagate as
  /// std::runtime_error (the seed grid drops such candidates).
  double cost(const std::vector<double>& theta, double bound) const;

  /// What design_controller reports for \p theta, unbounded, with every
  /// evaluation count 0. The step response is simulated over
  /// max(horizon_factor, 1.6) * smax, which may be longer than horizon().
  DesignResult report(const std::vector<double>& theta) const;

  const SwitchedSimulator& simulator() const noexcept { return sim_; }
  /// The horizon H the search's scores simulate.
  double horizon() const noexcept { return sim_opts_.horizon; }

private:
  bool feedforward(PhaseGains& gains) const;
  double simulated_cost(const PhaseGains& gains, double bound) const;

  SwitchedSimulator sim_;
  Equilibrium eq_;
  /// The steady state every candidate's feedforward derives from; empty
  /// when it is singular, which makes every candidate singular.
  std::optional<PeriodicSteadyState> steady_;
  SimOptions sim_opts_;     ///< the search's scores, over horizon()
  SimOptions report_opts_;  ///< report()'s check, over >= 1.6 smax
  double umax_;
  double smax_;
};

/// Design per-phase gains for the application over the given schedule
/// timing intervals and report the worst-case settling time (reference step
/// at the start of the longest interval, the paper's conservative phase).
///
/// With a non-null \p pool, the two candidate-evaluation batches inside the
/// search — the Ackermann seed grid and every PSO generation — are fanned
/// across the pool's workers into index-addressed cost slots and reduced
/// serially, so the result is bit-identical to the serial run at every
/// thread count (the determinism contract of core/parallel.hpp, enforced
/// by tests/test_design_batch.cpp).
///
/// The seed grid, the PSO and the polish all score candidates with one
/// DesignObjective. The PSO and the polish bound each candidate by the
/// cost it must beat (opt::Objective's contract): its simulation stops
/// once the cost provably cannot, which changes no result bit.
/// \throws std::invalid_argument on bad spec/intervals.
DesignResult design_controller(const DesignSpec& spec,
                               const std::vector<sched::Interval>& intervals,
                               const DesignOptions& opts = {},
                               core::ThreadPool* pool = nullptr);

/// The inputs of one design_controller call: an application's control
/// spec plus the timing pattern a schedule hands it.
struct DesignProblem {
  DesignSpec spec;
  std::vector<sched::Interval> intervals;
};

/// Evaluate a fixed set of gains against a spec/timing (used by the
/// perfbench particle-cost layer and tests): same metrics as
/// design_controller, no search.
DesignResult evaluate_gains(const DesignSpec& spec,
                            const std::vector<sched::Interval>& intervals,
                            const PhaseGains& gains,
                            const DesignOptions& opts = {});

}  // namespace catsched::control
