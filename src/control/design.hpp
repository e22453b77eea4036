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
/// objective and constraints (see DESIGN.md substitution table). Classic
/// Ackermann solutions on the average-rate system seed the swarm.

#include "control/switched.hpp"
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
  double dense_dt = 1.0e-4;      ///< dense simulation resolution
  double horizon_factor = 1.6;   ///< sim horizon = factor * smax
  bool exact_feedforward = true; ///< false = paper eq. (17) per-interval FF
  bool settle_on_samples = true; ///< measure settling on y[k] (Sec. II-A)
  double stability_margin = 1e-9;
  /// Pole-pattern grid for the Ackermann seeding stage (average-rate
  /// system): every (radius, angle) pair becomes a candidate pole set.
  std::vector<double> seed_pole_radii = {0.05, 0.15, 0.3, 0.45, 0.6,
                                         0.7,  0.8,  0.88, 0.94};
  std::vector<double> seed_pole_angles = {0.0, 0.2, 0.45, 0.8};
  double gain_box_factor = 3.0;  ///< per-dim box halfwidth / |center entry|
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
  /// Objective evaluations of the whole design: seed grid, PSO and compass
  /// polish, including evaluations cut short by their bound.
  int pso_evaluations = 0;
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
/// The PSO and the polish evaluate each candidate bounded by the cost it
/// must beat (opt::Objective's contract): its simulation stops once the
/// cost provably cannot, which changes no result bit.
/// \throws std::invalid_argument on bad spec/intervals.
DesignResult design_controller(const DesignSpec& spec,
                               const std::vector<sched::Interval>& intervals,
                               const DesignOptions& opts = {},
                               core::ThreadPool* pool = nullptr);

/// One candidate of a batched design: an application's control spec plus
/// the timing pattern a schedule hands it.
struct DesignProblem {
  DesignSpec spec;
  std::vector<sched::Interval> intervals;
};

/// Batched holistic design: run design_controller for every problem,
/// fanning the problems (and, nested, each problem's particle batches)
/// across \p pool. Results are returned in problem order and are
/// bit-identical to calling design_controller serially on each problem —
/// the batch only decides *where* candidates are evaluated, never *what*.
/// Used by core::Evaluator to design all apps of one schedule at once.
std::vector<DesignResult> design_batch(
    const std::vector<DesignProblem>& problems, const DesignOptions& opts = {},
    core::ThreadPool* pool = nullptr);

/// Evaluate a fixed set of gains against a spec/timing (used by ablation
/// benches and tests): same metrics as design_controller, no search.
DesignResult evaluate_gains(const DesignSpec& spec,
                            const std::vector<sched::Interval>& intervals,
                            const PhaseGains& gains,
                            const DesignOptions& opts = {});

}  // namespace catsched::control
