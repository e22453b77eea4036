#pragma once
/// \file switched.hpp
/// \brief The periodically-switched closed loop of paper Sec. III: one
///        feedback gain K_j and feedforward F_j per task position, exact
///        lifted dynamics, stability (monodromy), steady-state feedforward
///        design, and dense-output simulation with settling-time
///        measurement.

#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "control/c2d.hpp"
#include "control/lti.hpp"

namespace catsched::control {

/// Per-phase controller: u_j = K_j x + F_j r (paper eq. (13)).
struct PhaseGains {
  std::vector<Matrix> k;  ///< one 1 x l row per phase
  std::vector<double> f;  ///< one scalar per phase

  std::size_t phases() const noexcept { return k.size(); }
};

/// Closed-loop one-period transition matrix ("monodromy") of the augmented
/// state xi = [x; u_prev]. The switched system is stable iff all its
/// eigenvalues lie strictly inside the unit circle. This is the exact
/// counterpart of the paper's lifted matrix Ahol (eq. (16)): the non-zero
/// spectrum coincides.
/// \throws std::invalid_argument if gain count != phase count.
Matrix closed_loop_monodromy(const std::vector<PhaseDynamics>& phases,
                             const std::vector<Matrix>& k);

/// The paper's lifted closed-loop matrix Ahol over one schedule period
/// (eq. (16) generalized to m phases): the one-period map of the stacked
/// state z = [x_0; x_1; ...; x_{m-1}] under the per-phase feedback.
/// Provided for fidelity/tests; stability via closed_loop_monodromy is
/// equivalent and cheaper.
Matrix lifted_closed_loop(const std::vector<PhaseDynamics>& phases,
                          const std::vector<Matrix>& k);

/// Exact periodic feedforward: choose F_0..F_{m-1} so that the closed
/// loop's periodic steady state satisfies C x_j = r at *every* sampling
/// instant (per unit reference; scale-invariant). Returns std::nullopt when
/// the steady-state system is singular (e.g. a pole at +1).
std::optional<std::vector<double>> exact_feedforward(
    const std::vector<PhaseDynamics>& phases, const Matrix& c,
    const std::vector<Matrix>& k);

/// Paper eq. (17): per-interval feedforward
///   F_j = 1 / (C (I - A_j - B_j K_j)^{-1} B_j),  B_j = B1_j + B2_j.
/// Exact for uniform sampling; leaves a small DC ripple under switching
/// (see DESIGN.md substitution table; compared in the ablation bench).
std::optional<std::vector<double>> per_interval_feedforward(
    const std::vector<PhaseDynamics>& phases, const Matrix& c,
    const std::vector<Matrix>& k);

/// Options for closed-loop simulation.
struct SimOptions {
  double r = 1.0;                 ///< reference after the step
  double horizon = 1.0;           ///< simulated time in seconds
  std::size_t start_phase = 0;    ///< interval in which the step occurs
  bool hold_first_interval = true;  ///< paper's worst case: the in-flight
                                    ///< task still targets the old
                                    ///< reference, so the input is held at
                                    ///< u_prev0 for the whole first interval
  double settle_band = 0.02;      ///< settling band as a fraction of |r|
  bool settle_on_samples = true;  ///< paper Sec. II-A measures settling on
                                  ///< the sampled output y[k]; false uses
                                  ///< the dense trajectory (stricter)
  double divergence_bound = 1e9;  ///< |y| beyond this aborts as diverged
  std::optional<double> clamp_u;  ///< optional actuator saturation level
};

/// Metrics of one simulated step response, all streamed while stepping.
/// Every number equals what the post-hoc reading of the matching SimTrace
/// gives: settling_time/settled are settling_time() on (ts, ys) or (t, y),
/// tail_error and iae walk the dense points in order.
struct SimResult {
  double settling_time = 0.0;  ///< first time after which |y-r| stays within
                               ///< the band; infinity if never
  bool settled = false;
  double u_max_abs = 0.0;  ///< max |u| over all actuated inputs
  bool diverged = false;
  double tail_error = 0.0;  ///< mean |y-r|/|r| over the last 20% of horizon
  double iae = 0.0;  ///< sum of |y_i-r|/|r| (t_i - t_{i-1}) over dense i >= 1
  /// The run stopped early because the caller's cost could no longer beat
  /// its bound (see SwitchedSimulator::simulate). Then only u_max_abs, iae
  /// and settling_time (the earliest settling time still possible) hold,
  /// as streamed up to the sampling instant that stopped the run.
  bool abandoned = false;
};

/// A caller's lower bound on its cost of a step response, given the
/// metrics streamed so far: u_max_abs and iae as accumulated, and
/// settling_time the earliest settling time the rest of the run can give
/// (the settling candidate while the scan is inside the band, else the
/// current time). Each of these only grows as the run goes on.
using CostLowerBound = std::function<double(const SimResult& so_far)>;

/// The trajectory of one simulation, written only when the caller asks for
/// it (plots, CSV export, tests); the design search never stores it.
struct SimTrace {
  std::vector<double> t;  ///< dense time stamps (starting at 0)
  std::vector<double> y;  ///< dense outputs
  std::vector<double> u;  ///< applied input after each actuation
  std::vector<double> ts; ///< sensing instants t_k
  std::vector<double> ys; ///< sampled outputs y[k]
};

/// Simulator for one application's switched closed loop. Discretizes the
/// dense-output substeps once (they depend only on plant and timing), so a
/// design search can evaluate thousands of gain candidates cheaply.
class SwitchedSimulator {
public:
  /// \throws std::invalid_argument on inconsistent plant/intervals.
  SwitchedSimulator(const ContinuousLTI& plant,
                    std::vector<sched::Interval> intervals,
                    double dense_dt = 1.0e-4);

  const std::vector<PhaseDynamics>& phases() const noexcept { return phases_; }
  const ContinuousLTI& plant() const noexcept { return plant_; }
  std::size_t num_phases() const noexcept { return phases_.size(); }

  /// Simulate a reference step from the equilibrium (x0, u_prev0) under
  /// per-phase gains. The step occurs at the start of opts.start_phase.
  /// With a non-null \p trace the trajectory is stored there too, replacing
  /// its contents; without one, only the two state buffers are allocated.
  ///
  /// With a finite \p bound and a \p lower_bound, the run checks
  /// lower_bound once per sampling instant and stops as soon as it reaches
  /// \p bound, returning the metrics so far with abandoned set (and a
  /// truncated trace). A run that is not abandoned is bit-identical to the
  /// unbounded one.
  /// \throws std::invalid_argument on gain dimension mismatch, or when
  ///         settling is read on samples and the horizon leaves none.
  SimResult simulate(
      const PhaseGains& gains, const Matrix& x0, double u_prev0,
      const SimOptions& opts, SimTrace* trace = nullptr,
      double bound = std::numeric_limits<double>::infinity(),
      const CostLowerBound& lower_bound = {}) const;

private:
  struct Segment {
    Matrix e;    // substep state transition
    Matrix pb;   // substep input effect Phi(dt) * B
    std::size_t steps = 0;
    double dt = 0.0;
  };
  struct PhaseDense {
    Segment before;  // [0, tau): previous input active
    Segment after;   // [tau, h): fresh input active
  };

  ContinuousLTI plant_;
  std::vector<PhaseDynamics> phases_;
  std::vector<PhaseDense> dense_;
  double period_ = 0.0;            // schedule period: sum of interval h
  std::size_t period_steps_ = 0;   // dense substeps per period
};

/// Settling time of a sampled trajectory: the earliest time t_s such that
/// |y(t) - r| <= band * |r| for every sample with t >= t_s. Returns
/// infinity (settled=false) when the last sample still violates the band.
struct SettlingInfo {
  double time = 0.0;
  bool settled = false;
};
SettlingInfo settling_time(const std::vector<double>& t,
                           const std::vector<double>& y, double r,
                           double band);

}  // namespace catsched::control
