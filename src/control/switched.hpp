#pragma once
/// \file switched.hpp
/// \brief The periodically-switched closed loop of paper Sec. III: one
///        feedback gain K_j and feedforward F_j per task position, exact
///        lifted dynamics, stability (monodromy), steady-state feedforward
///        design, and dense-output simulation with settling-time
///        measurement.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <type_traits>
#include <utility>
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

/// exact_feedforward() into \p f (resized to one F per phase); returns
/// false, leaving \p f unspecified, when the system is singular. The
/// system is assembled and factored in a per-thread workspace, so once
/// that and \p f have grown to size a call allocates nothing.
bool exact_feedforward_into(std::vector<double>& f,
                            const std::vector<PhaseDynamics>& phases,
                            const Matrix& c, const std::vector<Matrix>& k);

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
  /// \throws std::invalid_argument on inconsistent plant/intervals, a
  ///         dense_dt that is not > 0 (NaN included), or an interval that
  ///         would need more dense substeps than a long long can count.
  SwitchedSimulator(const ContinuousLTI& plant,
                    std::vector<sched::Interval> intervals,
                    double dense_dt = 1.0e-4);

  const std::vector<PhaseDynamics>& phases() const noexcept { return phases_; }
  const ContinuousLTI& plant() const noexcept { return plant_; }
  std::size_t num_phases() const noexcept { return phases_.size(); }

  /// Simulate a reference step from the equilibrium (x0, u_prev0) under
  /// per-phase gains. The step occurs at the start of opts.start_phase.
  /// With a non-null \p trace the trajectory is stored there too, replacing
  /// its contents; without one, nothing is allocated beyond the state of
  /// an order above 3.
  /// \throws std::invalid_argument on gain dimension mismatch, or when
  ///         settling is read on samples and the horizon leaves none.
  SimResult simulate(const PhaseGains& gains, const Matrix& x0,
                     double u_prev0, const SimOptions& opts,
                     SimTrace* trace = nullptr) const;

  /// The same run, bounded: \p lower_bound is the caller's lower bound on
  /// its cost of the step response, called as
  /// `double lower_bound(const SimResult& so_far)` with u_max_abs and iae
  /// as accumulated and settling_time the earliest settling time the rest
  /// of the run can give (the settling candidate while the scan is inside
  /// the band, else the current time); each of these only grows as the
  /// run goes on. With a finite \p bound the run checks lower_bound once
  /// per sampling instant and stops as soon as it reaches \p bound,
  /// returning the metrics so far with abandoned set. A run that is not
  /// abandoned is bit-identical to the unbounded one.
  ///
  /// A template so the bound inlines into the step loop; the definition
  /// is below, visible to every caller. Same exceptions as simulate().
  template <class LowerBound>
  SimResult simulate(const PhaseGains& gains, const Matrix& x0,
                     double u_prev0, const SimOptions& opts, double bound,
                     const LowerBound& lower_bound) const;

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
  /// The lower bound of an unbounded run: the loop never consults it.
  struct Unbounded {};

  /// Argument checks shared by both simulate() forms.
  void check_run(const PhaseGains& gains, const Matrix& x0,
                 const SimOptions& opts) const;
  /// Clear \p trace and reserve what a run of opts.horizon stores.
  void start_trace(SimTrace& trace, const SimOptions& opts) const;

  /// The step loop, instantiated per plant order L (1-3; 0 reads the
  /// order at run time) and per traced/untraced run.
  template <std::size_t L, bool kTraced, class LowerBound>
  SimResult run(const PhaseGains& gains, const Matrix& x0, double u_prev0,
                const SimOptions& opts, SimTrace* trace, double bound,
                const LowerBound& lower_bound) const;
  template <bool kTraced, class LowerBound>
  SimResult run_order(const PhaseGains& gains, const Matrix& x0,
                      double u_prev0, const SimOptions& opts,
                      SimTrace* trace, double bound,
                      const LowerBound& lower_bound) const;

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

// ----------------------------------------------------------- step loop
// The body of SwitchedSimulator::simulate. It lives in the header so a
// caller's lower bound inlines into it: the untraced loop makes no call.

namespace detail {

/// settling_time() read one point at a time: the earliest point after the
/// last violation of |y - r| <= tol; unsettled while the latest violates.
struct SettlingScan {
  double r;
  double tol;
  SettlingInfo at{std::numeric_limits<double>::infinity(), false};

  void see(double t, double y) {
    if (std::abs(y - r) > tol) {
      at = {std::numeric_limits<double>::infinity(), false};
    } else if (!at.settled) {
      at = {t, true};
    }
  }
};

/// f(0), ..., f(n - 1) for n = L, unrolled at compile time so a fixed
/// order's state indices are constants; a plain loop to \p l for L = 0.
template <std::size_t L, class F>
inline void for_order(std::size_t l, F&& f) {
  if constexpr (L > 0) {
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      (f(I), ...);
    }(std::make_index_sequence<L>{});
  } else {
    for (std::size_t i = 0; i < l; ++i) f(i);
  }
}

/// Row times column of order L (0: \p l) with operator*'s skip-zero rule
/// and accumulation order, so every value is bit-identical to the Matrix
/// expressions. Both helpers are declared inline on purpose: without the
/// hint g++ -O2 keeps them out of line in a translation unit that
/// instantiates several loops, and the state then lives in memory.
template <std::size_t L>
inline double row_dot(const double* row, const double* col, std::size_t l) {
  double s = 0.0;
  for_order<L>(l, [&](std::size_t q) {
    if (row[q] != 0.0) s += row[q] * col[q];
  });
  return s;
}

/// The state x and the next state of an order-L run: locals for a fixed
/// order, one heap buffer for the run-time order (L = 0).
template <std::size_t L>
struct StateBuffer {
  explicit StateBuffer(std::size_t /*l*/) {}
  double* data() noexcept { return v; }
  double v[2 * L]{};
};
template <>
struct StateBuffer<0> {
  explicit StateBuffer(std::size_t l) : v(2 * l) {}
  double* data() noexcept { return v.data(); }
  std::vector<double> v;
};

}  // namespace detail

template <class LowerBound>
SimResult SwitchedSimulator::simulate(const PhaseGains& gains,
                                      const Matrix& x0, double u_prev0,
                                      const SimOptions& opts, double bound,
                                      const LowerBound& lower_bound) const {
  check_run(gains, x0, opts);
  return run_order<false>(gains, x0, u_prev0, opts, nullptr, bound,
                          lower_bound);
}

template <bool kTraced, class LowerBound>
SimResult SwitchedSimulator::run_order(const PhaseGains& gains,
                                       const Matrix& x0, double u_prev0,
                                       const SimOptions& opts,
                                       SimTrace* trace, double bound,
                                       const LowerBound& lower_bound) const {
  switch (plant_.order()) {
    case 1:
      return run<1, kTraced>(gains, x0, u_prev0, opts, trace, bound,
                             lower_bound);
    case 2:
      return run<2, kTraced>(gains, x0, u_prev0, opts, trace, bound,
                             lower_bound);
    case 3:
      return run<3, kTraced>(gains, x0, u_prev0, opts, trace, bound,
                             lower_bound);
    default:
      return run<0, kTraced>(gains, x0, u_prev0, opts, trace, bound,
                             lower_bound);
  }
}

template <std::size_t L, bool kTraced, class LowerBound>
SimResult SwitchedSimulator::run(const PhaseGains& gains, const Matrix& x0,
                                 double u_prev0, const SimOptions& opts,
                                 SimTrace* trace, double bound,
                                 const LowerBound& lower_bound) const {
  constexpr bool kBounded = !std::is_same_v<LowerBound, Unbounded>;
  const std::size_t l = L > 0 ? L : plant_.order();
  const std::size_t m = phases_.size();
  const bool bounded =
      kBounded && bound < std::numeric_limits<double>::infinity();
  const double r = opts.r;
  const double rref = std::max(std::abs(r), 1e-12);
  const double horizon = opts.horizon;
  const double tail_from = 0.8 * horizon;
  const bool on_samples = opts.settle_on_samples;
  const bool hold_first = opts.hold_first_interval;
  const double divergence_bound = opts.divergence_bound;
  const bool clamp = opts.clamp_u.has_value();
  const double u_lim = opts.clamp_u.value_or(0.0);
  const double* c = plant_.c.data();

  // Every metric is streamed point by point, in the order and with the
  // arithmetic of a post-hoc walk over the stored trace.
  detail::StateBuffer<L> state(l);
  double* x = state.data();
  double* xn = x + l;
  detail::for_order<L>(l, [&](std::size_t i) { x[i] = x0.data()[i]; });
  detail::SettlingScan settling{r, opts.settle_band * rref};
  double t = 0.0;
  double yv = detail::row_dot<L>(c, x, l);
  double iae = 0.0;
  double u_max_abs = 0.0;
  double tail_err = 0.0;
  std::size_t tail_cnt = 0;
  bool diverged = false;
  // One dense point (t, yv): its relative error, which the IAE weights.
  const auto see_dense = [&] {
    if constexpr (kTraced) {
      trace->t.push_back(t);
      trace->y.push_back(yv);
    }
    const double err = std::abs(yv - r) / rref;
    if (t >= tail_from) {
      tail_err += err;
      ++tail_cnt;
    }
    if (!on_samples) settling.see(t, yv);
    return err;
  };
  see_dense();

  double u_prev = u_prev0;
  std::size_t phase = opts.start_phase;
  bool first = true;
  while (t < horizon && !diverged) {
    // Sensing instant of this interval's task: the last dense output.
    if constexpr (kTraced) {
      trace->ts.push_back(t);
      trace->ys.push_back(yv);
    }
    if (on_samples) settling.see(t, yv);
    // The task in flight when the reference steps still targets the old
    // reference: at the old equilibrium its output equals u_prev0.
    double u_new = first && hold_first
                       ? u_prev
                       : detail::row_dot<L>(gains.k[phase].data(), x, l) +
                             gains.f[phase] * r;
    if (clamp) u_new = std::clamp(u_new, -u_lim, u_lim);
    if constexpr (kTraced) trace->u.push_back(u_new);
    u_max_abs = std::max(u_max_abs, std::abs(u_new));
    if constexpr (kBounded) {
      if (bounded) {
        // Every point up to t is seen. If the scan is outside the band
        // now, the point at t violated it, so any final settling time is
        // later.
        SimResult so_far;
        so_far.settling_time = settling.at.settled ? settling.at.time : t;
        so_far.u_max_abs = u_max_abs;
        so_far.iae = iae;
        if (lower_bound(so_far) >= bound) {
          so_far.abandoned = true;
          return so_far;
        }
      }
    }
    // Dense substeps xn = E x + u (Phi B), the arithmetic of multiply_into
    // then axpy_into: the held input before tau, the fresh one after.
    for (int half = 0; half < 2; ++half) {
      const Segment& seg = half == 0 ? dense_[phase].before
                                     : dense_[phase].after;
      const double u = half == 0 ? u_prev : u_new;
      const double* e = seg.e.data();
      const double* pb = seg.pb.data();
      for (std::size_t s = 0; s < seg.steps && !diverged; ++s) {
        detail::for_order<L>(l, [&](std::size_t i) {
          xn[i] = detail::row_dot<L>(e + i * l, x, l) + u * pb[i];
        });
        detail::for_order<L>(l, [&](std::size_t i) { x[i] = xn[i]; });
        const double t_prev = t;
        t += seg.dt;
        yv = detail::row_dot<L>(c, x, l);
        iae += see_dense() * (t - t_prev);
        diverged = std::abs(yv) > divergence_bound;
      }
    }
    u_prev = u_new;
    if (++phase == m) phase = 0;
    first = false;
  }

  SimResult res;
  res.settling_time = settling.at.time;
  res.settled = settling.at.settled && !diverged;
  res.u_max_abs = u_max_abs;
  res.diverged = diverged;
  // Mean relative error over the trailing 20% of the trace (smooth measure
  // used by the design search to rank non-settling candidates).
  res.tail_error = tail_cnt > 0 ? tail_err / static_cast<double>(tail_cnt)
                                : std::numeric_limits<double>::infinity();
  res.iae = iae;
  return res;
}

}  // namespace catsched::control
