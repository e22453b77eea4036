#include "control/switched.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "linalg/expm.hpp"
#include "linalg/lu.hpp"

namespace catsched::control {

namespace {

void check_gain_dims(const std::vector<PhaseDynamics>& phases,
                     const std::vector<Matrix>& k) {
  if (phases.empty()) {
    throw std::invalid_argument("switched: no phases");
  }
  if (k.size() != phases.size()) {
    throw std::invalid_argument("switched: gain count != phase count");
  }
  const std::size_t l = phases.front().ad.rows();
  for (const Matrix& kj : k) {
    if (kj.rows() != 1 || kj.cols() != l) {
      throw std::invalid_argument("switched: each K_j must be 1 x l");
    }
  }
}

}  // namespace

Matrix closed_loop_monodromy(const std::vector<PhaseDynamics>& phases,
                             const std::vector<Matrix>& k) {
  check_gain_dims(phases, k);
  const std::size_t l = phases.front().ad.rows();
  // Augmented state xi = [x; u_prev]:
  //   x+      = (A_j + B2_j K_j) x + B1_j u_prev
  //   u_prev+ = K_j x
  Matrix phi = Matrix::identity(l + 1);
  // Workspaces hoisted out of the phase loop: only the blocks below are
  // rewritten each phase (entry (l,l) stays 0 throughout), so one zeroed
  // matrix serves all phases without reallocation.
  Matrix m(l + 1, l + 1);
  Matrix tmp;
  for (std::size_t j = 0; j < phases.size(); ++j) {
    m.set_block(0, 0, phases[j].ad + phases[j].b2 * k[j]);
    m.set_block(0, l, phases[j].b1);
    m.set_block(l, 0, k[j]);
    multiply_into(tmp, m, phi);
    std::swap(phi, tmp);
  }
  return phi;
}

std::optional<PeriodicSteadyState> periodic_steady_state(
    const std::vector<PhaseDynamics>& phases, const Matrix& c) {
  if (phases.empty()) {
    throw std::invalid_argument("periodic_steady_state: no phases");
  }
  const std::size_t m = phases.size();
  const std::size_t l = phases.front().ad.rows();
  if (c.rows() != 1 || c.cols() != l) {
    throw std::invalid_argument("periodic_steady_state: C must be 1 x l");
  }
  // Unknowns: [x_0 .. x_{m-1}, u_0 .. u_{m-1}] for unit reference.
  const std::size_t n = m * l + m;
  Matrix sys(n, n);
  Matrix rhs(n, 1);
  auto xcol = [&](std::size_t j) { return j * l; };
  auto ucol = [&](std::size_t j) { return m * l + j; };
  // Dynamics rows: x_{j+1} = A_j x_j + B2_j u_j + B1_j u_{j-1}
  // (indices cyclic).
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t jn = (j + 1) % m;
    const std::size_t jp = (j + m - 1) % m;
    const std::size_t row = j * l;
    const PhaseDynamics& pd = phases[j];
    for (std::size_t i = 0; i < l; ++i) sys(row + i, xcol(jn) + i) += 1.0;
    for (std::size_t i = 0; i < l; ++i) {
      for (std::size_t q = 0; q < l; ++q) {
        sys(row + i, xcol(j) + q) -= pd.ad(i, q);
      }
      sys(row + i, ucol(j)) -= pd.b2(i, 0);
      sys(row + i, ucol(jp)) -= pd.b1(i, 0);
    }
  }
  // Output rows: C x_j = 1.
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t row = m * l + j;
    for (std::size_t q = 0; q < l; ++q) sys(row, xcol(j) + q) = c(0, q);
    rhs(row, 0) = 1.0;
  }
  const linalg::LU lu(sys);
  if (lu.singular()) return std::nullopt;
  const Matrix sol = lu.solve(rhs);
  PeriodicSteadyState ss;
  ss.x.assign(sol.data(), sol.data() + m * l);
  ss.u.assign(sol.data() + m * l, sol.data() + n);
  return ss;
}

void PeriodicSteadyState::feedforward_into(
    std::vector<double>& f, const std::vector<Matrix>& k) const {
  const std::size_t m = u.size();
  const std::size_t l = x.size() / m;
  if (k.size() != m) {
    throw std::invalid_argument("feedforward_into: gain count != phase count");
  }
  f.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    if (k[j].rows() != 1 || k[j].cols() != l) {
      throw std::invalid_argument("feedforward_into: each K_j must be 1 x l");
    }
    const double* kj = k[j].data();
    const double* xj = x.data() + j * l;
    double kx = 0.0;
    for (std::size_t q = 0; q < l; ++q) kx += kj[q] * xj[q];
    f[j] = u[j] - kx;
  }
}

SwitchedSimulator::SwitchedSimulator(const ContinuousLTI& plant,
                                     std::vector<sched::Interval> intervals,
                                     double dense_dt)
    : plant_(plant) {
  plant_.validate();
  if (intervals.empty()) {
    throw std::invalid_argument("SwitchedSimulator: no intervals");
  }
  if (!(dense_dt > 0.0)) {
    throw std::invalid_argument("SwitchedSimulator: dense_dt must be > 0");
  }
  phases_ = discretize_phases(plant_, intervals);
  dense_.reserve(phases_.size());
  auto make_segment = [&](double span) {
    Segment seg;
    if (span <= 1e-15) return seg;
    // llround can count up to 2^63 - 1 substeps; NaN and beyond fail.
    const double steps = std::ceil(span / dense_dt);
    if (!(steps < 0x1p63)) {
      throw std::invalid_argument(
          "SwitchedSimulator: dense_dt too small for the intervals");
    }
    seg.steps = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(steps)));
    seg.dt = span / static_cast<double>(seg.steps);
    const auto pair = linalg::expm_with_integral(plant_.a, seg.dt);
    seg.e = pair.ad;
    seg.pb = pair.phi * plant_.b;
    return seg;
  };
  for (const PhaseDynamics& pd : phases_) {
    dense_.push_back({make_segment(pd.tau), make_segment(pd.h - pd.tau)});
    period_ += pd.h;
    period_steps_ += dense_.back().before.steps + dense_.back().after.steps;
  }
}

void SwitchedSimulator::check_run(const PhaseGains& gains, const Matrix& x0,
                                  const SimOptions& opts) const {
  check_gain_dims(phases_, gains.k);
  if (gains.f.size() != phases_.size()) {
    throw std::invalid_argument("simulate: F count != phase count");
  }
  const std::size_t l = plant_.order();
  if (x0.rows() != l || x0.cols() != 1) {
    throw std::invalid_argument("simulate: x0 must be l x 1");
  }
  if (opts.start_phase >= phases_.size()) {
    throw std::invalid_argument("simulate: start_phase out of range");
  }
  if (opts.settle_on_samples && !(opts.horizon > 0.0)) {
    throw std::invalid_argument("simulate: no sample before the horizon");
  }
}

void SwitchedSimulator::start_trace(SimTrace& trace,
                                    const SimOptions& opts) const {
  // The loop stops at the first interval boundary at or past the horizon,
  // so horizon / period + 2 periods bound what it traverses.
  const std::size_t periods =
      static_cast<std::size_t>(std::max(0.0, opts.horizon) / period_) + 2;
  trace = SimTrace{};
  for (auto* v : {&trace.t, &trace.y}) {
    v->reserve(periods * period_steps_ + 1);
  }
  for (auto* v : {&trace.ts, &trace.ys, &trace.u}) {
    v->reserve(periods * phases_.size());
  }
}

SimResult SwitchedSimulator::simulate(const PhaseGains& gains,
                                      const Matrix& x0, double u_prev0,
                                      const SimOptions& opts,
                                      SimTrace* trace) const {
  check_run(gains, x0, opts);
  const double inf = std::numeric_limits<double>::infinity();
  if (trace == nullptr) {
    return run_order<false>(gains, x0, u_prev0, opts, nullptr, inf,
                            Unbounded{});
  }
  start_trace(*trace, opts);
  return run_order<true>(gains, x0, u_prev0, opts, trace, inf, Unbounded{});
}

}  // namespace catsched::control
