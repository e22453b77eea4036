#include "control/switched.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
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

Matrix lifted_closed_loop(const std::vector<PhaseDynamics>& phases,
                          const std::vector<Matrix>& k) {
  check_gain_dims(phases, k);
  const std::size_t m = phases.size();
  if (m < 2) {
    throw std::invalid_argument(
        "lifted_closed_loop: needs >= 2 phases (use closed_loop_monodromy "
        "for single-phase schedules, whose delay coupling exceeds one "
        "period)");
  }
  const std::size_t l = phases.front().ad.rows();
  auto selector = [&](std::size_t j) {
    Matrix s(l, m * l);
    s.set_block(0, j * l, Matrix::identity(l));
    return s;
  };
  // Propagate coefficient matrices over z_k = [x_0^k; ...; x_{m-1}^k].
  // The first new-period state is produced by phase m-1 acting on x_{m-1}^k
  // with held input u_{m-2}^k = K_{m-2} x_{m-2}^k.
  Matrix cur = selector(m - 1);
  Matrix u_prev = k[m - 2] * selector(m - 2);
  Matrix ahol(m * l, m * l);
  for (std::size_t step = 0; step < m; ++step) {
    const std::size_t j = (m - 1 + step) % m;  // phase applied at this step
    Matrix next = (phases[j].ad + phases[j].b2 * k[j]) * cur +
                  phases[j].b1 * u_prev;
    u_prev = k[j] * cur;
    cur = next;
    ahol.set_block(step * l, 0, cur);  // x_step^{k+1}
  }
  return ahol;
}

std::optional<std::vector<double>> exact_feedforward(
    const std::vector<PhaseDynamics>& phases, const Matrix& c,
    const std::vector<Matrix>& k) {
  std::vector<double> f;
  if (!exact_feedforward_into(f, phases, c, k)) return std::nullopt;
  return f;
}

bool exact_feedforward_into(std::vector<double>& f,
                            const std::vector<PhaseDynamics>& phases,
                            const Matrix& c, const std::vector<Matrix>& k) {
  check_gain_dims(phases, k);
  const std::size_t m = phases.size();
  const std::size_t l = phases.front().ad.rows();
  if (c.rows() != 1 || c.cols() != l) {
    throw std::invalid_argument("exact_feedforward: C must be 1 x l");
  }
  // The system, its right-hand side, the solution and the factorization
  // keep their storage across calls on this thread.
  struct Workspace {
    Matrix sys;
    Matrix rhs;
    Matrix sol;
    linalg::LU lu;
  };
  thread_local Workspace ws;
  // Unknowns: [x_0 .. x_{m-1}, F_0 .. F_{m-1}] for unit reference.
  const std::size_t n = m * l + m;
  Matrix& sys = ws.sys;
  Matrix& rhs = ws.rhs;
  sys.resize(n, n);
  rhs.resize(n, 1);
  std::fill(sys.data(), sys.data() + sys.size(), 0.0);
  std::fill(rhs.data(), rhs.data() + rhs.size(), 0.0);
  auto xcol = [&](std::size_t j) { return j * l; };
  auto fcol = [&](std::size_t j) { return m * l + j; };
  // Entry (i, q) of the product of an l x 1 column and a 1 x l row, as
  // operator* forms it: accumulated onto 0.0, skipped for a zero b_i.
  const auto outer = [](double bi, double kq) {
    return bi == 0.0 ? 0.0 : 0.0 + bi * kq;
  };
  // Dynamics rows: x_{j+1} = (A_j + B2_j K_j) x_j + B1_j K_{j-1} x_{j-1}
  //                + B2_j F_j + B1_j F_{j-1}   (indices cyclic).
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t jn = (j + 1) % m;
    const std::size_t jp = (j + m - 1) % m;
    const std::size_t row = j * l;
    const PhaseDynamics& pd = phases[j];
    // x_{j+1} coefficient: identity.
    for (std::size_t i = 0; i < l; ++i) sys(row + i, xcol(jn) + i) += 1.0;
    for (std::size_t i = 0; i < l; ++i) {
      const double b2 = pd.b2(i, 0);
      const double b1 = pd.b1(i, 0);
      for (std::size_t q = 0; q < l; ++q) {
        sys(row + i, xcol(j) + q) -= pd.ad(i, q) + outer(b2, k[j](0, q));
        sys(row + i, xcol(jp) + q) -= outer(b1, k[jp](0, q));
      }
      sys(row + i, fcol(j)) -= b2;
      sys(row + i, fcol(jp)) -= b1;
    }
  }
  // Output rows: C x_j = 1.
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t row = m * l + j;
    for (std::size_t q = 0; q < l; ++q) sys(row, xcol(j) + q) = c(0, q);
    rhs(row, 0) = 1.0;
  }
  ws.lu.factor(sys);
  if (ws.lu.singular()) return false;
  ws.lu.solve_into(ws.sol, rhs);
  f.resize(m);
  for (std::size_t j = 0; j < m; ++j) f[j] = ws.sol(fcol(j), 0);
  return true;
}

std::optional<std::vector<double>> per_interval_feedforward(
    const std::vector<PhaseDynamics>& phases, const Matrix& c,
    const std::vector<Matrix>& k) {
  check_gain_dims(phases, k);
  const std::size_t l = phases.front().ad.rows();
  std::vector<double> f;
  f.reserve(phases.size());
  for (std::size_t j = 0; j < phases.size(); ++j) {
    Matrix m = Matrix::identity(l) - phases[j].ad - phases[j].btot * k[j];
    linalg::LU lu(m);
    if (lu.singular()) return std::nullopt;
    const Matrix dc = c * lu.solve(phases[j].btot);
    if (std::abs(dc(0, 0)) < 1e-14) return std::nullopt;
    f.push_back(1.0 / dc(0, 0));
  }
  return f;
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

SettlingInfo settling_time(const std::vector<double>& t,
                           const std::vector<double>& y, double r,
                           double band) {
  if (t.size() != y.size() || t.empty()) {
    throw std::invalid_argument("settling_time: bad trace");
  }
  detail::SettlingScan scan{r, band * std::max(std::abs(r), 1e-12)};
  for (std::size_t i = 0; i < t.size(); ++i) scan.see(t[i], y[i]);
  return scan.at;
}

}  // namespace catsched::control
