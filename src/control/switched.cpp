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
  check_gain_dims(phases, k);
  const std::size_t m = phases.size();
  const std::size_t l = phases.front().ad.rows();
  if (c.rows() != 1 || c.cols() != l) {
    throw std::invalid_argument("exact_feedforward: C must be 1 x l");
  }
  // Unknowns: [x_0 .. x_{m-1}, F_0 .. F_{m-1}] for unit reference.
  const std::size_t n = m * l + m;
  Matrix sys(n, n);
  Matrix rhs(n, 1);
  auto xcol = [&](std::size_t j) { return j * l; };
  auto fcol = [&](std::size_t j) { return m * l + j; };
  // Dynamics rows: x_{j+1} = (A_j + B2_j K_j) x_j + B1_j K_{j-1} x_{j-1}
  //                + B2_j F_j + B1_j F_{j-1}   (indices cyclic).
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t jn = (j + 1) % m;
    const std::size_t jp = (j + m - 1) % m;
    const std::size_t row = j * l;
    // x_{j+1} coefficient: identity.
    for (std::size_t i = 0; i < l; ++i) sys(row + i, xcol(jn) + i) += 1.0;
    const Matrix axx = phases[j].ad + phases[j].b2 * k[j];
    const Matrix axp = phases[j].b1 * k[jp];
    for (std::size_t i = 0; i < l; ++i) {
      for (std::size_t q = 0; q < l; ++q) {
        sys(row + i, xcol(j) + q) -= axx(i, q);
        sys(row + i, xcol(jp) + q) -= axp(i, q);
      }
      sys(row + i, fcol(j)) -= phases[j].b2(i, 0);
      sys(row + i, fcol(jp)) -= phases[j].b1(i, 0);
    }
  }
  // Output rows: C x_j = 1.
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t row = m * l + j;
    for (std::size_t q = 0; q < l; ++q) sys(row, xcol(j) + q) = c(0, q);
    rhs(row, 0) = 1.0;
  }
  linalg::LU lu(sys);
  if (lu.singular()) return std::nullopt;
  const Matrix sol = lu.solve(rhs);
  std::vector<double> f(m);
  for (std::size_t j = 0; j < m; ++j) f[j] = sol(fcol(j), 0);
  return f;
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
  if (dense_dt <= 0.0) {
    throw std::invalid_argument("SwitchedSimulator: dense_dt must be > 0");
  }
  phases_ = discretize_phases(plant_, intervals);
  dense_.reserve(phases_.size());
  auto make_segment = [&](double span) {
    Segment seg;
    if (span <= 1e-15) return seg;
    seg.steps = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(std::ceil(span / dense_dt))));
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

SimResult SwitchedSimulator::simulate(const PhaseGains& gains,
                                      const Matrix& x0, double u_prev0,
                                      const SimOptions& opts, SimTrace* trace,
                                      double bound,
                                      const CostLowerBound& lower_bound) const {
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

  if (trace != nullptr) {
    // The loop stops at the first interval boundary at or past the
    // horizon, so horizon / period + 2 periods bound what it traverses.
    const std::size_t periods =
        static_cast<std::size_t>(std::max(0.0, opts.horizon) / period_) + 2;
    *trace = SimTrace{};
    for (auto* v : {&trace->t, &trace->y}) {
      v->reserve(periods * period_steps_ + 1);
    }
    for (auto* v : {&trace->ts, &trace->ys, &trace->u}) {
      v->reserve(periods * phases_.size());
    }
  }

  // Every metric is streamed point by point, in the order and with the
  // arithmetic of a post-hoc walk over the stored trace.
  SimResult res;
  const double r = opts.r;
  const double rref = std::max(std::abs(r), 1e-12);
  double tail_err = 0.0;
  std::size_t tail_cnt = 0;
  SettlingScan settling{r, opts.settle_band * rref};
  double t = 0.0;
  double yv = 0.0;
  const auto see_dense = [&] {
    if (trace != nullptr) {
      trace->t.push_back(t);
      trace->y.push_back(yv);
    }
    const double err = std::abs(yv - r) / rref;
    if (t >= 0.8 * opts.horizon) {
      tail_err += err;
      ++tail_cnt;
    }
    if (!opts.settle_on_samples) settling.see(t, yv);
    return err;
  };

  // Row-times-column with operator*'s skip-zero rule and accumulation
  // order, so every value is bit-identical to the Matrix expressions.
  const auto dot = [l](const double* row, const double* col) {
    double s = 0.0;
    for (std::size_t q = 0; q < l; ++q) {
      if (row[q] == 0.0) continue;
      s += row[q] * col[q];
    }
    return s;
  };
  std::vector<double> state(2 * l);
  double* x = state.data();
  double* xn = x + l;
  std::copy(x0.data(), x0.data() + l, x);
  yv = dot(plant_.c.data(), x);
  see_dense();

  // Dense substeps xn = E x + u (Phi B): multiply_into then axpy_into.
  const auto run_segment = [&](const Segment& seg, double u) {
    for (std::size_t s = 0; s < seg.steps && !res.diverged; ++s) {
      for (std::size_t i = 0; i < l; ++i) {
        xn[i] = dot(seg.e.data() + i * l, x) + u * seg.pb.data()[i];
      }
      std::swap(x, xn);
      const double t_prev = t;
      t += seg.dt;
      yv = dot(plant_.c.data(), x);
      res.iae += see_dense() * (t - t_prev);
      res.diverged = std::abs(yv) > opts.divergence_bound;
    }
  };

  const bool bounded =
      lower_bound && bound < std::numeric_limits<double>::infinity();
  double u_prev = u_prev0;
  std::size_t phase = opts.start_phase;
  bool first = true;
  while (t < opts.horizon && !res.diverged) {
    // Sensing instant of this interval's task: the last dense output.
    if (trace != nullptr) {
      trace->ts.push_back(t);
      trace->ys.push_back(yv);
    }
    if (opts.settle_on_samples) settling.see(t, yv);
    double u_new;
    if (first && opts.hold_first_interval) {
      // The task in flight when the reference steps still targets the old
      // reference: at the old equilibrium its output equals u_prev0.
      u_new = u_prev;
    } else {
      u_new = dot(gains.k[phase].data(), x) + gains.f[phase] * r;
    }
    if (opts.clamp_u) {
      u_new = std::clamp(u_new, -*opts.clamp_u, *opts.clamp_u);
    }
    if (trace != nullptr) trace->u.push_back(u_new);
    res.u_max_abs = std::max(res.u_max_abs, std::abs(u_new));
    if (bounded) {
      // Every point up to t is seen. If the scan is outside the band now,
      // the point at t violated it, so any final settling time is later.
      res.settling_time = settling.at.settled ? settling.at.time : t;
      if (lower_bound(res) >= bound) {
        res.abandoned = true;
        return res;
      }
    }
    run_segment(dense_[phase].before, u_prev);
    run_segment(dense_[phase].after, u_new);
    u_prev = u_new;
    phase = (phase + 1) % phases_.size();
    first = false;
  }

  res.settling_time = settling.at.time;
  res.settled = settling.at.settled && !res.diverged;
  // Mean relative error over the trailing 20% of the trace (smooth measure
  // used by the design search to rank non-settling candidates).
  res.tail_error = tail_cnt > 0 ? tail_err / static_cast<double>(tail_cnt)
                                : std::numeric_limits<double>::infinity();
  return res;
}

SettlingInfo settling_time(const std::vector<double>& t,
                           const std::vector<double>& y, double r,
                           double band) {
  if (t.size() != y.size() || t.empty()) {
    throw std::invalid_argument("settling_time: bad trace");
  }
  SettlingScan scan{r, band * std::max(std::abs(r), 1e-12)};
  for (std::size_t i = 0; i < t.size(); ++i) scan.see(t[i], y[i]);
  return scan.at;
}

}  // namespace catsched::control
