#pragma once
// The switched closed-loop step response written out plainly: Matrix
// workspaces, the full dense and sampled traces stored, and every metric
// read back from the stored traces afterwards (the backward-scan settling
// rule, the trailing-20% mean error, the dense IAE). It is the bit-identity
// oracle control::SwitchedSimulator::simulate is differentially tested
// against (tests/test_control.cpp), which streams the same metrics in one
// fused loop without storing anything.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "control/c2d.hpp"
#include "control/switched.hpp"
#include "linalg/expm.hpp"

namespace catsched::testref {

struct ReferenceSim {
  control::SimResult metrics;
  control::SimTrace trace;
};

/// Last violation of the band, scanned from the end of the trace.
inline control::SettlingInfo reference_settling_time(
    const std::vector<double>& t, const std::vector<double>& y, double r,
    double band) {
  if (t.size() != y.size() || t.empty()) {
    throw std::invalid_argument("settling_time: bad trace");
  }
  const double tol = band * std::max(std::abs(r), 1e-12);
  std::size_t last_violation = t.size();  // sentinel: none
  for (std::size_t i = t.size(); i-- > 0;) {
    if (std::abs(y[i] - r) > tol) {
      last_violation = i;
      break;
    }
  }
  control::SettlingInfo si;
  if (last_violation == t.size()) {
    si.time = t.front();
    si.settled = true;
  } else if (last_violation + 1 >= t.size()) {
    si.time = std::numeric_limits<double>::infinity();
    si.settled = false;
  } else {
    si.time = t[last_violation + 1];
    si.settled = true;
  }
  return si;
}

/// Simulate the step response of \p plant under \p gains over the
/// schedule \p intervals, with dense substeps of at most \p dense_dt.
/// Gains and x0 are assumed well-formed (the simulator under test checks
/// them).
inline ReferenceSim reference_simulate(
    const control::ContinuousLTI& plant,
    const std::vector<sched::Interval>& intervals, double dense_dt,
    const control::PhaseGains& gains, const linalg::Matrix& x0,
    double u_prev0, const control::SimOptions& opts) {
  using linalg::Matrix;
  struct Segment {
    Matrix e;
    Matrix pb;
    std::size_t steps = 0;
    double dt = 0.0;
  };
  const auto make_segment = [&](double span) {
    Segment seg;
    if (span <= 1e-15) return seg;
    seg.steps = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(std::ceil(span / dense_dt))));
    seg.dt = span / static_cast<double>(seg.steps);
    const auto pair = linalg::expm_with_integral(plant.a, seg.dt);
    seg.e = pair.ad;
    seg.pb = pair.phi * plant.b;
    return seg;
  };
  const std::vector<control::PhaseDynamics> phases =
      control::discretize_phases(plant, intervals);
  std::vector<std::pair<Segment, Segment>> dense;
  for (const control::PhaseDynamics& pd : phases) {
    dense.emplace_back(make_segment(pd.tau), make_segment(pd.h - pd.tau));
  }

  ReferenceSim out;
  control::SimResult& res = out.metrics;
  control::SimTrace& tr = out.trace;
  Matrix x = x0;
  Matrix xn(plant.order(), 1);
  const auto row_dot = [&](const Matrix& row, const Matrix& col) {
    double s = 0.0;
    for (std::size_t q = 0; q < plant.order(); ++q) {
      const double rq = row(0, q);
      if (rq == 0.0) continue;
      s += rq * col(q, 0);
    }
    return s;
  };
  double u_prev = u_prev0;
  double t = 0.0;
  std::size_t phase = opts.start_phase;
  bool first = true;
  tr.t.push_back(0.0);
  tr.y.push_back(row_dot(plant.c, x));

  const auto run_segment = [&](const Segment& seg, double u) {
    for (std::size_t s = 0; s < seg.steps; ++s) {
      linalg::multiply_into(xn, seg.e, x);  // xn = E x
      linalg::axpy_into(xn, u, seg.pb);     // xn += u * (Phi B)
      std::swap(x, xn);
      t += seg.dt;
      const double yv = row_dot(plant.c, x);
      tr.t.push_back(t);
      tr.y.push_back(yv);
      if (std::abs(yv) > opts.divergence_bound) {
        res.diverged = true;
        return false;
      }
    }
    return true;
  };

  while (t < opts.horizon && !res.diverged) {
    tr.ts.push_back(t);
    tr.ys.push_back(row_dot(plant.c, x));
    double u_new;
    if (first && opts.hold_first_interval) {
      u_new = u_prev;
    } else {
      u_new = row_dot(gains.k[phase], x) + gains.f[phase] * opts.r;
    }
    if (opts.clamp_u) {
      u_new = std::clamp(u_new, -*opts.clamp_u, *opts.clamp_u);
    }
    tr.u.push_back(u_new);
    res.u_max_abs = std::max(res.u_max_abs, std::abs(u_new));
    if (!run_segment(dense[phase].first, u_prev)) break;
    if (!run_segment(dense[phase].second, u_new)) break;
    u_prev = u_new;
    phase = (phase + 1) % phases.size();
    first = false;
  }

  const control::SettlingInfo si =
      opts.settle_on_samples
          ? reference_settling_time(tr.ts, tr.ys, opts.r, opts.settle_band)
          : reference_settling_time(tr.t, tr.y, opts.r, opts.settle_band);
  res.settling_time = si.time;
  res.settled = si.settled && !res.diverged;

  const double t_tail = 0.8 * opts.horizon;
  double err = 0.0;
  std::size_t cnt = 0;
  const double rref = std::max(std::abs(opts.r), 1e-12);
  for (std::size_t i = 0; i < tr.t.size(); ++i) {
    if (tr.t[i] >= t_tail) {
      err += std::abs(tr.y[i] - opts.r) / rref;
      ++cnt;
    }
  }
  res.tail_error = cnt > 0 ? err / static_cast<double>(cnt)
                           : std::numeric_limits<double>::infinity();

  for (std::size_t i = 1; i < tr.t.size(); ++i) {
    res.iae += std::abs(tr.y[i] - opts.r) / rref * (tr.t[i] - tr.t[i - 1]);
  }
  return out;
}

}  // namespace catsched::testref
