// Unit and property tests for the control substrate: discretization with
// delay, pole placement, lifted/monodromy stability, feedforward design,
// switched simulation and settling measurement.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "control/c2d.hpp"
#include "control/design.hpp"
#include "control/lti.hpp"
#include "control/pole_place.hpp"
#include "control/scenarios.hpp"
#include "control/switched.hpp"
#include "core/case_study.hpp"
#include "core/parallel.hpp"
#include "linalg/eig.hpp"
#include "linalg/expm.hpp"
#include "linalg/lu.hpp"
#include "linalg_reference.hpp"
#include "reference_sim.hpp"
#include "testgen/rng.hpp"

using namespace catsched;
using namespace catsched::control;
using linalg::Matrix;

namespace {

/// Lightly damped oscillator (case-study-like plant).
ContinuousLTI oscillator(double w0 = 100.0, double zeta = 0.2,
                         double b = 1.0e4) {
  ContinuousLTI p;
  p.a = Matrix{{0.0, 1.0}, {-w0 * w0, -2.0 * zeta * w0}};
  p.b = Matrix{{0.0}, {b}};
  p.c = Matrix{{1.0, 0.0}};
  return p;
}

/// Stable first-order plant.
ContinuousLTI first_order(double a = 50.0, double b = 100.0) {
  ContinuousLTI p;
  p.a = Matrix{{-a}};
  p.b = Matrix{{b}};
  p.c = Matrix{{1.0}};
  return p;
}

std::vector<sched::Interval> uniform_intervals(std::size_t m, double h,
                                               double tau) {
  std::vector<sched::Interval> ivs(m);
  for (auto& iv : ivs) {
    iv.h = h;
    iv.tau = tau;
    iv.warm = true;
  }
  return ivs;
}

/// Order-n plant in controllable companion form with real poles at
/// -w0 (1 + i / 2), i = 0..n-1, and unit DC gain.
ContinuousLTI companion(std::size_t n, double w0) {
  // Characteristic polynomial coefficients, lowest order first.
  std::vector<double> poly{1.0};
  for (std::size_t i = 0; i < n; ++i) {
    const double p = w0 * (1.0 + 0.5 * static_cast<double>(i));
    std::vector<double> next(poly.size() + 1, 0.0);
    for (std::size_t d = 0; d < poly.size(); ++d) {
      next[d] += p * poly[d];
      next[d + 1] += poly[d];
    }
    poly = next;
  }
  ContinuousLTI plant;
  plant.a = Matrix(n, n);
  for (std::size_t i = 0; i + 1 < n; ++i) plant.a(i, i + 1) = 1.0;
  for (std::size_t d = 0; d < n; ++d) plant.a(n - 1, d) = -poly[d];
  plant.b = Matrix(n, 1);
  plant.b(n - 1, 0) = poly[0];
  plant.c = Matrix(1, n);
  plant.c(0, 0) = 1.0;
  return plant;
}

std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// The exact feedforward as a fresh vector; std::nullopt when singular.
std::optional<std::vector<double>> exact_feedforward(
    const std::vector<PhaseDynamics>& phases, const Matrix& c,
    const std::vector<Matrix>& k) {
  std::vector<double> f;
  if (!exact_feedforward_into(f, phases, c, k)) return std::nullopt;
  return f;
}

/// The settling time of a whole trace, read forward one point at a time as
/// the simulator streams it.
SettlingInfo settling_time(const std::vector<double>& t,
                           const std::vector<double>& y, double r,
                           double band) {
  detail::SettlingScan scan{r, band * std::max(std::abs(r), 1e-12)};
  for (std::size_t i = 0; i < t.size(); ++i) scan.see(t[i], y[i]);
  return scan.at;
}

/// The paper's lifted closed-loop matrix Ahol over one schedule period
/// (eq. (16) generalized to m >= 2 phases): the one-period map of the
/// stacked state z = [x_0; x_1; ...; x_{m-1}] under the per-phase feedback.
Matrix lifted_closed_loop(const std::vector<PhaseDynamics>& phases,
                          const std::vector<Matrix>& k) {
  const std::size_t m = phases.size();
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

}  // namespace

// ------------------------------------------------------------------- LTI

TEST(Lti, ValidationCatchesBadDims) {
  ContinuousLTI p = oscillator();
  p.b = Matrix(3, 1);
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = oscillator();
  p.c = Matrix(2, 2);
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(Lti, EquilibriumOscillator) {
  const ContinuousLTI p = oscillator(100.0, 0.2, 1.0e4);
  const Equilibrium eq = equilibrium_at(p, 2.0);
  // x = [2, 0], u = w0^2 * 2 / b
  EXPECT_NEAR(eq.x(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(eq.x(1, 0), 0.0, 1e-12);
  EXPECT_NEAR(eq.u, 100.0 * 100.0 * 2.0 / 1.0e4, 1e-12);
}

TEST(Lti, EquilibriumWithIntegratorPlant) {
  // Double integrator: A singular, but the bordered system is regular.
  ContinuousLTI p;
  p.a = Matrix{{0.0, 1.0}, {0.0, -30.0}};
  p.b = Matrix{{0.0}, {500.0}};
  p.c = Matrix{{1.0, 0.0}};
  const Equilibrium eq = equilibrium_at(p, 0.4);
  EXPECT_NEAR(eq.x(0, 0), 0.4, 1e-12);
  EXPECT_NEAR(eq.u, 0.0, 1e-12);
}

// ------------------------------------------------------------------- c2d

TEST(C2d, MatchesExpmForFullInterval) {
  const ContinuousLTI p = oscillator();
  const PhaseDynamics pd = discretize_interval(p, 1.0e-3, 0.4e-3);
  EXPECT_TRUE(testref::approx_equal(pd.ad, linalg::expm(p.a * 1.0e-3), 1e-12));
  // B1 + B2 = full ZOH input matrix.
  const Matrix bfull = linalg::expm_integral(p.a, 1.0e-3) * p.b;
  EXPECT_TRUE(testref::approx_equal(pd.btot, bfull, 1e-12));
  EXPECT_TRUE(testref::approx_equal(pd.b1 + pd.b2, bfull, 1e-12));
}

TEST(C2d, TauEqualsHMeansNoFreshInput) {
  // tau == h: the fresh input only acts in the next interval (B2 = 0).
  const PhaseDynamics pd = discretize_interval(oscillator(), 1e-3, 1e-3);
  EXPECT_LT(pd.b2.max_abs(), 1e-15);
  EXPECT_TRUE(testref::approx_equal(pd.b1, pd.btot, 1e-12));
}

TEST(C2d, ZeroTauMeansNoHeldInput) {
  const PhaseDynamics pd = discretize_interval(oscillator(), 1e-3, 0.0);
  EXPECT_LT(pd.b1.max_abs(), 1e-15);
}

TEST(C2d, RejectsBadIntervals) {
  EXPECT_THROW(discretize_interval(oscillator(), 0.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW(discretize_interval(oscillator(), 1e-3, 2e-3),
               std::invalid_argument);
}

TEST(C2d, DelaySplitConsistency) {
  // Property: propagating [0,tau) with u_old then [tau,h) with u_new equals
  // Ad x + B1 u_old + B2 u_new, for several tau fractions.
  const ContinuousLTI p = oscillator(140.0, 0.1, 2.0e4);
  const double h = 0.8e-3;
  const Matrix x0 = Matrix{{0.3}, {-2.0}};
  for (double frac : {0.1, 0.37, 0.5, 0.99}) {
    const double tau = frac * h;
    const PhaseDynamics pd = discretize_interval(p, h, tau);
    const double u_old = 0.7;
    const double u_new = -0.4;
    // Reference: two-stage exact propagation.
    const auto s1 = linalg::expm_with_integral(p.a, tau);
    const auto s2 = linalg::expm_with_integral(p.a, h - tau);
    const Matrix x_mid = s1.ad * x0 + s1.phi * p.b * u_old;
    const Matrix x_ref = s2.ad * x_mid + s2.phi * p.b * u_new;
    const Matrix x_got = pd.ad * x0 + pd.b1 * u_old + pd.b2 * u_new;
    EXPECT_TRUE(testref::approx_equal(x_got, x_ref, 1e-10)) << "frac " << frac;
  }
}

// --------------------------------------------------------- pole placement

TEST(PolePlace, PlacesRequestedPoles) {
  const ContinuousLTI p = oscillator();
  const PhaseDynamics pd = discretize_interval(p, 1e-3, 0.0);
  const std::vector<std::complex<double>> want = {{0.5, 0.2}, {0.5, -0.2}};
  const Matrix k = place_poles(pd.ad, pd.btot, want);
  const Matrix acl = pd.ad + pd.btot * k;
  auto got = linalg::eigenvalues(acl);
  ASSERT_EQ(got.size(), 2u);
  // Compare as sets (order free).
  const double d1 = std::abs(got[0] - want[0]) + std::abs(got[1] - want[1]);
  const double d2 = std::abs(got[0] - want[1]) + std::abs(got[1] - want[0]);
  EXPECT_LT(std::min(d1, d2), 1e-9);
}

TEST(PolePlace, DeadbeatPoles) {
  const PhaseDynamics pd = discretize_interval(oscillator(), 1e-3, 0.0);
  const Matrix k = place_poles(pd.ad, pd.btot, {{0.0, 0.0}, {0.0, 0.0}});
  const Matrix acl = pd.ad + pd.btot * k;
  // Deadbeat: Acl^2 = 0.
  EXPECT_LT((acl * acl).max_abs(), 1e-9);
}

TEST(PolePlace, PropertyRandomRadiiSpectralRadius) {
  const PhaseDynamics pd = discretize_interval(oscillator(), 1.5e-3, 0.0);
  for (double rho : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const Matrix k = place_poles(pd.ad, pd.btot, {{rho, 0.0}, {-rho, 0.0}});
    EXPECT_NEAR(linalg::spectral_radius(pd.ad + pd.btot * k), rho, 1e-9);
  }
}

TEST(PolePlace, ErrorsOnBadInput) {
  const PhaseDynamics pd = discretize_interval(oscillator(), 1e-3, 0.0);
  EXPECT_THROW(place_poles(pd.ad, pd.btot, {{0.5, 0.0}}),
               std::invalid_argument);  // wrong pole count
  // Uncontrollable pair.
  Matrix a{{0.5, 0.0}, {0.0, 0.6}};
  Matrix b{{1.0}, {0.0}};
  EXPECT_THROW(place_poles(a, b, {{0.1, 0.0}, {0.2, 0.0}}), std::domain_error);
}

// --------------------------------------------- lifted system and stability

TEST(Switched, MonodromyMatchesLiftedSpectrum) {
  // The non-zero eigenvalues of the paper's Ahol (eq. (16)) must coincide
  // with those of the augmented monodromy matrix.
  const ContinuousLTI p = oscillator();
  std::vector<sched::Interval> ivs(2);
  ivs[0] = {0.9e-3, 0.9e-3, false};   // in-burst: tau == h
  ivs[1] = {2.4e-3, 0.45e-3, true};   // gap interval
  const auto phases = discretize_phases(p, ivs);
  const std::vector<Matrix> k = {Matrix{{-0.4, -0.01}}, Matrix{{-0.5, -0.02}}};

  auto ev_mono = linalg::eigenvalues(closed_loop_monodromy(phases, k));
  auto ev_lift = linalg::eigenvalues(lifted_closed_loop(phases, k));
  // Collect non-negligible magnitudes, sorted.
  auto mags = [](const std::vector<std::complex<double>>& v) {
    std::vector<double> m;
    for (auto& e : v) {
      if (std::abs(e) > 1e-9) m.push_back(std::abs(e));
    }
    std::sort(m.begin(), m.end());
    return m;
  };
  const auto m1 = mags(ev_mono);
  const auto m2 = mags(ev_lift);
  ASSERT_EQ(m1.size(), m2.size());
  for (std::size_t i = 0; i < m1.size(); ++i) {
    EXPECT_NEAR(m1[i], m2[i], 1e-8);
  }
}

TEST(Switched, ZeroGainStabilityMatchesPlant) {
  // With K = 0 the monodromy spectral radius is that of the open loop.
  const ContinuousLTI p = oscillator(80.0, 0.3, 1e4);
  const auto ivs = uniform_intervals(3, 1e-3, 0.4e-3);
  const auto phases = discretize_phases(p, ivs);
  const std::vector<Matrix> k(3, Matrix(1, 2));
  const double rho = linalg::spectral_radius(closed_loop_monodromy(phases, k));
  const double rho_ol =
      linalg::spectral_radius(linalg::expm(p.a * 3.0e-3));
  EXPECT_NEAR(rho, rho_ol, 1e-9);
}

// ------------------------------------------------------------ feedforward

TEST(Feedforward, ExactHoldsReferenceAtAllSamples) {
  const ContinuousLTI p = oscillator(120.0, 0.15, 1.75e4);
  std::vector<sched::Interval> ivs(3);
  ivs[0] = {0.90755e-3, 0.90755e-3, false};
  ivs[1] = {0.45215e-3, 0.45215e-3, true};
  ivs[2] = {2.49025e-3, 0.45215e-3, true};
  SwitchedSimulator sim(p, ivs);
  // Find a gain set whose switched closed loop is comfortably stable
  // (per-phase placement does not guarantee switched stability, so scan).
  std::vector<Matrix> k;
  bool found = false;
  for (double radius : {0.5, 0.65, 0.8, 0.9}) {
    std::vector<Matrix> cand;
    for (const auto& pd : sim.phases()) {
      cand.push_back(
          place_poles(pd.ad, pd.btot, {{radius, 0.1}, {radius, -0.1}}));
    }
    if (linalg::spectral_radius(closed_loop_monodromy(sim.phases(), cand)) <
        0.85) {
      k = cand;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  const auto f = exact_feedforward(sim.phases(), p.c, k);
  ASSERT_TRUE(f.has_value());
  // Simulate long enough to converge, then check y == r at every sample.
  PhaseGains gains{k, *f};
  SimOptions so;
  so.r = 0.26;
  so.horizon = 200e-3;
  so.hold_first_interval = false;
  SimTrace tr;
  const SimResult sr = sim.simulate(gains, Matrix(2, 1), 0.0, so, &tr);
  ASSERT_FALSE(sr.diverged);
  // Last few samples must sit on the reference.
  for (std::size_t i = tr.ys.size() - 6; i < tr.ys.size(); ++i) {
    EXPECT_NEAR(tr.ys[i], so.r, 2e-4 * so.r) << "sample " << i;
  }
}

namespace {

/// The exact feedforward written with Matrix temporaries and a fresh
/// linalg::LU per call: the reference the workspace version must match
/// bit for bit.
std::optional<std::vector<double>> reference_exact_feedforward(
    const std::vector<PhaseDynamics>& phases, const Matrix& c,
    const std::vector<Matrix>& k) {
  const std::size_t m = phases.size();
  const std::size_t l = phases.front().ad.rows();
  const std::size_t n = m * l + m;
  Matrix sys(n, n);
  Matrix rhs(n, 1);
  auto xcol = [&](std::size_t j) { return j * l; };
  auto fcol = [&](std::size_t j) { return m * l + j; };
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t jn = (j + 1) % m;
    const std::size_t jp = (j + m - 1) % m;
    const std::size_t row = j * l;
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

struct FeedforwardCase {
  std::vector<PhaseDynamics> phases;
  Matrix c;
  std::vector<Matrix> k;
  std::string where;
};

/// Plants of orders 1-4 over 1-6 phases; tau = 0, tau = h and split
/// phases; zero, random and partly zero gains. The integrating plant
/// under zero gains has a pole at +1, which leaves the steady-state
/// system singular.
std::vector<FeedforwardCase> feedforward_cases() {
  testgen::SplitMix64 rng(20260417);
  const std::vector<ContinuousLTI> plants = {
      first_order(), oscillator(),
      make_family_plant(PlantFamily::damped_integrator, 40.0, 0.5, 1.0),
      make_family_plant(PlantFamily::resonant_with_actuator_lag, 60.0, 0.3,
                        2.0),
      companion(4, 80.0)};
  std::vector<FeedforwardCase> cases;
  for (const ContinuousLTI& plant : plants) {
    const std::size_t l = plant.order();
    for (std::size_t m = 1; m <= 6; ++m) {
      for (int timing = 0; timing < 3; ++timing) {
        std::vector<sched::Interval> ivs(m);
        for (std::size_t j = 0; j < m; ++j) {
          ivs[j].h = rng.real(0.5e-3, 3e-3);
          // timing 0: mixed; 1: every tau = h; 2: every tau = 0.
          const std::size_t kind = timing == 0 ? j % 3 : timing;
          ivs[j].tau = kind == 1 ? ivs[j].h
                                 : (kind == 2 ? 0.0 : rng.real(0.0, ivs[j].h));
        }
        const auto phases = discretize_phases(plant, ivs);
        for (int gains = 0; gains < 3; ++gains) {
          std::vector<Matrix> k;
          for (std::size_t j = 0; j < m; ++j) {
            Matrix kj(1, l);
            for (std::size_t q = 0; q < l; ++q) {
              // gains 0: zero; 1: random; 2: random with zero entries.
              if (gains == 1 || (gains == 2 && (j + q) % 2 == 0)) {
                kj(0, q) = rng.real(-2.0, 2.0) / std::pow(10.0, q);
              }
            }
            k.push_back(kj);
          }
          cases.push_back({phases, plant.c, k,
                           "order " + std::to_string(l) + " m " +
                               std::to_string(m) + " timing " +
                               std::to_string(timing) + " gains " +
                               std::to_string(gains)});
        }
      }
    }
  }
  return cases;
}

void expect_same_feedforward(
    const std::optional<std::vector<double>>& got,
    const std::optional<std::vector<double>>& want,
    const std::string& where) {
  ASSERT_EQ(got.has_value(), want.has_value()) << where;
  if (!want) return;
  ASSERT_EQ(got->size(), want->size()) << where;
  for (std::size_t j = 0; j < want->size(); ++j) {
    EXPECT_EQ(bits((*got)[j]), bits((*want)[j])) << where << " F" << j;
  }
}

}  // namespace

TEST(Feedforward, ExactMatchesMatrixReferenceBitForBit) {
  const std::vector<FeedforwardCase> cases = feedforward_cases();
  std::vector<std::optional<std::vector<double>>> want;
  int singular = 0;
  for (const FeedforwardCase& fc : cases) {
    want.push_back(reference_exact_feedforward(fc.phases, fc.c, fc.k));
    singular += !want.back().has_value();
  }
  EXPECT_GT(singular, 0);
  EXPECT_LT(singular, static_cast<int>(cases.size()));
  // Serially (one workspace growing and shrinking across sizes), then
  // from four pool threads, each with its own workspace.
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const FeedforwardCase& fc = cases[i];
    expect_same_feedforward(exact_feedforward(fc.phases, fc.c, fc.k),
                            want[i], fc.where + " (serial)");
  }
  core::ThreadPool pool(4);
  std::vector<std::optional<std::vector<double>>> got(cases.size());
  for (int pass = 0; pass < 3; ++pass) {
    core::parallel_for(&pool, cases.size(), [&](std::size_t i) {
      got[i] = exact_feedforward(cases[i].phases, cases[i].c, cases[i].k);
    });
    for (std::size_t i = 0; i < cases.size(); ++i) {
      expect_same_feedforward(got[i], want[i], cases[i].where + " (pool)");
    }
  }
}

// ------------------------------------------------------------- simulation

TEST(Simulator, EquilibriumIsFixedPoint) {
  // Starting at the equilibrium with the equilibrium input and r = y0, the
  // trajectory stays put.
  const ContinuousLTI p = oscillator(110.0, 0.2, 3.0e6);
  std::vector<sched::Interval> ivs = uniform_intervals(2, 1.2e-3, 0.6e-3);
  SwitchedSimulator sim(p, ivs);
  std::vector<Matrix> k;
  for (const auto& pd : sim.phases()) {
    k.push_back(place_poles(pd.ad, pd.btot, {{0.4, 0.2}, {0.4, -0.2}}));
  }
  const auto f = exact_feedforward(sim.phases(), p.c, k);
  ASSERT_TRUE(f.has_value());
  const Equilibrium eq = equilibrium_at(p, 1500.0);
  SimOptions so;
  so.r = 1500.0;
  so.horizon = 20e-3;
  SimTrace tr;
  const SimResult sr = sim.simulate({k, *f}, eq.x, eq.u, so, &tr);
  for (double y : tr.y) EXPECT_NEAR(y, 1500.0, 1e-6 * 1500.0);
  EXPECT_TRUE(sr.settled);
  EXPECT_NEAR(sr.settling_time, 0.0, 1e-12);
}

TEST(Simulator, DenseTrajectoryMatchesPhaseDynamicsAtSamples) {
  // The dense substep propagation must land exactly on the one-step
  // discretization at interval boundaries.
  const ContinuousLTI p = oscillator(90.0, 0.25, 5e5);
  std::vector<sched::Interval> ivs(2);
  ivs[0] = {0.7e-3, 0.7e-3, false};
  ivs[1] = {1.9e-3, 0.3e-3, true};
  SwitchedSimulator sim(p, ivs);
  std::vector<Matrix> k = {Matrix{{-1e-3, -1e-5}}, Matrix{{-2e-3, -2e-5}}};
  const auto f = exact_feedforward(sim.phases(), p.c, k);
  ASSERT_TRUE(f.has_value());
  SimOptions so;
  so.r = 100.0;
  so.horizon = 10e-3;
  so.hold_first_interval = false;
  SimTrace tr;
  sim.simulate({k, *f}, Matrix(2, 1), 0.0, so, &tr);

  // Manual reference recurrence.
  Matrix x(2, 1);
  double u_prev = 0.0;
  std::size_t phase = 0;
  for (std::size_t step = 0; step < 4; ++step) {
    const auto& pd = sim.phases()[phase];
    const double u_new = (k[phase] * x)(0, 0) + (*f)[phase] * so.r;
    x = pd.ad * x + pd.b1 * u_prev + pd.b2 * u_new;
    u_prev = u_new;
    phase = (phase + 1) % 2;
    // Find the matching sample in the dense sim (sensing instants ts).
    ASSERT_GT(tr.ys.size(), step + 1);
    EXPECT_NEAR(tr.ys[step + 1], (p.c * x)(0, 0), 1e-7 * std::abs(so.r))
        << "step " << step;
  }
}

TEST(Simulator, HoldFirstIntervalKeepsOldInput) {
  const ContinuousLTI p = first_order(30.0, 60.0);
  SwitchedSimulator sim(p, uniform_intervals(1, 2e-3, 1e-3));
  std::vector<Matrix> k = {Matrix{{-0.2}}};
  const auto f = exact_feedforward(sim.phases(), p.c, k);
  ASSERT_TRUE(f.has_value());
  const Equilibrium eq = equilibrium_at(p, 1.0);
  SimOptions so;
  so.r = 2.0;
  so.horizon = 0.1;
  so.hold_first_interval = true;
  SimTrace tr;
  const SimResult sr = sim.simulate({k, *f}, eq.x, eq.u, so, &tr);
  // During the entire first interval the output stays at the old level.
  for (std::size_t i = 0; i < tr.t.size() && tr.t[i] <= 2e-3 + 1e-9; ++i) {
    EXPECT_NEAR(tr.y[i], 1.0, 1e-9);
  }
  EXPECT_TRUE(sr.settled);
  EXPECT_GT(sr.settling_time, 2e-3 * 0.9);
}

TEST(Simulator, DivergenceDetected) {
  // Unstable closed loop (positive feedback) must flag divergence.
  const ContinuousLTI p = first_order(10.0, 100.0);
  SwitchedSimulator sim(p, uniform_intervals(1, 1e-3, 0.0));
  std::vector<Matrix> k = {Matrix{{+5.0}}};  // destabilizing
  SimOptions so;
  so.r = 1.0;
  so.horizon = 2.0;
  so.hold_first_interval = false;
  so.divergence_bound = 1e6;
  // Start off the (unstable) fixed point so the growth is excited.
  const SimResult sr =
      sim.simulate({k, {0.0}}, Matrix{{0.5}}, 0.0, so);
  EXPECT_TRUE(sr.diverged);
  EXPECT_FALSE(sr.settled);
}

TEST(Simulator, InputClampRespected) {
  const ContinuousLTI p = first_order(30.0, 60.0);
  SwitchedSimulator sim(p, uniform_intervals(1, 2e-3, 0.0));
  std::vector<Matrix> k = {Matrix{{-8.0}}};
  const auto f = exact_feedforward(sim.phases(), p.c, k);
  ASSERT_TRUE(f.has_value());
  SimOptions so;
  so.r = 5.0;
  so.horizon = 0.05;
  so.hold_first_interval = false;
  so.clamp_u = 0.5;
  const SimResult sr = sim.simulate({k, *f}, Matrix(1, 1), 0.0, so);
  EXPECT_LE(sr.u_max_abs, 0.5 + 1e-12);
}

// ------------------------------------- simulator vs. reference (bit-exact)

namespace {

void expect_same_bits(const std::vector<double>& got,
                      const std::vector<double>& want, const char* what,
                      const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << what << " " << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(bits(got[i]), bits(want[i])) << what << "[" << i << "] " << where;
  }
}

void expect_same_metrics(const SimResult& got, const SimResult& want,
                         const std::string& where) {
  EXPECT_EQ(bits(got.settling_time), bits(want.settling_time)) << where;
  EXPECT_EQ(got.settled, want.settled) << where;
  EXPECT_EQ(bits(got.u_max_abs), bits(want.u_max_abs)) << where;
  EXPECT_EQ(got.diverged, want.diverged) << where;
  EXPECT_EQ(bits(got.tail_error), bits(want.tail_error)) << where;
  EXPECT_EQ(bits(got.iae), bits(want.iae)) << where;
}

/// Runs simulate with and without a trace and checks both against the
/// reference simulator, field by field and bit by bit; returns the
/// reference metrics. \p tr is reused across calls, so stale contents must
/// be replaced.
SimResult check_against_reference(const ContinuousLTI& plant,
                             const std::vector<sched::Interval>& ivs,
                             double dense_dt, const PhaseGains& gains,
                             const Matrix& x0, double u_prev0,
                             const SimOptions& so, SimTrace& tr,
                             const std::string& where) {
  const testref::ReferenceSim ref = testref::reference_simulate(
      plant, ivs, dense_dt, gains, x0, u_prev0, so);
  const SwitchedSimulator sim(plant, ivs, dense_dt);
  expect_same_metrics(sim.simulate(gains, x0, u_prev0, so), ref.metrics,
                      where + " (metrics only)");
  expect_same_metrics(sim.simulate(gains, x0, u_prev0, so, &tr), ref.metrics,
                      where + " (traced)");
  expect_same_bits(tr.t, ref.trace.t, "t", where);
  expect_same_bits(tr.y, ref.trace.y, "y", where);
  expect_same_bits(tr.u, ref.trace.u, "u", where);
  expect_same_bits(tr.ts, ref.trace.ts, "ts", where);
  expect_same_bits(tr.ys, ref.trace.ys, "ys", where);
  // The forward settling scan agrees with the backward-scan reference.
  for (const auto* pts : {&ref.trace.t, &ref.trace.ts}) {
    if (pts->empty()) continue;
    const auto& ys = pts == &ref.trace.t ? ref.trace.y : ref.trace.ys;
    const SettlingInfo a = settling_time(*pts, ys, so.r, so.settle_band);
    const SettlingInfo b =
        testref::reference_settling_time(*pts, ys, so.r, so.settle_band);
    EXPECT_EQ(bits(a.time), bits(b.time)) << where;
    EXPECT_EQ(a.settled, b.settled) << where;
  }
  return ref.metrics;
}

/// The design objective's score of a step response (response_cost in
/// control/design.cpp), written out again: settling time plus 0.05 IAE when settled, 2H plus the capped
/// tail error when not, 500H when diverged, plus the saturation term.
double full_design_cost(const SimResult& sr, double horizon, double umax) {
  double cost;
  if (sr.diverged) {
    cost = 5.0e2 * horizon;
  } else if (!sr.settled) {
    cost = 2.0 * horizon + std::min(sr.tail_error, 1.0e3) * horizon;
  } else {
    cost = sr.settling_time + 0.05 * sr.iae;
  }
  if (sr.u_max_abs > umax) {
    cost += 50.0 * horizon * (sr.u_max_abs / umax - 1.0);
  }
  return cost;
}

/// The running lower bound of that score, in its plain form:
/// min(ts_lb + 0.05 iae, 2H) + sat(u_max).
double design_cost_floor(const SimResult& so_far, double horizon,
                         double umax) {
  double cost =
      std::min(so_far.settling_time + 0.05 * so_far.iae, 2.0 * horizon);
  if (so_far.u_max_abs > umax) {
    cost += 50.0 * horizon * (so_far.u_max_abs / umax - 1.0);
  }
  return cost;
}

/// Bounded runs against the reference metrics \p ref: unbounded with the
/// floor installed, then at bounds around the full cost. A run may stop
/// early only when the full cost reaches the bound, and a run that does
/// not stop is bit-identical to the reference. Returns how many stopped.
int check_bounded_runs(const ContinuousLTI& plant,
                       const std::vector<sched::Interval>& ivs,
                       double dense_dt, const PhaseGains& gains,
                       const Matrix& x0, double u_prev0, const SimOptions& so,
                       const SimResult& ref, const std::string& where) {
  const SwitchedSimulator sim(plant, ivs, dense_dt);
  int abandoned = 0;
  // An input bound the response stays within, and one it exceeds.
  const double u_ref = std::max(ref.u_max_abs, 1e-3);
  for (const double umax : {2.0 * u_ref, 0.5 * u_ref}) {
    const auto floor = [&](const SimResult& so_far) {
      return design_cost_floor(so_far, so.horizon, umax);
    };
    const double full = full_design_cost(ref, so.horizon, umax);
    const std::string at = where + " umax " + std::to_string(umax);
    const SimResult open = sim.simulate(
        gains, x0, u_prev0, so, std::numeric_limits<double>::infinity(),
        floor);
    EXPECT_FALSE(open.abandoned) << at;
    expect_same_metrics(open, ref, at + " bound inf");
    for (const double frac : {0.5, 0.9, 0.999, 1.0, 1.001}) {
      const double bound = frac * full;
      const SimResult sr =
          sim.simulate(gains, x0, u_prev0, so, bound, floor);
      const std::string here = at + " bound " + std::to_string(frac);
      if (sr.abandoned) {
        ++abandoned;
        EXPECT_GE(full, bound) << here;
        EXPECT_GE(design_cost_floor(sr, so.horizon, umax), bound) << here;
      } else {
        expect_same_metrics(sr, ref, here);
      }
    }
  }
  return abandoned;
}

}  // namespace

TEST(Simulator, FusedLoopMatchesReferenceBitForBit) {
  // Seeded sweep: every plant family (orders 1-3, one fixed-order loop
  // each) and companion-form plants of orders 4 and 5 (the run-time-order
  // loop), intervals longer and shorter than dense_dt with tau = 0 and
  // tau = h segments, settled, unsettled-at-end and diverging gains, clamp
  // and hold on and off, both settling readings. Each case is also run
  // bounded by the design objective's running floor, at bounds around its
  // full cost.
  testgen::SplitMix64 rng(20181016);
  int settled = 0;
  int unsettled = 0;
  int diverged = 0;
  int abandoned = 0;
  SimTrace tr;
  const std::size_t families = kAllPlantFamilies.size();
  for (std::size_t p = 0; p < families + 2; ++p) {
    const double w0 = rng.real(30.0, 150.0);
    const double zeta = rng.real(0.15, 0.7);
    const double gain = rng.real(0.5, 3.0);
    const bool family_plant = p < families;
    const PlantFamily family = kAllPlantFamilies[family_plant ? p : 0];
    const ContinuousLTI plant =
        family_plant ? make_family_plant(family, w0, zeta, gain)
                     : companion(p - families + 4, w0);
    const std::size_t l = plant.order();
    const double hp =
        family_plant ? family_default_period(family, w0, zeta) : 0.3 / w0;
    const std::string name = family_plant ? plant_family_name(family)
                                          : "companion " + std::to_string(l);
    std::vector<sched::Interval> ivs(1 + rng.index(3));
    for (std::size_t j = 0; j < ivs.size(); ++j) {
      ivs[j].h = hp * rng.real(0.4, 2.0);
      ivs[j].tau =
          j == 0 ? 0.0 : (j == 1 ? ivs[j].h : rng.real(0.0, ivs[j].h));
    }
    const auto phases = discretize_phases(plant, ivs);
    std::vector<Matrix> k;
    for (const auto& pd : phases) {
      std::vector<std::complex<double>> poles;
      if (l == 1) {
        poles = {{0.6, 0.0}};
      } else {
        poles = {{0.6, 0.2}, {0.6, -0.2}};
        for (std::size_t q = 2; q < l; ++q) {
          poles.push_back({0.4 - 0.1 * static_cast<double>(q - 2), 0.0});
        }
      }
      k.push_back(place_poles(pd.ad, pd.btot, poles));
    }
    // A tau = h phase can leave the exact feedforward singular; any F
    // serves the comparison, tracking is only needed for coverage.
    const std::vector<double> f =
        exact_feedforward(phases, plant.c, k)
            .value_or(std::vector<double>(ivs.size(), 1.0));
    Matrix x0(l, 1);
    for (std::size_t i = 0; i < l; ++i) x0(i, 0) = rng.real(-0.2, 0.2);

    // Exactly tracking; a 10% feedforward offset that never enters the
    // band; gains blown up past stability.
    std::vector<Matrix> k_hot = k;
    for (Matrix& kj : k_hot) kj *= 12.0;
    const std::vector<double> f_off = [&] {
      std::vector<double> v = f;
      for (double& fj : v) fj *= 1.1;
      return v;
    }();
    const std::vector<PhaseGains> variants = {
        {k, f}, {k, f_off}, {k_hot, f}};
    for (std::size_t g = 0; g < variants.size(); ++g) {
      for (const double dense_dt : {hp / 16.0, hp * 2.5}) {
        for (int mask = 0; mask < 8; ++mask) {
          SimOptions so;
          so.r = rng.real(0.5, 2.0);
          so.horizon = 60.0 * hp;
          so.start_phase = rng.index(ivs.size());
          if (mask & 1) so.clamp_u = rng.real(0.5, 4.0);
          so.hold_first_interval = (mask & 2) != 0;
          so.settle_on_samples = (mask & 4) != 0;
          so.divergence_bound = 1e3;
          const std::string where =
              name + " gains " +
              std::to_string(g) + " dt " + std::to_string(dense_dt) +
              " mask " + std::to_string(mask);
          const double u_prev0 = rng.real(-1.0, 1.0);
          const SimResult sr =
              check_against_reference(plant, ivs, dense_dt, variants[g], x0,
                                      u_prev0, so, tr, where);
          abandoned += check_bounded_runs(plant, ivs, dense_dt, variants[g],
                                          x0, u_prev0, so, sr, where);
          settled += sr.settled;
          unsettled += !sr.settled && !sr.diverged;
          diverged += sr.diverged;
        }
      }
    }
  }
  EXPECT_GT(settled, 0);
  EXPECT_GT(unsettled, 0);
  EXPECT_GT(diverged, 0);
  EXPECT_GT(abandoned, 0);
}

TEST(Simulator, StructuralZerosAreSkippedLikeOperatorStar) {
  // An unobservable, uncontrolled mode that starts at infinity: C, K and
  // the substep matrix hold exact zeros against it, so (as with
  // operator*) it never reaches the output. Adding 0 * inf would turn
  // every output into NaN.
  ContinuousLTI p;
  p.a = Matrix{{-40.0, 0.0}, {0.0, -25.0}};
  p.b = Matrix{{60.0}, {0.0}};
  p.c = Matrix{{1.0, 0.0}};
  const std::vector<sched::Interval> ivs = uniform_intervals(2, 2e-3, 5e-4);
  const PhaseGains gains{{Matrix{{-0.3, 0.0}}, Matrix{{-0.2, 0.0}}},
                         {0.9, 0.8}};
  const Matrix x0 =
      Matrix{{0.1}, {std::numeric_limits<double>::infinity()}};
  SimTrace tr;
  for (const bool on_samples : {true, false}) {
    SimOptions so;
    so.horizon = 0.1;
    so.settle_on_samples = on_samples;
    check_against_reference(p, ivs, 1e-4, gains, x0, 0.0, so, tr,
                            on_samples ? "samples" : "dense");
    EXPECT_TRUE(std::isfinite(tr.y.back()));
  }
}

TEST(Simulator, HorizonWithoutSamples) {
  // No interval starts before a zero horizon: settling on samples has no
  // trace to read and is rejected; the dense reading sees the t = 0 point.
  const ContinuousLTI p = first_order();
  const SwitchedSimulator sim(p, uniform_intervals(1, 2e-3, 0.0));
  const PhaseGains gains{{Matrix{{-0.2}}}, {0.5}};
  SimOptions so;
  so.horizon = 0.0;
  EXPECT_THROW(sim.simulate(gains, Matrix(1, 1), 0.0, so),
               std::invalid_argument);
  so.settle_on_samples = false;
  SimTrace tr;
  check_against_reference(p, uniform_intervals(1, 2e-3, 0.0), 1e-4, gains,
                          Matrix(1, 1), 0.0, so, tr, "zero horizon");
  EXPECT_EQ(tr.t.size(), 1u);
}

TEST(Simulator, RejectsNanDenseDt) {
  // NaN passes a `dense_dt <= 0` test; its substep count would not fit a
  // long long, and the run would never end.
  EXPECT_THROW(SwitchedSimulator(first_order(), uniform_intervals(1, 2e-3, 0.0),
                                 std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(Simulator, RejectsUncountableSubsteps) {
  // 2e-3 / 1e-300 substeps: more than llround can represent.
  EXPECT_THROW(SwitchedSimulator(first_order(), uniform_intervals(1, 2e-3, 0.0),
                                 1e-300),
               std::invalid_argument);
}

// --------------------------------------------------------------- settling

TEST(Settling, BasicCases) {
  // Within band from the start.
  auto s = settling_time({0.0, 1.0, 2.0}, {1.0, 1.01, 0.99}, 1.0, 0.02);
  EXPECT_TRUE(s.settled);
  EXPECT_DOUBLE_EQ(s.time, 0.0);
  // Enters the band at t = 2.
  s = settling_time({0.0, 1.0, 2.0, 3.0}, {0.0, 0.5, 1.0, 1.0}, 1.0, 0.02);
  EXPECT_TRUE(s.settled);
  EXPECT_DOUBLE_EQ(s.time, 2.0);
  // Re-exits the band: not settled until the final entry.
  s = settling_time({0.0, 1.0, 2.0, 3.0}, {1.0, 2.0, 1.0, 1.0}, 1.0, 0.02);
  EXPECT_TRUE(s.settled);
  EXPECT_DOUBLE_EQ(s.time, 2.0);
  // Last sample violating: never settles.
  s = settling_time({0.0, 1.0}, {1.0, 3.0}, 1.0, 0.02);
  EXPECT_FALSE(s.settled);
}

// ----------------------------------------------------------------- design

TEST(Design, FindsFeasibleControllerForCaseStudyLikePlant) {
  DesignSpec spec;
  spec.plant = oscillator(110.0, 0.2, 3.0e6);
  spec.umax = 60.0;
  spec.r = 2000.0;
  spec.y0 = 0.0;
  spec.smax = 17.5e-3;
  std::vector<sched::Interval> ivs(2);
  ivs[0] = {645.25e-6, 645.25e-6, false};
  ivs[1] = {3204.7e-6, 175.0e-6, true};
  DesignOptions opts;
  opts.pso.particles = 24;
  opts.pso.iterations = 40;
  opts.pso.seed = 7;
  opts.settle_on_samples = false;
  const DesignResult res = design_controller(spec, ivs, opts);
  EXPECT_TRUE(res.feasible);
  EXPECT_TRUE(res.settled);
  EXPECT_LE(res.settling_time, spec.smax);
  EXPECT_LE(res.u_max_abs, spec.umax * (1 + 1e-9));
  EXPECT_LT(res.spectral_radius, 1.0);
}

TEST(Design, PolishOptionsReachThePolish) {
  DesignSpec spec;
  spec.plant = oscillator(110.0, 0.2, 3.0e6);
  spec.umax = 60.0;
  spec.r = 2000.0;
  spec.smax = 17.5e-3;
  const auto ivs = uniform_intervals(2, 2.3e-3, 0.75e-3);
  DesignOptions opts;
  opts.pso.particles = 6;
  opts.pso.iterations = 4;
  opts.pso_restarts = 1;
  opts.scale_budget_with_dims = false;
  const DesignResult full = design_controller(spec, ivs, opts);
  EXPECT_GT(full.polish_evaluations, 1);
  EXPECT_LE(full.polish_evaluations, opts.polish.max_evaluations);
  opts.polish.max_evaluations = 1;  // the start point only
  const DesignResult start = design_controller(spec, ivs, opts);
  EXPECT_EQ(start.polish_evaluations, 1);
  // The stages before the polish do not see its budget.
  EXPECT_EQ(start.grid_evaluations, full.grid_evaluations);
  EXPECT_EQ(start.swarm_evaluations, full.swarm_evaluations);
  for (const DesignResult& r : {full, start}) {
    EXPECT_GT(r.grid_evaluations, 0);
    EXPECT_EQ(r.swarm_evaluations, 6 * 5);  // 6 particles, 1 + 4 generations
    EXPECT_EQ(r.pso_evaluations, r.grid_evaluations + r.swarm_evaluations +
                                     r.polish_evaluations);
  }
}

TEST(Design, PolishDefaultIsThePricedBudget) {
  // tools/price_design's table (docs/BENCHMARKS.md) prices the cap.
  const opt::PatternSearchOptions polish = DesignOptions{}.polish;
  EXPECT_EQ(polish.initial_step, 0.2);
  EXPECT_EQ(polish.min_step, 1e-4);
  EXPECT_EQ(polish.max_evaluations, 700);
  EXPECT_EQ(polish.step_floor_abs, 1e-9);
}

TEST(Design, ReportChecksTheLongHorizon) {
  // The search scores candidates over horizon_factor * smax = smax, but
  // report() checks the chosen gains over 1.6 smax: the same bits as one
  // direct simulation over 1.6 smax.
  // Weakened gains settle later: 0.8 of the design's settles after smax,
  // inside the window only the longer horizon sees; 0.6 of it never
  // settles.
  DesignSpec spec;
  spec.plant = oscillator(110.0, 0.2, 3.0e6);
  spec.umax = 60.0;
  spec.r = 2000.0;
  spec.smax = 17.5e-3;
  std::vector<sched::Interval> ivs(2);
  ivs[0] = {645.25e-6, 645.25e-6, false};
  ivs[1] = {3204.7e-6, 175.0e-6, true};
  DesignOptions opts;
  opts.pso.particles = 16;
  opts.pso.iterations = 20;
  opts.scale_budget_with_dims = false;
  opts.settle_on_samples = false;
  opts.horizon_factor = 1.0;
  const DesignResult designed = design_controller(spec, ivs, opts);
  const DesignObjective objective(spec, ivs, opts);
  EXPECT_EQ(objective.horizon(), spec.smax);

  SimOptions so;
  so.r = spec.r;
  so.horizon = 1.6 * spec.smax;
  so.start_phase = 1;  // the longest interval
  so.settle_band = spec.settle_band;
  so.settle_on_samples = opts.settle_on_samples;
  const Equilibrium eq = equilibrium_at(spec.plant, spec.y0);
  const std::size_t l = spec.plant.order();
  int late = 0;
  int never = 0;
  for (const double scale : {1.0, 0.9, 0.8, 0.6}) {
    std::vector<double> theta;
    for (const Matrix& kj : designed.gains.k) {
      for (std::size_t q = 0; q < l; ++q) theta.push_back(scale * kj(0, q));
    }
    const DesignResult got = objective.report(theta);
    const SimResult want =
        objective.simulator().simulate(got.gains, eq.x, eq.u, so);
    const std::string where = "scale " + std::to_string(scale);
    ASSERT_LT(got.spectral_radius, 1.0) << where;
    EXPECT_EQ(got.settled, want.settled) << where;
    EXPECT_EQ(bits(got.settling_time),
              bits(want.settled ? want.settling_time
                                : std::numeric_limits<double>::infinity()))
        << where;
    EXPECT_EQ(bits(got.u_max_abs), bits(want.u_max_abs)) << where;
    late += want.settled && want.settling_time > spec.smax ? 1 : 0;
    never += want.settled ? 0 : 1;
  }
  EXPECT_GT(late, 0);
  EXPECT_GT(never, 0);
}

TEST(Design, CaseStudyKeepsTheLongHorizon) {
  EXPECT_EQ(core::date18_design_options().horizon_factor, 1.6)
      << "tools/price_design's horizon grid: the case study loses "
         "control-feasible Sec. V schedules at every factor below 1.6 "
         "(docs/BENCHMARKS.md)";
}

TEST(Design, EvaluateGainsConsistentWithDesign) {
  DesignSpec spec;
  spec.plant = oscillator(110.0, 0.2, 3.0e6);
  spec.umax = 60.0;
  spec.r = 2000.0;
  spec.y0 = 0.0;
  spec.smax = 17.5e-3;
  const auto ivs = uniform_intervals(1, 2.3e-3, 0.75e-3);
  DesignOptions opts;
  opts.pso.particles = 16;
  opts.pso.iterations = 30;
  opts.settle_on_samples = false;
  const DesignResult res = design_controller(spec, ivs, opts);
  ASSERT_TRUE(res.settled);
  const DesignResult re = evaluate_gains(spec, ivs, res.gains, opts);
  EXPECT_NEAR(re.settling_time, res.settling_time, 1e-9);
  EXPECT_NEAR(re.u_max_abs, res.u_max_abs, 1e-9);
}

TEST(Design, InfeasibleWhenDeadlineImpossible) {
  // A deadline far below the idle gap cannot be met: the gap alone exceeds
  // it (the step lands at the start of the longest interval).
  DesignSpec spec;
  spec.plant = oscillator();
  spec.umax = 100.0;
  spec.r = 1.0;
  spec.y0 = 0.0;
  spec.smax = 0.5e-3;  // shorter than the 2.3 ms gap
  const auto ivs = uniform_intervals(1, 2.3e-3, 0.9e-3);
  DesignOptions opts;
  opts.pso.particles = 8;
  opts.pso.iterations = 10;
  const DesignResult res = design_controller(spec, ivs, opts);
  EXPECT_FALSE(res.feasible);
}

TEST(Design, RejectsNanDenseDt) {
  DesignSpec spec;
  spec.plant = first_order();
  spec.smax = 0.1;
  DesignOptions opts;
  opts.dense_dt = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(design_controller(spec, uniform_intervals(1, 2e-3, 0.0), opts),
               std::invalid_argument);
}

TEST(Design, ObjectiveKeepsBoundContract) {
  // opt::Objective's contract at every kind of bound: below, at and above
  // the exact cost, the 1e3 H stability barrier that decides whether the
  // spectral radius comes first or last, twice that, and none. Scaling
  // the designed gains reaches unstable candidates. The input bound is
  // generous, so an unstable response that diverges scores 500 H in
  // simulation, below the barrier it must be charged.
  DesignSpec spec;
  spec.plant = oscillator(110.0, 0.2, 3.0e6);
  spec.umax = 1.0e6;
  spec.r = 2000.0;
  spec.smax = 17.5e-3;
  std::vector<sched::Interval> ivs(2);
  ivs[0] = {645.25e-6, 645.25e-6, false};
  ivs[1] = {3204.7e-6, 175.0e-6, true};
  DesignOptions opts;
  opts.pso.particles = 16;
  opts.pso.iterations = 20;
  opts.scale_budget_with_dims = false;
  const DesignResult designed = design_controller(spec, ivs, opts);
  const DesignObjective objective(spec, ivs, opts);
  const std::size_t l = spec.plant.order();
  std::vector<double> theta;
  for (const Matrix& kj : designed.gains.k) {
    for (std::size_t q = 0; q < l; ++q) theta.push_back(kj(0, q));
  }
  const double inf = std::numeric_limits<double>::infinity();
  const double barrier = 1.0e3 * objective.horizon();
  int stable = 0;
  int unstable = 0;
  for (const double scale : {0.5, 1.0, 3.0, 12.0}) {
    std::vector<double> x = theta;
    for (double& v : x) v *= scale;
    const double exact = objective(x, inf);
    ASSERT_FALSE(std::isnan(exact)) << scale;
    (exact >= barrier ? unstable : stable) += 1;
    for (const double bound : {0.5 * exact, 0.999 * exact, 1.001 * exact,
                               barrier, 2.0 * barrier, inf}) {
      const double got = objective(x, bound);
      const std::string where = "scale " + std::to_string(scale) +
                                " bound " + std::to_string(bound);
      if (exact < bound) {
        EXPECT_EQ(bits(got), bits(exact)) << where;
      } else {
        EXPECT_GE(got, bound) << where;
      }
    }
  }
  EXPECT_GT(stable, 0);
  EXPECT_GT(unstable, 0);
}

TEST(Design, RejectsBadSpec) {
  DesignSpec spec;
  spec.plant = oscillator();
  spec.smax = -1.0;
  EXPECT_THROW(design_controller(spec, uniform_intervals(1, 1e-3, 0.0), {}),
               std::invalid_argument);
}
