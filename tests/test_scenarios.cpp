/// \file test_scenarios.cpp
/// \brief Plant-family tests: the controllability, equilibrium and
///        timescale contracts the workload generator relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <utility>

#include "control/c2d.hpp"
#include "control/lti.hpp"
#include "control/scenarios.hpp"

namespace {

using catsched::control::ContinuousLTI;
using catsched::linalg::Matrix;

/// Numerical rank via row-echelon elimination with a tolerance relative
/// to the largest entry.
std::size_t rank(Matrix m, double rel_tol) {
  const std::size_t nr = m.rows();
  const std::size_t nc = m.cols();
  const double tol = rel_tol * std::max(m.max_abs(), 1.0);
  std::size_t rank = 0;
  std::size_t row = 0;
  for (std::size_t col = 0; col < nc && row < nr; ++col) {
    // Find pivot in this column.
    std::size_t p = row;
    double best = std::abs(m(row, col));
    for (std::size_t i = row + 1; i < nr; ++i) {
      const double v = std::abs(m(i, col));
      if (v > best) {
        best = v;
        p = i;
      }
    }
    if (best <= tol) continue;
    if (p != row) {
      for (std::size_t j = 0; j < nc; ++j) std::swap(m(p, j), m(row, j));
    }
    for (std::size_t i = row + 1; i < nr; ++i) {
      const double f = m(i, col) / m(row, col);
      if (f == 0.0) continue;
      for (std::size_t j = col; j < nc; ++j) m(i, j) -= f * m(row, j);
    }
    ++rank;
    ++row;
  }
  return rank;
}

/// Full-rank test of the controllability matrix.
bool is_controllable(const Matrix& a, const Matrix& b,
                     double rel_tol = 1e-10) {
  return rank(catsched::control::controllability_matrix(a, b), rel_tol) ==
         a.rows();
}

TEST(PlantFamilies, EveryFamilyIsControllableAtItsDefaultDiscretization) {
  // The workload generator's validity contract: any family instance it can
  // sample must be controllable both in continuous time and — what the
  // design kernel actually sees — as the discrete (Ad, Btot) pair at the
  // family's default sampling period, including a half-period
  // sensing-to-actuation delay. Sweep the generator's parameter box
  // corners plus its center.
  using catsched::control::discretize_interval;
  using catsched::control::family_default_period;
  using catsched::control::family_timescale;
  using catsched::control::kAllPlantFamilies;
  using catsched::control::make_family_plant;
  using catsched::control::plant_family_name;

  const double w0s[] = {80.0, 165.0, 250.0};     // generator min/mid/max
  const double zetas[] = {0.15, 0.325, 0.5};
  const double gains[] = {1.0, 5.5, 10.0};
  for (const auto family : kAllPlantFamilies) {
    for (const double w0 : w0s) {
      for (const double zeta : zetas) {
        for (const double gain : gains) {
          SCOPED_TRACE(std::string(plant_family_name(family)) + " w0=" +
                       std::to_string(w0) + " zeta=" + std::to_string(zeta) +
                       " gain=" + std::to_string(gain));
          const ContinuousLTI plant =
              make_family_plant(family, w0, zeta, gain);
          EXPECT_TRUE(is_controllable(plant.a, plant.b));

          const double h = family_default_period(family, w0, zeta);
          ASSERT_GT(h, 0.0);
          EXPECT_LT(h, family_timescale(family, w0, zeta));
          const auto pd = discretize_interval(plant, h, h / 2.0);
          EXPECT_TRUE(is_controllable(pd.ad, pd.btot));
          // And with the full interval consumed by sensing (tau == h, so
          // only the held input acts): still controllable through b1.
          const auto lagged = discretize_interval(plant, h, h);
          EXPECT_TRUE(is_controllable(lagged.ad, lagged.b1));
        }
      }
    }
  }
}

TEST(PlantFamilies, NonIntegratingFamiliesHoldAUnitEquilibrium) {
  using catsched::control::equilibrium_at;
  using catsched::control::make_family_plant;
  using catsched::control::PlantFamily;
  // The step-response scenarios regulate to y = r; the families meant to
  // have finite DC gain must admit that equilibrium (the integrating one
  // holds any y with u = 0 instead).
  for (const auto family : {PlantFamily::underdamped_second_order,
                            PlantFamily::first_order_lag,
                            PlantFamily::resonant_with_actuator_lag}) {
    const ContinuousLTI plant = make_family_plant(family, 120.0, 0.3, 4.0);
    const auto eq = equilibrium_at(plant, 1.0);
    // DC gain is `gain`, so holding y = 1 needs u = 1 / gain.
    EXPECT_NEAR(eq.u, 0.25, 1e-9);
  }
  const ContinuousLTI integ = make_family_plant(
      PlantFamily::damped_integrator, 120.0, 0.3, 4.0);
  const auto eq = equilibrium_at(integ, 1.0);
  EXPECT_NEAR(eq.u, 0.0, 1e-9);
}

TEST(PlantFamilies, TimescaleShrinksWithFrequencyAndPeriodIsAFraction) {
  using catsched::control::family_default_period;
  using catsched::control::family_timescale;
  using catsched::control::kAllPlantFamilies;
  for (const auto family : kAllPlantFamilies) {
    const double slow = family_timescale(family, 80.0, 0.3);
    const double fast = family_timescale(family, 250.0, 0.3);
    EXPECT_GT(slow, fast);
    EXPECT_GT(fast, 0.0);
    EXPECT_NEAR(family_default_period(family, 80.0, 0.3), slow / 40.0,
                1e-12 * slow);
  }
}

TEST(PlantFamilies, RejectsDegenerateParameters) {
  using catsched::control::make_family_plant;
  using catsched::control::PlantFamily;
  EXPECT_THROW(
      make_family_plant(PlantFamily::first_order_lag, 0.0, 0.3, 1.0),
      std::invalid_argument);
  EXPECT_THROW(
      make_family_plant(PlantFamily::first_order_lag, -5.0, 0.3, 1.0),
      std::invalid_argument);
  EXPECT_THROW(
      make_family_plant(PlantFamily::underdamped_second_order, 100.0, -0.1,
                        1.0),
      std::invalid_argument);
  EXPECT_THROW(
      make_family_plant(PlantFamily::damped_integrator, 100.0, 0.3, 0.0),
      std::invalid_argument);
}

}  // namespace
