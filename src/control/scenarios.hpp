#pragma once
/// \file scenarios.hpp
/// \brief The parameterized plant families the workload generator
///        (src/testgen) samples its applications from.

#include <array>

#include "control/lti.hpp"

namespace catsched::control {

/// The plant families the system generator draws from. Each is a SISO
/// continuous LTI model shaped like one of the case study's application
/// classes; the free parameters (natural frequency, damping, DC gain) span
/// the regimes where sampling rate and sensing-to-actuation delay dominate
/// achievable settling.
enum class PlantFamily {
  /// Lightly damped 2nd-order mechanism (servo / drivetrain / brake class):
  /// y'' = -w0^2 y - 2 zeta w0 y' + (gain w0^2) u.
  underdamped_second_order,
  /// First-order lag y' = -w0 (y - gain u): thermal/flow-style dynamics.
  first_order_lag,
  /// Damped double integrator x1' = x2, x2' = -2 zeta w0 x2 + (gain w0^2) u:
  /// positioning without a restoring spring (integrating plant).
  damped_integrator,
  /// 2nd-order resonant mode behind a first-order actuator lag at 3 w0:
  /// the slowest third-order family the design kernel still handles fast.
  resonant_with_actuator_lag,
};

/// Every family, for exhaustive iteration (generator sampling and the
/// controllability test that guards its validity contract).
inline constexpr std::array<PlantFamily, 4> kAllPlantFamilies = {
    PlantFamily::underdamped_second_order, PlantFamily::first_order_lag,
    PlantFamily::damped_integrator, PlantFamily::resonant_with_actuator_lag};

/// Short stable name for logs and fuzz reports.
const char* plant_family_name(PlantFamily family);

/// Instantiate one family member. \p w0 is the characteristic frequency
/// [rad/s], \p zeta the damping ratio (ignored by first_order_lag), \p gain
/// the DC input-to-output gain (steady-state y per unit u; for the
/// integrating family it scales acceleration per unit input instead, since
/// an integrator has no finite DC gain).
/// \throws std::invalid_argument if w0 <= 0, zeta < 0, or gain == 0.
ContinuousLTI make_family_plant(PlantFamily family, double w0, double zeta,
                                double gain);

/// Characteristic open-loop settling timescale of a family instance (the
/// 2% envelope time of its slowest mode, 4 / (zeta w0)-style); the
/// generator derives settling deadlines and the default discretization
/// period from it.
double family_timescale(PlantFamily family, double w0, double zeta);

/// The default sampling period a family instance is discretized at by the
/// controllability guard and the generator's validity contract: a fixed
/// fraction of the characteristic timescale, well inside the stable
/// sampling regime.
double family_default_period(PlantFamily family, double w0, double zeta);

}  // namespace catsched::control
