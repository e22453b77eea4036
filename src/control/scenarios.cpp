#include "control/scenarios.hpp"

#include <algorithm>
#include <stdexcept>

namespace catsched::control {

const char* plant_family_name(PlantFamily family) {
  switch (family) {
    case PlantFamily::underdamped_second_order:
      return "underdamped_second_order";
    case PlantFamily::first_order_lag:
      return "first_order_lag";
    case PlantFamily::damped_integrator:
      return "damped_integrator";
    case PlantFamily::resonant_with_actuator_lag:
      return "resonant_with_actuator_lag";
  }
  return "unknown";
}

ContinuousLTI make_family_plant(PlantFamily family, double w0, double zeta,
                                double gain) {
  if (!(w0 > 0.0) || zeta < 0.0 || gain == 0.0) {
    throw std::invalid_argument(
        "make_family_plant: need w0 > 0, zeta >= 0, gain != 0");
  }
  ContinuousLTI p;
  switch (family) {
    case PlantFamily::underdamped_second_order:
      // DC gain: y_ss = gain * u (input gain gain * w0^2 over stiffness w0^2).
      p.a = Matrix{{0.0, 1.0}, {-w0 * w0, -2.0 * zeta * w0}};
      p.b = Matrix{{0.0}, {gain * w0 * w0}};
      p.c = Matrix{{1.0, 0.0}};
      break;
    case PlantFamily::first_order_lag:
      p.a = Matrix{{-w0}};
      p.b = Matrix{{gain * w0}};
      p.c = Matrix{{1.0}};
      break;
    case PlantFamily::damped_integrator:
      // Position integrates damped velocity; no restoring term, so `gain`
      // scales acceleration per unit input (no finite DC gain exists).
      p.a = Matrix{{0.0, 1.0}, {0.0, -2.0 * zeta * w0}};
      p.b = Matrix{{0.0}, {gain * w0 * w0}};
      p.c = Matrix{{1.0, 0.0}};
      break;
    case PlantFamily::resonant_with_actuator_lag:  {
      // Actuator pole at 3 w0 feeding the resonant pair; the lag state is
      // normalized so the cascade keeps DC gain `gain`.
      const double wa = 3.0 * w0;
      p.a = Matrix{{0.0, 1.0, 0.0},
                   {-w0 * w0, -2.0 * zeta * w0, w0 * w0},
                   {0.0, 0.0, -wa}};
      p.b = Matrix{{0.0}, {0.0}, {gain * wa}};
      p.c = Matrix{{1.0, 0.0, 0.0}};
      break;
    }
  }
  return p;
}

double family_timescale(PlantFamily family, double w0, double zeta) {
  if (!(w0 > 0.0)) {
    throw std::invalid_argument("family_timescale: need w0 > 0");
  }
  switch (family) {
    case PlantFamily::first_order_lag:
      return 4.0 / w0;
    case PlantFamily::damped_integrator:
      // No open-loop settling; the closed loop is designed around w0, so
      // the characteristic envelope is the damped-velocity one.
      return 4.0 / (std::max(zeta, 0.1) * w0);
    case PlantFamily::underdamped_second_order:
    case PlantFamily::resonant_with_actuator_lag:
      return 4.0 / (std::max(zeta, 0.05) * w0);
  }
  return 4.0 / w0;
}

double family_default_period(PlantFamily family, double w0, double zeta) {
  // ~1/40 of the settling envelope: dozens of samples per transient, well
  // below the Nyquist limit of every family's fastest mode at 3 w0.
  return family_timescale(family, w0, zeta) / 40.0;
}

}  // namespace catsched::control
