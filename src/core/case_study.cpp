#include "core/case_study.hpp"

namespace catsched::core {

cache::CacheConfig date18_cache_config() {
  cache::CacheConfig cfg;
  cfg.line_bytes = 16;
  cfg.num_lines = 128;
  cfg.associativity = 1;  // direct-mapped
  cfg.hit_cycles = 1;
  cfg.miss_cycles = 100;
  cfg.clock_hz = 20.0e6;
  return cfg;
}

namespace {

/// Calibrated program layouts reproducing Table I (cache::CalibratedLayout):
///   cold cycles = 100 L + E, warm = cold - 99 S, with
///   L = singletons + conflict lines, S = singletons, E = extra hits.
/// C1: 18151 / 9043 cycles  -> S = 92, L = 180, E = 151
/// C2: 12905 / 3500 cycles  -> S = 95, L = 129, E = 5
/// C3: 14983 / 4687 cycles  -> S = 104, L = 148, E = 183
/// Conflict groups are sized so each app's set usage stays within the 128
/// sets and every app's singleton sets are covered (and thus evicted) by
/// every other app's footprint, making the first task of a burst cold.
cache::Program make_c1_program(std::size_t num_sets) {
  cache::CalibratedLayout layout;
  layout.singleton_lines = 92;
  layout.conflict_group_sizes.assign(22, 4);  // 88 conflict lines, 22 sets
  layout.extra_hit_fetches = 151;
  return cache::make_calibrated_program("servo_position", layout, num_sets,
                                        /*base_line=*/0);
}

cache::Program make_c2_program(std::size_t num_sets) {
  cache::CalibratedLayout layout;
  layout.singleton_lines = 95;
  layout.conflict_group_sizes.assign(17, 2);  // 34 conflict lines, 17 sets
  layout.extra_hit_fetches = 5;
  return cache::make_calibrated_program("dc_motor_speed", layout, num_sets,
                                        /*base_line=*/1024);
}

cache::Program make_c3_program(std::size_t num_sets) {
  cache::CalibratedLayout layout;
  layout.singleton_lines = 104;
  layout.conflict_group_sizes.assign(22, 2);  // 44 conflict lines, 22 sets
  layout.extra_hit_fetches = 183;
  return cache::make_calibrated_program("wedge_brake", layout, num_sets,
                                        /*base_line=*/2048);
}

/// C1 -- position control of a servo motor (steer-by-wire, [16]): a
/// spring-centered steering actuator (self-aligning torque) with light
/// damping, theta'' = -w0^2 theta - 2 zeta w0 theta' + b u, output theta
/// [rad]. Lightly damped mechanisms are where sampling rate and
/// sensing-to-actuation delay dominate achievable settling, the regime the
/// paper's improvements live in. The paper gives no plant parameters, so
/// w0/zeta/b are chosen to put the round-robin settling times near
/// Table III.
control::ContinuousLTI servo_plant() {
  const double w0 = 120.0;   // self-centering natural frequency [rad/s]
  const double zeta = 0.15;  // mechanical damping ratio
  const double b = 17500.0;  // input gain [rad/s^2 per unit input]
  control::ContinuousLTI p;
  p.a = linalg::Matrix{{0.0, 1.0}, {-w0 * w0, -2.0 * zeta * w0}};
  p.b = linalg::Matrix{{0.0}, {b}};
  p.c = linalg::Matrix{{1.0, 0.0}};
  return p;
}

/// C2 -- speed control of a DC motor (EV cruise control, [17]): the
/// dominant resonant drivetrain mode (elastic shaft between motor and
/// wheel) in speed coordinates: y'' = -w0^2 (y - y_cmd-ish) ... modeled as
/// a lightly damped second-order speed mode driven by motor torque.
/// Output omega [round/s].
control::ContinuousLTI dc_motor_plant() {
  const double w0 = 180.0;   // drivetrain mode frequency [rad/s]
  const double zeta = 0.10;  // shaft damping ratio
  const double b = 7.0e5;    // torque gain [round/s^3 per unit input]
  control::ContinuousLTI p;
  p.a = linalg::Matrix{{0.0, 1.0}, {-w0 * w0, -2.0 * zeta * w0}};
  p.b = linalg::Matrix{{0.0}, {b}};
  p.c = linalg::Matrix{{1.0, 0.0}};
  return p;
}

/// C3 -- electronic wedge brake clamp-force control (Siemens EWB, [18]):
/// second-order force dynamics with natural frequency omega0 and damping
/// zeta; output clamp force [N].
control::ContinuousLTI wedge_brake_plant() {
  const double w0 = 110.0;  // wedge mechanism natural frequency [rad/s]
  const double zeta = 0.2;  // mechanism damping ratio
  const double g = 3.0e6;   // [N/s^2 per unit input]
  control::ContinuousLTI p;
  p.a = linalg::Matrix{{0.0, 1.0}, {-w0 * w0, -2.0 * zeta * w0}};
  p.b = linalg::Matrix{{0.0}, {g}};
  p.c = linalg::Matrix{{1.0, 0.0}};
  return p;
}

}  // namespace

SystemModel date18_case_study() {
  SystemModel sys;
  sys.cache_config = date18_cache_config();
  const std::size_t sets = sys.cache_config.num_sets();

  Application c1;
  c1.name = "C1 servo position";
  c1.plant = servo_plant();
  c1.program = make_c1_program(sets);
  c1.weight = 0.4;
  c1.smax = 45.0e-3;
  c1.tidle = 3.4e-3;
  c1.umax = 1.0;
  c1.r = 0.26;  // rad (Fig. 6 top)
  c1.y0 = 0.0;

  Application c2;
  c2.name = "C2 DC motor speed";
  c2.plant = dc_motor_plant();
  c2.program = make_c2_program(sets);
  c2.weight = 0.4;
  c2.smax = 20.0e-3;
  c2.tidle = 3.9e-3;
  c2.umax = 45.0;
  c2.r = 115.0;  // round/s (Fig. 6 middle)
  c2.y0 = 80.0;

  Application c3;
  c3.name = "C3 wedge brake force";
  c3.plant = wedge_brake_plant();
  c3.program = make_c3_program(sets);
  c3.weight = 0.2;
  c3.smax = 17.5e-3;
  c3.tidle = 3.5e-3;
  c3.umax = 60.0;
  c3.r = 2000.0;  // N (Fig. 6 bottom)
  c3.y0 = 0.0;

  sys.apps = {c1, c2, c3};
  return sys;
}

control::DesignOptions date18_design_options() {
  control::DesignOptions opts;
  opts.pso.particles = 36;
  opts.pso.iterations = 70;
  opts.pso.seed = 20180319;  // DATE'18 conference date; fixed for runs
  opts.pso.stall_iterations = 20;
  // One swarm: a second restart changes no printed design (docs/BENCHMARKS).
  opts.pso_restarts = 1;
  opts.dense_dt = 1.0e-4;
  opts.horizon_factor = 1.6;
  // Settling is measured on the dense trajectory (continuous reading of
  // Fig. 6); stricter than the sampled y[k] metric and free of the
  // sampling-grid quantization.
  opts.settle_on_samples = false;
  return opts;
}

}  // namespace catsched::core
