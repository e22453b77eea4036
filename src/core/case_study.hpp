#pragma once
/// \file case_study.hpp
/// \brief The paper's Sec. V automotive case study: three control
///        applications (servo position, DC-motor speed, electronic wedge
///        brake) on a 20 MHz microcontroller with a 2 KiB direct-mapped
///        instruction cache.
///
/// The program images are synthetic worst-case-path traces calibrated so
/// that the simulated WCETs reproduce Table I exactly (the derivation is in
/// case_study.cpp: the paper's cycle deltas decompose as 99 x {92,95,104}
/// misses-turned-hits under the stated 1/100-cycle hit/miss costs). The
/// plants are standard 2nd-order models with parameters calibrated so the
/// round-robin settling times sit near Table III.

#include "core/system_model.hpp"

namespace catsched::core {

/// The paper's cache/processor configuration: 128 lines x 16 B,
/// direct-mapped, 1-cycle hit, 100-cycle miss, 20 MHz.
cache::CacheConfig date18_cache_config();

/// The three applications with Table II parameters (weights 0.4/0.4/0.2,
/// settling deadlines 45/20/17.5 ms, idle limits 3.4/3.9/3.5 ms).
SystemModel date18_case_study();

/// Table I reference values in seconds, for checks and benches.
struct Date18Wcets {
  static constexpr double c1_cold = 907.55e-6;
  static constexpr double c1_warm = 452.15e-6;
  static constexpr double c2_cold = 645.25e-6;
  static constexpr double c2_warm = 175.00e-6;
  static constexpr double c3_cold = 749.15e-6;
  static constexpr double c3_warm = 234.35e-6;
};

/// Design options tuned for the case study (deterministic PSO budget that
/// keeps a full exhaustive search in the tens of seconds).
control::DesignOptions date18_design_options();

}  // namespace catsched::core
