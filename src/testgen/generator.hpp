#pragma once
/// \file generator.hpp
/// \brief Parameterized system generator: valid co-design problem
///        instances (core::SystemModel) drawn from a compact
///        GeneratorConfig by a single uint64 seed. The axes follow what
///        PR 5 showed matters: cache geometry, task-set size, per-task
///        footprint size and — above all — the footprint-OVERLAP fraction
///        between neighboring apps, which sweeps the system between the
///        regimes "contexts collapse to warm" (disjoint footprints) and
///        "contexts collapse to cold" (the paper's fully-overlapping case
///        study). Plants come from the control/scenarios families.
///
/// Determinism contract: generate_system(config, seed) is a pure function
/// of its arguments with every random draw routed through the owned
/// SplitMix64 (src/testgen/rng.hpp) — no std:: distributions — so a seed
/// printed by the fuzz harness reproduces the exact same system (same
/// fingerprint) on gcc and clang alike.

#include <cstdint>
#include <vector>

#include "control/scenarios.hpp"
#include "core/system_model.hpp"

namespace catsched::testgen {

/// The knobs a fuzzing campaign sweeps. Defaults give small-but-nontrivial
/// systems (seconds of invariant checking each, not minutes).
struct GeneratorConfig {
  // --- cache geometry: one choice drawn per system ---
  std::vector<std::size_t> set_choices{32, 64, 128};
  std::vector<std::size_t> way_choices{1, 2, 4};
  std::vector<std::size_t> line_bytes_choices{8, 16, 32};
  std::uint32_t hit_cycles = 1;
  std::uint32_t min_miss_cycles = 20;
  std::uint32_t max_miss_cycles = 120;
  double clock_hz = 20.0e6;

  // --- task set ---
  std::size_t min_apps = 2;
  std::size_t max_apps = 5;

  // --- program footprints ---
  /// Per-task footprint width as a fraction of the cache's sets.
  double min_footprint = 0.25;
  double max_footprint = 0.75;
  /// Footprint-overlap knob: each app occupies a contiguous window of
  /// cache sets, and consecutive windows are shifted by
  /// (1 - overlap) * previous width. 0 = disjoint neighbors (contexts stay
  /// at warm), 1 = all windows share one base (the case-study regime where
  /// cross contexts collapse toward cold). Negative = draw uniformly in
  /// [0, 1] per system (the sweep default).
  double overlap = -1.0;
  /// Chance that a footprint set receives a second, self-conflicting line
  /// of the same app (misses that survive even on a warm cache).
  double conflict_line_chance = 0.25;
  /// Immediate re-fetches of each line (intra-line instruction groups).
  std::size_t min_refetches = 1;
  std::size_t max_refetches = 3;
  /// Re-traversals of a random trace suffix (the program's "loop").
  std::size_t min_loop_iterations = 1;
  std::size_t max_loop_iterations = 3;

  // --- branchy structured programs (the first-miss surface) ---
  /// Chance that an app carries a structured control-flow image instead of
  /// a plain linear trace: an if/else over disjoint line banks inside a
  /// bounded loop (optionally with a nested inner loop). These are the
  /// programs where the persistence domain's first-miss classification
  /// tightens the WCET bound below the AM-only schema. The app's
  /// `program.trace` is set to one concrete maximal-access path of the
  /// tree, so replay-based checks keep working. At exactly 0 the feature is
  /// off AND consumes no RNG draws, so every pre-existing seed replays
  /// bit-identically.
  double branchy_chance = 0.0;
  /// Outer loop bound of a branchy program (>= 2 so first-miss has leverage).
  int min_branchy_loop_bound = 3;
  int max_branchy_loop_bound = 6;
  /// Chance that a branchy program nests an inner loop in the outer body.
  double nested_loop_chance = 0.5;

  // --- control-side parameter ranges (plant families from
  //     control/scenarios; see make_family_plant) ---
  double min_w0 = 80.0;
  double max_w0 = 250.0;
  double min_zeta = 0.15;
  double max_zeta = 0.5;
  double min_gain = 1.0;
  double max_gain = 10.0;
  /// Settling deadline as a multiple of the plant family's timescale.
  double min_smax_factor = 1.5;
  double max_smax_factor = 4.0;
  /// Idle-time limit as a multiple of the task set's summed cold WCET
  /// (>= 2 keeps every all-ones periodic schedule idle-feasible, so the
  /// searches always have a valid start).
  double min_tidle_factor = 2.0;
  double max_tidle_factor = 6.0;
};

/// One generated problem instance. `model` passes SystemModel::validate()
/// by construction. With branchy_chance > 0 some apps carry a structured
/// tree (Application::has_structured) next to their representative trace.
struct GeneratedSystem {
  core::SystemModel model;
  std::uint64_t seed = 0;
  double overlap = 0.0;  ///< the drawn (or pinned) overlap knob
  std::vector<control::PlantFamily> families;  ///< per app, same order
};

/// Generate one system. Pure function of (config, seed); see the file
/// header for the determinism contract.
/// \throws std::invalid_argument on a nonsensical config (empty choice
///         lists, inverted ranges, min_apps < 1).
GeneratedSystem generate_system(const GeneratorConfig& config,
                                std::uint64_t seed);

/// Structural FNV-1a fingerprint of a system model: cache configuration,
/// every program trace, every structured control-flow tree (kind, bound,
/// lines, children — recursively; hashed only for apps that carry one, so
/// trace-only models fingerprint exactly as before), every control-side
/// parameter and plant matrix entry (by IEEE bit pattern), fed byte-wise
/// in a fixed little-endian order. Two models fingerprint equal iff the
/// fuzz harness would treat them identically; the seed-replay regression
/// test pins this across two in-process generations.
std::uint64_t system_fingerprint(const core::SystemModel& model);

}  // namespace catsched::testgen
