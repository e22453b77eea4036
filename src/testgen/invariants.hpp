#pragma once
/// \file invariants.hpp
/// \brief Property-based invariant harness: re-check, on ANY generated
///        system, every soundness/determinism contract the unit suite pins
///        on hand-built fixtures — warm <= context <= cold and mask
///        monotonicity of the schedule-dependent WCET engine, concrete
///        replay never exceeding its bound, binary/context timing
///        derivation identities, delta-vs-scratch and serial-vs-parallel
///        bit-identity of the search stack, and evaluator memo-count
///        sanity. check_invariants is a pure function of (model, seed,
///        options): the schedules it exercises are drawn deterministically
///        from the seed, so a failure report is reproducible from its
///        printed seed alone and remains meaningful on the shrunk copies of
///        the model the greedy shrinker proposes.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "control/design.hpp"
#include "core/system_model.hpp"

namespace catsched::testgen {

/// A tiny controller-design budget for fuzz-scale evaluations: the
/// invariants pin determinism and soundness, not control quality, so the
/// swarm is cut to a few particles and the Ackermann seed grid trimmed.
/// dense_dt is adapted per system by check_invariants (see
/// InvariantOptions::dense_steps).
control::DesignOptions fuzz_design_options();

/// Harness knobs.
struct InvariantOptions {
  control::DesignOptions design = fuzz_design_options();
  /// Cap dense closed-loop simulation at roughly this many steps per run:
  /// dense_dt is raised to horizon / dense_steps when a generated smax
  /// would otherwise make one design cost tens of thousands of steps.
  int dense_steps = 400;
  /// Run the serial-vs-parallel search identity tier (hybrid/multi-start,
  /// exhaustive, interleaved). Dominates per-system cost; the sweep
  /// strides over seeds with it enabled.
  bool check_searches = true;
  /// Worker counts the parallel reruns use.
  std::vector<std::size_t> thread_counts{2};
  /// Self-test hook: assert a deliberately FALSE invariant (every nonzero
  /// interference context strictly below the warm bound) so the failure
  /// path — seed printing, replay, shrinking — can be exercised end to
  /// end. Fails on every system with >= 2 applications.
  bool inject_failure = false;
};

/// Outcome of one system's invariant sweep, plus the measured surface the
/// nightly summary aggregates.
struct InvariantReport {
  bool passed = true;
  std::string failed_check;  ///< id of the first failing check (see below)
  std::string detail;        ///< human-readable failure description

  // Measured surface (valid when the respective tier ran):
  /// Some cross context strictly between warm and cold — the regime the
  /// binary model cannot represent.
  bool context_strict = false;
  bool searches_checked = false;
  /// The interleaved search beat the best periodic schedule's Pall.
  bool interleaving_won = false;
  /// The all-ones round-robin schedule is idle-feasible.
  bool rr_feasible = false;
  double best_periodic_pall = 0.0;
  double best_interleaved_pall = 0.0;

  // First-miss (persistence) surface, for the nightly tightening rate:
  std::size_t fm_apps = 0;            ///< apps carrying a structured tree
  std::size_t fm_tightened_apps = 0;  ///< of those, FM bound < AM-only bound
  /// Summed (cold + warm) cycle reduction of FM-on vs FM-off across apps.
  std::uint64_t fm_reduction_cycles = 0;
};

/// Check ids, in execution order (groups early-exit on first failure):
///   wcet-pair, analyzer-base, fm-le-am, fm-memo, fm-replay,
///   wcet-ordering, context-reference, injected-context-below-warm,
///   wcet-monotonic, replay-bound, timing-cold-fallback,
///   timing-schedule-vs-seq, timing-delta, timing-rotation, neighbor-eval,
///   neighbor-eval-context, memo-counts, search-hybrid,
///   search-exhaustive, search-interleaved, search-portfolio.
InvariantReport check_invariants(const core::SystemModel& model,
                                 std::uint64_t seed,
                                 const InvariantOptions& opts = {});

/// Predicate for the shrinker: re-runs check_invariants and returns the
/// failing check id ("" when all pass); exceptions count as "" (a shrunk
/// candidate that breaks a precondition is not a reproduction).
using FailurePredicate = std::function<std::string(const core::SystemModel&)>;

/// make_invariant_predicate(seed, opts)(m) == check_invariants(m, seed,
/// opts).failed_check, with throws mapped to "".
FailurePredicate make_invariant_predicate(std::uint64_t seed,
                                          const InvariantOptions& opts);

}  // namespace catsched::testgen
