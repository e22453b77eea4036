#pragma once
/// \file interleaved_codesign.hpp
/// \brief Search over general interleaved schedules (the paper's Sec. VI
///        future work): local moves on the segment sequence -- grow/shrink
///        a burst, move a task into a new segment, swap segments -- driven
///        by the same expensive evaluation as the periodic search, with a
///        hill climb + tolerance acceptance rule.
///
/// Parallel/serial contract: with a ThreadPool each step's feasible
/// neighbor candidates are batch-evaluated through a chunked parallel_for
/// into index-addressed slots and reduced serially in neighbor order, and
/// every evaluation goes through the Evaluator's sharded compute-once
/// schedule memo — so the accepted path, best schedule, and the
/// distinct-evaluation count are bit-identical to the serial run (enforced
/// by test_interleaved_search). The pool is opt-in; the default (nullptr)
/// evaluates serially, exactly like core/codesign.

#include <optional>
#include <string>
#include <vector>

#include "core/anytime.hpp"
#include "core/evaluator.hpp"
#include "core/fault.hpp"
#include "core/run_budget.hpp"

namespace catsched::core {

/// Knobs of the interleaved local search.
struct InterleavedSearchOptions {
  double tolerance = 0.0;      ///< accept moves losing at most this much
  int max_steps = 60;          ///< accepted moves cap
  int max_segments = 8;        ///< segment-count cap (schedule complexity)
  int max_burst = 16;          ///< per-segment count cap
  std::size_t chunk = 0;       ///< parallel_for chunk size (0 = default);
                               ///< candidates have high cost variance
                               ///< (feasibility early-outs), so small
                               ///< chunks keep workers from starving
  /// Delta-aware neighbor evaluation: neighbors expressible as a one-task
  /// move or a block rotation (non-wrapping segment swaps) re-derive
  /// timing incrementally from the current schedule's pattern and reuse
  /// its per-app evaluations where the pattern is unchanged. Bit-identical
  /// to the from-scratch path (gtest-enforced); off = the pre-incremental
  /// behavior, kept for differential tests and benchmarking.
  bool incremental = true;

  /// Shared anytime/checkpoint knobs (see core/anytime.hpp). The snapshot
  /// stores every *published* evaluation as (canonical key, Pall,
  /// feasibility bits); an existing file is resumed from automatically:
  /// published entries are preloaded as lightweight overlay evaluations,
  /// so the replayed search fast-forwards through them and only re-runs
  /// the controller designs of schedules it actually accepts — converging
  /// to the bit-identical final result of an uninterrupted run (see
  /// tests/test_anytime.cpp). checkpoint_every here counts accepted steps
  /// between snapshots, not evaluations (hence the tighter default).
  AnytimeOptions anytime{nullptr, {}, 4, nullptr};
};

/// Outcome of the interleaved search.
struct InterleavedSearchResult {
  sched::InterleavedSchedule best;
  ScheduleEvaluation best_evaluation;
  bool found = false;
  int steps = 0;
  /// Distinct schedules in the published search state (see the
  /// evaluation-count naming scheme in opt/discrete_search.hpp).
  int unique_evaluations = 0;
  std::vector<std::string> path;  ///< accepted schedules, start first
  /// Anytime/checkpoint observability (defaults = nothing fired).
  RunTelemetry telemetry;
};

/// One neighbor candidate plus its delta descriptor (at most one is set):
///  * `move` iff the neighbor's task sequence is exactly the base sequence
///    with one task inserted/removed (grow/shrink/insert/remove moves; a
///    removal whose segment merge wraps around the period rotates the
///    sequence and gets no descriptor) — consumed by derive_timing_delta;
///  * `rotation` iff it is the base sequence with one contiguous block
///    left-rotated (non-wrapping segment swaps) — consumed by
///    derive_timing_rotation.
/// Either descriptor reproduces the from-scratch derivation bit-for-bit;
/// neighbors with neither (wrapping swaps) take the from-scratch path.
struct InterleavedNeighbor {
  sched::InterleavedSchedule schedule;
  std::optional<sched::TaskMove> move;
  std::optional<sched::BlockRotation> rotation;
};

/// All valid one-move neighbors of an interleaved schedule:
///  * increment / decrement one segment's count,
///  * remove a count-1 segment (merging newly adjacent same-app segments),
///  * insert a new count-1 segment of any app at any gap,
///  * swap two cyclically adjacent segments.
/// Only schedules passing InterleavedSchedule's own invariants are
/// returned; the segment/burst caps prune the move set.
std::vector<sched::InterleavedSchedule> interleaved_neighbors(
    const sched::InterleavedSchedule& schedule,
    const InterleavedSearchOptions& opts = {});

/// Same neighbors in the same order, each with its task-move descriptor
/// when delta-representable (the incremental search path consumes these).
std::vector<InterleavedNeighbor> interleaved_neighbor_moves(
    const sched::InterleavedSchedule& schedule,
    const InterleavedSearchOptions& opts = {});

/// Steepest-ascent local search from \p start over interleaved schedules,
/// evaluating through \p evaluator (idle-infeasible neighbors are skipped
/// before any controller design runs). With a \p pool, each step's
/// feasible neighbors are evaluated concurrently and reduced serially —
/// bit-identical results to the serial run (see the file header).
/// \throws std::invalid_argument if start is idle-infeasible.
InterleavedSearchResult interleaved_search(
    Evaluator& evaluator, const sched::InterleavedSchedule& start,
    const InterleavedSearchOptions& opts = {}, ThreadPool* pool = nullptr);

}  // namespace catsched::core
