#pragma once
/// \file interleaved_codesign.hpp
/// \brief Search over general interleaved schedules (the paper's Sec. VI
///        future work): local moves on the segment sequence -- grow/shrink
///        a burst, move a task into a new segment, swap segments -- driven
///        by the same expensive evaluation as the periodic search, with a
///        hill climb + tolerance acceptance rule.
///
/// The walk is a SearchDriver (InterleavedDriver) over encoded schedules
/// (encode_interleaved), so it runs on the repo's one round loop,
/// opt::race_drivers: the serial propose/observe split, the union batch
/// evaluated through one EvalCache, the budget, the EvalCache journal as
/// checkpoint, and bit-identity at every thread count all come from there.
/// interleaved_search races one such driver alone.

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/anytime.hpp"
#include "core/evaluator.hpp"
#include "opt/search_driver.hpp"

namespace catsched::core {

/// Knobs of the interleaved local search.
struct InterleavedSearchOptions {
  double tolerance = 0.0;      ///< accept moves losing at most this much
  int max_steps = 60;          ///< accepted moves cap
  int max_segments = 8;        ///< segment-count cap (schedule complexity)
  int max_burst = 16;          ///< per-segment count cap

  /// Shared anytime/checkpoint knobs (see core/anytime.hpp), handed to
  /// opt::race_drivers verbatim: the checkpoint is the EvalCache journal of
  /// encoded schedules and an existing file is resumed from automatically.
  AnytimeOptions anytime;
};

/// Outcome of the interleaved search.
struct InterleavedSearchResult {
  sched::InterleavedSchedule best;
  ScheduleEvaluation best_evaluation;
  bool found = false;
  int steps = 0;
  /// Distinct schedules in the search's cache (see the evaluation-count
  /// naming scheme in opt/discrete_search.hpp).
  int unique_evaluations = 0;
  std::vector<std::string> path;  ///< accepted schedules, start first
  /// Anytime/checkpoint observability (defaults = nothing fired).
  RunTelemetry telemetry;
};

/// One neighbor candidate plus its delta descriptor (at most one is set):
///  * `move` iff the neighbor's task sequence is exactly the base sequence
///    with one task inserted/removed (grow/shrink/insert/remove moves; a
///    removal whose segment merge wraps around the period rotates the
///    sequence and gets no descriptor) — input of derive_timing_delta;
///  * `rotation` iff it is the base sequence with one contiguous block
///    left-rotated (non-wrapping segment swaps) — input of
///    derive_timing_rotation.
/// Either descriptor reproduces the from-scratch derivation bit-for-bit;
/// neighbors with neither (wrapping swaps) have no delta form.
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

/// Same neighbors in the same order, each with its delta descriptor when
/// delta-representable (the sched:: delta derivations consume these).
std::vector<InterleavedNeighbor> interleaved_neighbor_moves(
    const sched::InterleavedSchedule& schedule,
    const InterleavedSearchOptions& opts = {});

/// A schedule as a search point: its segments' (app, count) pairs,
/// flattened in segment order. The segment list is exactly what
/// to_string() prints, so equal points are equal schedules.
std::vector<int> encode_interleaved(const sched::InterleavedSchedule& s);

/// Inverse of encode_interleaved.
/// \throws std::invalid_argument on an odd length or an invalid schedule.
sched::InterleavedSchedule decode_interleaved(const std::vector<int>& point,
                                              std::size_t num_apps);

/// The opt::PointCheck of the interleaved space: points that
/// decode_interleaved accepts.
opt::PointCheck interleaved_point_check(std::size_t num_apps);

/// Adapters over encoded schedules, the interleaved counterparts of
/// core::make_objective / make_cheap_feasible: the full evaluation through
/// the evaluator's schedule memo, and the idle-time filter (eq. (4)).
opt::DiscreteObjective make_interleaved_objective(Evaluator& evaluator);
opt::CheapFeasible make_interleaved_cheap_feasible(const Evaluator& evaluator);

/// Steepest-ascent walk over interleaved schedules as a SearchDriver.
/// Round 0 evaluates the start. Every later round proposes the current
/// schedule's interleaved_neighbors that pass the idle filter. The driver
/// names no anchor: timing is derived from scratch either way, and the
/// hinted evaluation, which saves only a re-quantization and a design-memo
/// lookup per unchanged app, measured no faster on the population_search
/// workload. Observation takes the feasible neighbor of highest
/// Pall (strict >, neighbor order breaking ties) and stops instead when
/// there is none, when it loses more than opts.tolerance, or when it is
/// the current schedule without a gain; a move that gains nothing under a
/// zero tolerance is taken and then stops the walk. opts.max_steps caps
/// accepted moves. Only the start and accepted schedules feed
/// best-so-far. opts.anytime is ignored (the runner owns the budget).
class InterleavedDriver final : public opt::SearchDriver {
 public:
  /// \throws std::invalid_argument if \p cheap rejects the start.
  InterleavedDriver(std::string name, opt::CheapFeasible cheap,
                    const sched::InterleavedSchedule& start,
                    const InterleavedSearchOptions& opts);

  /// Accepted points, start first (empty until round 0 is observed).
  const std::vector<std::vector<int>>& path() const { return path_; }
  int steps() const { return steps_; }  ///< accepted moves
  std::size_t num_apps() const { return num_apps_; }

 protected:
  std::vector<std::vector<int>> propose() override;
  void observe(const std::vector<std::vector<int>>& points,
               const std::vector<const opt::EvalOutcome*>& outcomes) override;

 private:
  opt::CheapFeasible cheap_;
  InterleavedSearchOptions opts_;
  std::size_t num_apps_;
  std::vector<int> cur_;
  opt::EvalOutcome cur_out_;
  bool seeded_ = false;
  int steps_ = 0;
  std::vector<std::vector<int>> path_;
};

/// Steepest-ascent local search from \p start over interleaved schedules:
/// one InterleavedDriver raced alone through opt::race_drivers on a fresh
/// EvalCache over \p evaluator (idle-infeasible neighbors are filtered
/// before any controller design runs). With a \p pool each round's
/// neighbors are evaluated concurrently; the result is bit-identical to
/// the serial run. opts.anytime is the runner's: the budget is consulted
/// per round, the checkpoint path arms the cache's journal
/// (checkpoint_every counting evaluations) and resumes from an existing
/// file.
/// \throws std::invalid_argument if start is idle-infeasible.
InterleavedSearchResult interleaved_search(
    Evaluator& evaluator, const sched::InterleavedSchedule& start,
    const InterleavedSearchOptions& opts = {}, ThreadPool* pool = nullptr);

}  // namespace catsched::core
