#pragma once
/// \file discrete_search.hpp
/// \brief Schedule-space search (paper Sec. IV): the hybrid algorithm
///        (per-dimension 1-D quadratic models -> discrete gradient, step
///        size 1, simulated-annealing-style tolerance, multi-start with a
///        shared memo) and the exhaustive baseline over the idle-feasible
///        region.

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/anytime.hpp"
#include "core/fault.hpp"
#include "core/parallel.hpp"
#include "core/run_budget.hpp"

namespace catsched::opt {

// Evaluation-count naming scheme (shared by every search result in this
// repo — discrete, exhaustive, interleaved, portfolio):
//   * `new_evaluations`    — unique evaluations THIS run added, i.e. memo
//                            misses it won (the per-run cost split; sums
//                            over concurrent runs to the shared total).
//   * `unique_evaluations` — distinct points in the shared cache/search
//                            state at return (the paper's "evaluated
//                            schedules" accounting: a point costs once,
//                            however many runs or threads touch it).

/// Outcome of one (expensive) objective evaluation at an integer point.
struct EvalOutcome {
  double value = 0.0;    ///< overall control performance Pall (maximized)
  bool feasible = false; ///< control feasibility, paper eq. (3): all Pi >= 0
};

/// Expensive objective over integer decision vectors (m1..mn), maximized.
using DiscreteObjective = std::function<EvalOutcome(const std::vector<int>&)>;

/// Optional anchored objective: evaluate `point` as a neighbor of `base`
/// (the driver's anchor — any point, not only a +-1 move). MUST return a
/// result bit-identical to the plain objective on `point` — the memo
/// stores whichever path computed a point first, so any divergence would
/// leak across runs. core::make_neighbor_objective hints the evaluator
/// with the base's evaluation, which is bit-identical for any base.
using NeighborObjective = std::function<EvalOutcome(
    const std::vector<int>& base, const std::vector<int>& point)>;

/// Cheap pre-filter known before any control evaluation (paper eq. (4),
/// the idle-time constraint). Must be a pure function of the point. It
/// need NOT be downward-closed: raising m_i from 1 to 2 swaps app i's
/// idle-gap task from the cold to the warm WCET and can turn an
/// infeasible point feasible ((2,6,1) is infeasible but (2,6,2) feasible
/// in the DATE'18 case study). What the searches rely on is the weaker
/// property that raising a coordinate that is already >= 2 never turns an
/// infeasible point feasible (the app's own h_max is then constant while
/// every other app's grows); enumerate_feasible's growing scan stops on it.
using CheapFeasible = std::function<bool(const std::vector<int>&)>;

/// The persistable form of a cache: every completed (point, outcome)
/// pair. This is what a checkpoint stores and what a resumed run preloads
/// — the searches themselves replay deterministically through it.
using EvaluationTable = std::vector<std::pair<std::vector<int>, EvalOutcome>>;

/// Shape test for a point of one search space (e.g. "has num_apps
/// coordinates"). A checkpoint is input from outside the program; this is
/// how a resume tells a file written by a search over another space.
using PointCheck = std::function<bool(const std::vector<int>&)>;

/// The PointCheck of a space of \p dims coordinates (the periodic
/// schedules: one burst length per application).
PointCheck has_dims(std::size_t dims);

/// Serialize an evaluation table as a snapshot payload (values travel as
/// IEEE-754 bit patterns — bit-exact round trip) / parse one back.
/// \throws core::SnapshotError (truncated) on a damaged payload.
std::vector<std::uint8_t> encode_evaluation_table(const EvaluationTable& table);
EvaluationTable decode_evaluation_table(
    const std::vector<std::uint8_t>& payload);

/// Memoized evaluation cache shared between searches so that the
/// "evaluated schedules" count matches the paper's accounting (a schedule
/// costs only once, even across parallel searches).
///
/// Thread-safe: concurrent evaluate_batch() calls on the same point run
/// the objective exactly once (compute-once memo); the objective itself
/// must tolerate concurrent calls on *distinct* points.
///
/// Checkpointing: with enable_checkpoints(), the cache journals every
/// completed evaluation and snapshots the journal to disk each time it has
/// grown by `every` entries (mutex-serialized, so parallel searches over a
/// shared cache need no coordination). Because every search replays
/// deterministically through the memo, "resume" is simply: preload the
/// journal from the last snapshot and rerun — the search fast-forwards
/// through memo hits to exactly where it died, then continues, converging
/// to the bit-identical final result (see tests/test_anytime.cpp).
class EvalCache {
public:
  /// With a non-null \p neighbor objective, batch slots that carry a base
  /// point route memo misses through it (the anchored path); results
  /// must be bit-identical to \p objective (see NeighborObjective).
  /// A non-null \p fits vets every point a resumed checkpoint holds
  /// (see try_resume).
  explicit EvalCache(DiscreteObjective objective,
                     NeighborObjective neighbor = nullptr,
                     PointCheck fits = nullptr)
      : objective_(std::move(objective)),
        neighbor_(std::move(neighbor)),
        fits_(std::move(fits)) {}

  /// One slot of a batch evaluation.
  struct BatchSlot {
    /// Valid for the cache's lifetime; null when the budget skipped it.
    const EvalOutcome* outcome = nullptr;
    bool missed = false;  ///< this slot ran the objective (a memo miss)
  };

  /// Batch objective API: evaluate every point concurrently on \p pool —
  /// serially when pool is null — and return one slot per point, in input
  /// order. Points are taken by pointer so callers batch without copying
  /// their candidate vectors. \p bases holds one entry per point: a
  /// non-null base marks that point as its neighbor (an anchored miss).
  /// A point repeated in the batch is computed once and only the slot
  /// that computed it reports `missed` — the per-caller cost accounting.
  /// A non-null \p budget short-circuits the batch at chunk granularity
  /// once it fires; skipped slots stay null — callers must treat the
  /// whole batch as discarded (the anytime searches do).
  /// \throws std::invalid_argument if bases and points differ in size.
  std::vector<BatchSlot> evaluate_batch(
      const std::vector<const std::vector<int>*>& points,
      const std::vector<const std::vector<int>*>& bases,
      core::ThreadPool* pool, const core::RunBudget* budget = nullptr);

  /// Distinct points evaluated so far (includes preloaded entries).
  int unique_evaluations() const {
    return static_cast<int>(cache_.size());
  }

  /// Arm automatic checkpointing to \p path: a snapshot is written each
  /// time the journal has grown by \p every completed evaluations (and on
  /// save_checkpoint()). \p fault, when armed, corrupts the Nth write —
  /// the fault-injection tests drive the recovery path with it. Call
  /// before the search starts; enabling twice keeps the first config.
  void enable_checkpoints(std::string path, int every,
                          core::FaultPlan* fault = nullptr);

  /// Load \p path (or its .prev fallback) and preload the table. Returns
  /// false when no checkpoint exists yet; rethrows core::SnapshotError
  /// when both the primary and the fallback are damaged, and throws
  /// core::SnapshotError (bad_kind) without preloading anything when the
  /// cache's \p fits check rejects a loaded point — the file belongs to a
  /// search over another space.
  bool try_resume(bool* used_fallback = nullptr);

  /// Insert already-known outcomes (a loaded checkpoint, a peer's table).
  /// Points already present keep their value; new ones enter the journal.
  void preload(const EvaluationTable& table);

  /// Unconditional snapshot of the journal (no-op when checkpointing is
  /// off or nothing changed since the last write). The searches call this
  /// on exit so the final state is always on disk.
  void save_checkpoint();

  /// Snapshot files written so far (observability for tests/benches).
  int checkpoints_written() const;

private:
  /// Memo lookup of \p p, computed through \p base's neighbor path when
  /// one is given; \p missed reports whether THIS call ran the objective.
  const EvalOutcome& evaluate_one(const std::vector<int>* base,
                                  const std::vector<int>& p, bool& missed);
  /// Journal a completed evaluation; auto-saves when the cadence is due.
  void record(const std::vector<int>& p, const EvalOutcome& out);
  void save_locked();  ///< requires journal_mu_ held

  DiscreteObjective objective_;
  NeighborObjective neighbor_;
  PointCheck fits_;
  core::ConcurrentMemoMap<std::vector<int>, EvalOutcome, core::VectorHash>
      cache_;
  /// Completed evaluations only, appended after the objective returned —
  /// never mid-compute, so a dump/save can run concurrently with a batch.
  mutable std::mutex journal_mu_;
  EvaluationTable journal_;
  std::string path_;
  int every_ = 0;
  core::FaultPlan* fault_ = nullptr;
  std::size_t last_saved_ = 0;  ///< journal size at the last write
  int writes_ = 0;
};

/// Hybrid search tuning.
struct HybridOptions {
  /// Accept a move that worsens the objective by at most this amount
  /// (the simulated-annealing feature of Sec. IV; 0 = plain hill climb).
  double tolerance = 0.0;
  int max_steps = 200;     ///< safety cap on accepted moves
  int min_value = 1;       ///< lower bound per dimension (mi in N+)
  int max_value = 64;      ///< safety upper bound per dimension

  /// Shared anytime/checkpoint knobs (see core/anytime.hpp for the
  /// budget-quantization and resume-by-replay contracts).
  core::AnytimeOptions anytime;
};

/// Result of one hybrid search run (or of a multi-start combination).
struct HybridResult {
  std::vector<int> best;       ///< best feasible point found
  double best_value = 0.0;
  bool found_feasible = false;
  int steps = 0;                       ///< accepted moves
  int new_evaluations = 0;             ///< memo misses this run won
  std::vector<std::vector<int>> path;  ///< accepted points, start first
  /// Anytime observability; only `stop` is meaningful for a single run
  /// (checkpointing lives on the multi-start's shared cache).
  core::RunTelemetry telemetry;
};

/// Multi-start driver: runs the hybrid walk from every start against one
/// shared cache and combines the best feasible outcome.
struct MultiStartResult {
  HybridResult combined;
  std::vector<HybridResult> runs;
  int unique_evaluations = 0;  ///< distinct points in the shared cache
  /// Anytime/checkpoint observability (defaults = nothing fired).
  core::RunTelemetry telemetry;
};

/// The starts race as lock-step hybrid lanes through opt::race_drivers on
/// one internal cache: each round evaluates the union of every live
/// lane's neighborhood in one batch (on \p pool when given), so results
/// are bit-identical at every thread count — paths, bests, the unique
/// evaluation total and the per-run `new_evaluations` split alike. A
/// point costs the first lane, in start order, that proposed it in the
/// round it was first evaluated; the split sums to unique_evaluations
/// (minus preloaded points on a resume). `combined` is the best run in
/// start order (strict >). opts.anytime is the runner's: the budget is
/// consulted per round, the checkpoint path arms the cache and resumes
/// from an existing file.
/// \throws std::invalid_argument if any start is empty, out of bounds,
///         or cheap-infeasible.
MultiStartResult hybrid_search_multistart(
    const DiscreteObjective& objective, const CheapFeasible& cheap,
    const std::vector<std::vector<int>>& starts, const HybridOptions& opts,
    core::ThreadPool* pool = nullptr,
    const NeighborObjective& neighbor = nullptr);

/// Exhaustive enumeration of the cheap-feasible region (see CheapFeasible
/// for its shape).
struct ExhaustiveResult {
  std::vector<int> best;
  double best_value = 0.0;
  bool found_feasible = false;
  int enumerated = 0;        ///< points evaluated (the paper's "76 schedules")
  int control_feasible = 0;  ///< of those, how many satisfied eq. (3)
  std::vector<std::pair<std::vector<int>, EvalOutcome>> all;  ///< full table
  /// Anytime/checkpoint observability. On a cut-short run, `all`,
  /// `enumerated` and best-so-far cover exactly the blocks reduced before
  /// the budget fired — a bit-identical prefix of the full run's table.
  core::RunTelemetry telemetry;
  int unique_evaluations = 0;  ///< distinct points in the cache at return
};

/// Enumerate and evaluate every cheap-feasible point with dimensions
/// \p dims, each value in [min_value, max_value]. With a \p pool the
/// enumerated region is fanned across the workers and reduced serially in
/// enumeration order, so the result (including the full `all` table) is
/// bit-identical to the serial run. The region is raced as 256-point
/// blocks, one per round, through the portfolio's round loop
/// (opt::race_drivers) on an internal EvalCache: opts.anytime.budget is
/// consulted between blocks (and at pool chunk claims within one),
/// opts.anytime.checkpoint_path arms table snapshots on that cache and
/// resumes from an existing file.
/// \throws std::invalid_argument if dims == 0.
ExhaustiveResult exhaustive_search(const DiscreteObjective& objective,
                                   const CheapFeasible& cheap,
                                   std::size_t dims,
                                   const HybridOptions& opts,
                                   core::ThreadPool* pool = nullptr);

/// Just the cheap-feasible region (no expensive evaluations), e.g. to count
/// candidate schedules.
std::vector<std::vector<int>> enumerate_feasible(const CheapFeasible& cheap,
                                                 std::size_t dims,
                                                 const HybridOptions& opts);

}  // namespace catsched::opt
