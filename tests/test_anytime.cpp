// Pins the anytime/fault-tolerance contract of the Stage-2 searches:
//
//   * cooperative cancellation is step-quantized and deterministic — an
//     interleaved run cut short by an evaluation budget after k accepted
//     steps is bit-identical (best schedule, Pall bits, distinct
//     evaluation count, accepted path) to an uninterrupted max_steps = k
//     run, and cancelled runs reproduce themselves exactly;
//   * a fired budget returns best-so-far with a structured StopReason,
//     never throws, and a pre-fired budget returns before any evaluation;
//   * checkpoint/resume converges to the bit-identical final result of an
//     uninterrupted run for the hybrid multistart, the exhaustive
//     enumeration, and the interleaved search — including the evaluation
//     counters;
//   * a corrupted/truncated checkpoint is rejected by checksum/framing and
//     the .prev fallback still resumes to the identical result.
//
// The system under test is the reduced two-app DATE'18-style fixture the
// parallel-equivalence tests use, so every full search finishes in
// fractions of a second while exercising the real evaluation pipeline.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "cache/program.hpp"
#include "core/case_study.hpp"
#include "core/codesign.hpp"
#include "core/fault.hpp"
#include "core/interleaved_codesign.hpp"
#include "core/run_budget.hpp"
#include "core/snapshot.hpp"

namespace {

using namespace catsched;

core::SystemModel reduced_system() {
  core::SystemModel sys;
  sys.cache_config = core::date18_cache_config();
  const std::size_t sets = sys.cache_config.num_sets();

  auto make_app = [&](const char* name, std::size_t singles,
                      std::size_t groups, std::uint64_t base, double w0,
                      double weight) {
    core::Application a;
    a.name = name;
    cache::CalibratedLayout lay;
    lay.singleton_lines = singles;
    lay.conflict_group_sizes.assign(groups, 2);
    lay.extra_hit_fetches = 10;
    a.program = cache::make_calibrated_program(name, lay, sets, base);
    control::ContinuousLTI p;
    p.a = linalg::Matrix{{0.0, 1.0}, {-w0 * w0, -0.4 * w0}};
    p.b = linalg::Matrix{{0.0}, {3.0e6}};
    p.c = linalg::Matrix{{1.0, 0.0}};
    a.plant = p;
    a.weight = weight;
    a.smax = 25e-3;
    a.tidle = 9e-3;
    a.umax = 80.0;
    a.r = 1000.0;
    a.y0 = 0.0;
    return a;
  };
  sys.apps = {make_app("A", 100, 16, 0, 110.0, 0.6),
              make_app("B", 90, 22, 1024, 140.0, 0.4)};
  return sys;
}

control::DesignOptions fast_options() {
  control::DesignOptions o = core::date18_design_options();
  o.pso.particles = 10;
  o.pso.iterations = 12;
  o.pso.stall_iterations = 6;
  o.scale_budget_with_dims = false;
  return o;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Unique temp checkpoint path per test, cleaned up with its siblings.
class TempCheckpoint {
 public:
  explicit TempCheckpoint(const std::string& tag)
      : path_((std::filesystem::temp_directory_path() /
               ("catsched_anytime_" + tag + ".snap"))
                  .string()) {
    cleanup();
  }
  ~TempCheckpoint() { cleanup(); }
  const std::string& str() const { return path_; }

 private:
  void cleanup() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
    std::filesystem::remove(path_ + ".tmp", ec);
    std::filesystem::remove(path_ + ".prev", ec);
  }
  std::string path_;
};

const std::vector<std::vector<int>> kStarts{{1, 1}, {4, 4}, {1, 6}};

opt::HybridOptions hybrid_opts() {
  opt::HybridOptions o;
  o.max_value = 6;
  return o;
}

// ------------------------------------------------------------ RunBudget

TEST(RunBudget, EvaluationLimitLatchesWithReason) {
  core::RunBudget b;
  b.set_max_evaluations(3);
  EXPECT_FALSE(b.cancelled());
  b.note_evaluations(2);
  EXPECT_FALSE(b.cancelled());
  b.note_evaluations(1);
  EXPECT_TRUE(b.cancelled());
  EXPECT_EQ(b.reason(), core::StopReason::evaluation_limit);
  EXPECT_EQ(b.evaluations(), 3u);
}

TEST(RunBudget, StopRequestWinsOverOtherReasons) {
  core::RunBudget b;
  b.set_max_evaluations(1);
  b.request_stop();
  b.note_evaluations(5);
  EXPECT_TRUE(b.cancelled());
  EXPECT_EQ(b.reason(), core::StopReason::stop_requested);
}

TEST(RunBudget, ExpiredDeadlineCancels) {
  core::RunBudget b;
  b.set_deadline_after(0.0);
  EXPECT_TRUE(b.cancelled());
  EXPECT_EQ(b.reason(), core::StopReason::deadline_expired);
}

// -------------------------------------------- interleaved cancellation

TEST(AnytimeInterleaved, EvalLimitCutMatchesMaxStepsRun) {
  core::Evaluator ev(reduced_system(), fast_options());
  const auto start = sched::InterleavedSchedule::from_periodic(
      sched::PeriodicSchedule({1, 1}));

  // Cut the search at the first budget check after the first accepted
  // step: round 0 charges the start, round 1 at least one neighbor, and
  // the eval limit is only noted when a round completes, so the cut lands
  // exactly on a step boundary.
  core::RunBudget budget;
  budget.set_max_evaluations(2);
  core::InterleavedSearchOptions copts;
  copts.anytime.budget = &budget;
  const auto cut = core::interleaved_search(ev, start, copts);
  EXPECT_EQ(cut.telemetry.stop, core::StopReason::evaluation_limit);
  ASSERT_GE(cut.steps, 1);

  // An uninterrupted run capped at exactly that many accepted steps must
  // be bit-identical: same best schedule, same Pall bits, same distinct
  // evaluation count, same accepted path.
  core::Evaluator ev2(reduced_system(), fast_options());
  core::InterleavedSearchOptions kopts;
  kopts.max_steps = cut.steps;
  const auto capped = core::interleaved_search(ev2, start, kopts);
  EXPECT_EQ(capped.telemetry.stop, core::StopReason::completed);
  EXPECT_EQ(cut.best.to_string(), capped.best.to_string());
  EXPECT_EQ(bits(cut.best_evaluation.pall), bits(capped.best_evaluation.pall));
  EXPECT_EQ(cut.unique_evaluations, capped.unique_evaluations);
  EXPECT_EQ(cut.path, capped.path);
  EXPECT_EQ(cut.steps, capped.steps);
}

TEST(AnytimeInterleaved, PreFiredBudgetReturnsBeforeAnyEvaluation) {
  core::Evaluator ev(reduced_system(), fast_options());
  core::RunBudget budget;
  budget.request_stop();
  core::InterleavedSearchOptions opts;
  opts.anytime.budget = &budget;
  const auto res = core::interleaved_search(
      ev, sched::InterleavedSchedule::from_periodic(
              sched::PeriodicSchedule({1, 1})),
      opts);
  EXPECT_EQ(res.telemetry.stop, core::StopReason::stop_requested);
  EXPECT_FALSE(res.found);
  EXPECT_EQ(res.unique_evaluations, 0);
  EXPECT_EQ(res.steps, 0);
}

// ------------------------------------------------ hybrid cancellation

TEST(AnytimeHybrid, CancelledRunsAreReproducible) {
  // The starts race as lock-step lanes and the cap is checked per round,
  // so the cut lands on the same round at every thread count.
  auto run_once = [&](std::uint64_t max_evals, core::ThreadPool* pool) {
    core::Evaluator ev(reduced_system(), fast_options(), pool);
    core::RunBudget budget;
    budget.set_max_evaluations(max_evals);
    opt::HybridOptions o = hybrid_opts();
    o.anytime.budget = &budget;
    return core::find_optimal_schedule(ev, kStarts, o, pool);
  };
  const auto a = run_once(6, nullptr);
  const auto b = run_once(6, nullptr);
  EXPECT_EQ(a.search.telemetry.stop, core::StopReason::evaluation_limit);
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.schedules_evaluated, b.schedules_evaluated);
  if (a.found) {
    EXPECT_EQ(a.best_schedule.to_string(), b.best_schedule.to_string());
    EXPECT_EQ(bits(a.best_evaluation.pall), bits(b.best_evaluation.pall));
  }
  for (const std::size_t threads : {1u, 2u, 4u}) {
    core::ThreadPool pool(threads);
    const auto p = run_once(6, &pool);
    EXPECT_EQ(p.search.telemetry.stop, core::StopReason::evaluation_limit)
        << threads << " threads";
    EXPECT_EQ(p.found, a.found) << threads << " threads";
    EXPECT_EQ(p.schedules_evaluated, a.schedules_evaluated)
        << threads << " threads";
    if (a.found && p.found) {
      EXPECT_EQ(p.best_schedule.to_string(), a.best_schedule.to_string())
          << threads << " threads";
      EXPECT_EQ(bits(p.best_evaluation.pall), bits(a.best_evaluation.pall))
          << threads << " threads";
    }
  }
}

TEST(AnytimeHybrid, PreFiredBudgetReturnsImmediately) {
  core::Evaluator ev(reduced_system(), fast_options());
  core::RunBudget budget;
  budget.request_stop();
  opt::HybridOptions o = hybrid_opts();
  o.anytime.budget = &budget;
  const auto res = core::find_optimal_schedule(ev, kStarts, o);
  EXPECT_EQ(res.search.telemetry.stop, core::StopReason::stop_requested);
  EXPECT_FALSE(res.found);
  EXPECT_EQ(res.schedules_evaluated, 0);
}

// -------------------------------------------- checkpoint/resume pins

TEST(CheckpointResume, MultistartResumesBitIdentical) {
  TempCheckpoint ck("multistart");
  // Reference: uninterrupted, no checkpointing.
  core::Evaluator ref_ev(reduced_system(), fast_options());
  const auto ref = core::find_optimal_schedule(ref_ev, kStarts, hybrid_opts());
  ASSERT_TRUE(ref.found);

  // Interrupted run: evaluation budget fires mid-search, checkpoint every
  // completed evaluation.
  {
    core::Evaluator ev(reduced_system(), fast_options());
    core::RunBudget budget;
    budget.set_max_evaluations(8);
    opt::HybridOptions o = hybrid_opts();
    o.anytime.budget = &budget;
    o.anytime.checkpoint_path = ck.str();
    o.anytime.checkpoint_every = 1;
    const auto cut = core::find_optimal_schedule(ev, kStarts, o);
    EXPECT_EQ(cut.search.telemetry.stop, core::StopReason::evaluation_limit);
    EXPECT_GT(cut.search.telemetry.checkpoints_written, 0);
  }
  ASSERT_TRUE(core::snapshot_exists(ck.str()));

  // Resume: fresh evaluator, same starts, no budget. Replay fast-forwards
  // through the journal and the final result is bit-identical.
  core::Evaluator ev(reduced_system(), fast_options());
  opt::HybridOptions o = hybrid_opts();
  o.anytime.checkpoint_path = ck.str();
  const auto resumed = core::find_optimal_schedule(ev, kStarts, o);
  EXPECT_TRUE(resumed.search.telemetry.resumed);
  EXPECT_FALSE(resumed.search.telemetry.used_fallback);
  ASSERT_TRUE(resumed.found);
  EXPECT_EQ(ref.best_schedule.to_string(), resumed.best_schedule.to_string());
  EXPECT_EQ(bits(ref.best_evaluation.pall), bits(resumed.best_evaluation.pall));
  EXPECT_EQ(ref.schedules_evaluated, resumed.schedules_evaluated);
}

TEST(CheckpointResume, ExhaustiveResumesBitIdentical) {
  TempCheckpoint ck("exhaustive");
  core::Evaluator ref_ev(reduced_system(), fast_options());
  const auto ref = core::exhaustive_codesign(ref_ev, hybrid_opts());
  ASSERT_TRUE(ref.found);

  {
    // The evaluation-limit quantum of the exhaustive search is its
    // enumeration block, and this reduced region fits in a single block —
    // so interrupt it the way an operator would: an external stop request,
    // raised deterministically from the fault hook during the 9th
    // controller design. Everything evaluated before the stop is
    // journaled; the rest of the block is skipped at the next
    // cancellation check.
    core::RunBudget budget;
    core::FaultPlan fault;
    fault.fail_evaluation_at = 9;
    fault.on_evaluation_fault = [&budget] { budget.request_stop(); };
    core::EvaluatorOptions eopts;
    eopts.fault = &fault;
    core::Evaluator ev(reduced_system(), fast_options(), nullptr, eopts);
    opt::HybridOptions o = hybrid_opts();
    o.anytime.budget = &budget;
    o.anytime.checkpoint_path = ck.str();
    o.anytime.checkpoint_every = 1;
    const auto cut = core::exhaustive_codesign(ev, o);
    EXPECT_EQ(cut.details.telemetry.stop, core::StopReason::stop_requested);
    EXPECT_GT(cut.details.telemetry.checkpoints_written, 0);
  }

  core::Evaluator ev(reduced_system(), fast_options());
  opt::HybridOptions o = hybrid_opts();
  o.anytime.checkpoint_path = ck.str();
  const auto resumed = core::exhaustive_codesign(ev, o);
  EXPECT_TRUE(resumed.details.telemetry.resumed);
  ASSERT_TRUE(resumed.found);
  EXPECT_EQ(ref.best_schedule.to_string(), resumed.best_schedule.to_string());
  EXPECT_EQ(bits(ref.best_evaluation.pall), bits(resumed.best_evaluation.pall));
  EXPECT_EQ(ref.details.unique_evaluations,
            resumed.details.unique_evaluations);
}

TEST(CheckpointResume, InterleavedResumesBitIdentical) {
  TempCheckpoint ck("interleaved");
  const auto start = sched::InterleavedSchedule::from_periodic(
      sched::PeriodicSchedule({1, 1}));

  core::Evaluator ref_ev(reduced_system(), fast_options());
  const auto ref = core::interleaved_search(ref_ev, start, {});
  ASSERT_TRUE(ref.found);

  {
    core::Evaluator ev(reduced_system(), fast_options());
    core::RunBudget budget;
    budget.set_max_evaluations(1);
    core::InterleavedSearchOptions o;
    o.anytime.budget = &budget;
    o.anytime.checkpoint_path = ck.str();
    o.anytime.checkpoint_every = 1;
    const auto cut = core::interleaved_search(ev, start, o);
    EXPECT_EQ(cut.telemetry.stop, core::StopReason::evaluation_limit);
    EXPECT_GT(cut.telemetry.checkpoints_written, 0);
  }

  core::Evaluator ev(reduced_system(), fast_options());
  core::InterleavedSearchOptions o;
  o.anytime.checkpoint_path = ck.str();
  const auto resumed = core::interleaved_search(ev, start, o);
  EXPECT_TRUE(resumed.telemetry.resumed);
  ASSERT_TRUE(resumed.found);
  EXPECT_EQ(ref.best.to_string(), resumed.best.to_string());
  EXPECT_EQ(bits(ref.best_evaluation.pall), bits(resumed.best_evaluation.pall));
  EXPECT_EQ(ref.unique_evaluations, resumed.unique_evaluations);
  EXPECT_EQ(ref.path, resumed.path);
}

/// The code of the SnapshotError \p run throws (fails if it throws none).
template <typename Run>
core::SnapshotErrc snapshot_error_of(Run run) {
  try {
    run();
  } catch (const core::SnapshotError& e) {
    return e.code();
  }
  ADD_FAILURE() << "no SnapshotError thrown";
  return core::SnapshotErrc::io_error;
}

TEST(CheckpointResume, CheckpointOfOtherSearchSpaceIsRefused) {
  // Periodic and interleaved searches share one payload kind; the point
  // check of the resuming search tells their tables apart.
  const auto start = sched::InterleavedSchedule::from_periodic(
      sched::PeriodicSchedule({1, 1}));
  {
    TempCheckpoint ck("interleaved_to_hybrid");
    core::Evaluator ev(reduced_system(), fast_options());
    core::RunBudget budget;
    budget.set_max_evaluations(1);
    core::InterleavedSearchOptions o;
    o.anytime.budget = &budget;
    o.anytime.checkpoint_path = ck.str();
    core::interleaved_search(ev, start, o);
    ASSERT_TRUE(core::snapshot_exists(ck.str()));

    core::Evaluator ev2(reduced_system(), fast_options());
    opt::HybridOptions h = hybrid_opts();
    h.anytime.checkpoint_path = ck.str();
    EXPECT_EQ(snapshot_error_of(
                  [&] { core::find_optimal_schedule(ev2, kStarts, h); }),
              core::SnapshotErrc::bad_kind);
    EXPECT_EQ(ev2.schedule_evaluations(), 0);
  }
  {
    TempCheckpoint ck("hybrid_to_interleaved");
    core::Evaluator ev(reduced_system(), fast_options());
    core::RunBudget budget;
    budget.set_max_evaluations(1);
    opt::HybridOptions h = hybrid_opts();
    h.anytime.budget = &budget;
    h.anytime.checkpoint_path = ck.str();
    core::find_optimal_schedule(ev, kStarts, h);
    ASSERT_TRUE(core::snapshot_exists(ck.str()));

    core::Evaluator ev2(reduced_system(), fast_options());
    core::InterleavedSearchOptions o;
    o.anytime.checkpoint_path = ck.str();
    EXPECT_EQ(snapshot_error_of(
                  [&] { core::interleaved_search(ev2, start, o); }),
              core::SnapshotErrc::bad_kind);
    EXPECT_EQ(ev2.schedule_evaluations(), 0);
  }
}

TEST(CheckpointResume, CorruptedCheckpointFallsBackToPrevAndConverges) {
  TempCheckpoint ck("corrupt");
  core::Evaluator ref_ev(reduced_system(), fast_options());
  const auto ref = core::find_optimal_schedule(ref_ev, kStarts, hybrid_opts());

  // Interrupted run writing a checkpoint per evaluation (so a .prev
  // rotation image exists), then damage the primary the way a torn write
  // would: truncate it mid-payload.
  {
    core::Evaluator ev(reduced_system(), fast_options());
    core::RunBudget budget;
    budget.set_max_evaluations(8);
    opt::HybridOptions o = hybrid_opts();
    o.anytime.budget = &budget;
    o.anytime.checkpoint_path = ck.str();
    o.anytime.checkpoint_every = 1;
    const auto cut = core::find_optimal_schedule(ev, kStarts, o);
    ASSERT_GE(cut.search.telemetry.checkpoints_written, 2);
  }
  ASSERT_TRUE(std::filesystem::exists(ck.str() + ".prev"));
  const auto size = std::filesystem::file_size(ck.str());
  std::filesystem::resize_file(ck.str(), size / 2);

  core::Evaluator ev(reduced_system(), fast_options());
  opt::HybridOptions o = hybrid_opts();
  o.anytime.checkpoint_path = ck.str();
  const auto resumed = core::find_optimal_schedule(ev, kStarts, o);
  EXPECT_TRUE(resumed.search.telemetry.resumed);
  EXPECT_TRUE(resumed.search.telemetry.used_fallback);
  ASSERT_TRUE(resumed.found);
  EXPECT_EQ(ref.best_schedule.to_string(), resumed.best_schedule.to_string());
  EXPECT_EQ(bits(ref.best_evaluation.pall), bits(resumed.best_evaluation.pall));
  EXPECT_EQ(ref.schedules_evaluated, resumed.schedules_evaluated);
}

TEST(CheckpointResume, FaultPlanCorruptionIsDetectedOnResume) {
  TempCheckpoint ck("faultcorrupt");
  const auto start = sched::InterleavedSchedule::from_periodic(
      sched::PeriodicSchedule({1, 1}));

  core::Evaluator ref_ev(reduced_system(), fast_options());
  const auto ref = core::interleaved_search(ref_ev, start, {});

  // Full run whose *last* snapshot write is corrupted through the fault
  // hook: the primary image on disk fails its checksum, the rotated .prev
  // is intact.
  int total_writes = 0;
  {
    core::Evaluator ev(reduced_system(), fast_options());
    core::InterleavedSearchOptions o;
    o.anytime.checkpoint_path = ck.str();
    o.anytime.checkpoint_every = 1;
    const auto full = core::interleaved_search(ev, start, o);
    total_writes = full.telemetry.checkpoints_written;
    ASSERT_GE(total_writes, 2);
  }
  std::filesystem::remove(ck.str());
  std::filesystem::remove(ck.str() + ".prev");
  {
    core::Evaluator ev(reduced_system(), fast_options());
    core::FaultPlan fault;
    fault.corrupt_snapshot_at = static_cast<std::uint64_t>(total_writes);
    core::InterleavedSearchOptions o;
    o.anytime.checkpoint_path = ck.str();
    o.anytime.checkpoint_every = 1;
    o.anytime.fault = &fault;
    core::interleaved_search(ev, start, o);
  }

  core::Evaluator ev(reduced_system(), fast_options());
  core::InterleavedSearchOptions o;
  o.anytime.checkpoint_path = ck.str();
  const auto resumed = core::interleaved_search(ev, start, o);
  EXPECT_TRUE(resumed.telemetry.resumed);
  EXPECT_TRUE(resumed.telemetry.used_fallback);
  EXPECT_EQ(ref.best.to_string(), resumed.best.to_string());
  EXPECT_EQ(bits(ref.best_evaluation.pall), bits(resumed.best_evaluation.pall));
  EXPECT_EQ(ref.unique_evaluations, resumed.unique_evaluations);
}

}  // namespace
