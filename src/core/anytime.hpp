#pragma once
/// \file anytime.hpp
/// \brief The shared anytime-search vocabulary: every search engine that
///        supports cooperative budgets and checkpoint/resume embeds ONE
///        `AnytimeOptions` (instead of four hand-copied knobs) and reports
///        through ONE `RunTelemetry` (instead of four drifting result
///        fields). The semantics — budget quantization to round
///        boundaries, resume-by-replay through the EvalCache journal — are
///        defined by the one round loop every engine runs on
///        (opt::race_drivers); this header only pins the common shape so
///        drivers, benches and tools handle every engine uniformly.

#include <string>

#include "core/fault.hpp"
#include "core/run_budget.hpp"

namespace catsched::core {

/// Anytime/checkpoint knobs shared by every search engine (all off by
/// default — the legacy always-run-to-completion behavior). Embedded as a
/// trailing `anytime` member so the owning options struct keeps aggregate
/// positional initialization of its leading tuning fields.
struct AnytimeOptions {
  /// Cooperative budget, checked at step/block/round boundaries and at
  /// every pool chunk claim; a fired budget makes the search return
  /// best-so-far with the StopReason, never throw. Stop-flag and
  /// evaluation-cap trips are quantized to step boundaries, so a run
  /// cancelled after k steps is bit-identical to one capped at k (see
  /// run_budget.hpp). Null = no budget.
  RunBudget* budget = nullptr;
  /// Checkpoint file: empty = off. An existing file is resumed from
  /// automatically by the engines that own their cache (multistart,
  /// exhaustive, portfolio, interleaved), all through the EvalCache
  /// journal.
  std::string checkpoint_path;
  /// New completed evaluations between snapshots.
  int checkpoint_every = 16;
  FaultPlan* fault = nullptr;  ///< snapshot corruption hook (tests)
};

/// Anytime/checkpoint observability shared by every search result
/// (defaults = nothing fired, nothing resumed, nothing written).
struct RunTelemetry {
  /// completed, or which budget cut the run short (best-so-far is still
  /// reported by the owning result).
  StopReason stop = StopReason::completed;
  bool resumed = false;        ///< a checkpoint was loaded before searching
  bool used_fallback = false;  ///< the .prev snapshot served (primary damaged)
  int checkpoints_written = 0;  ///< snapshot files written by this run
};

}  // namespace catsched::core
