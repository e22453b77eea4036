#pragma once
/// \file layers.hpp
/// \brief Per-layer measurement for the traced run. Every figure comes from
///        timing calls into a module's public functions from the
///        benchmark's own code — the library carries no instrumentation:
///          * counters the library already exposes (Evaluator, analyzer,
///            search results) are read after the traced pass;
///          * the cache, sched and control layers are replayed serially on
///            the inputs and schedules the traced pass produced, one span
///            per call, and every replayed result is checked against what
///            the run itself computed.

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "control/design.hpp"
#include "core/evaluator.hpp"
#include "core/interleaved_codesign.hpp"
#include "harness.hpp"

namespace perfbench {

/// Cache layer on one system: analyze_wcets, the steady analysis of every
/// app as the context analyzer sees it, and the first analyze_context of
/// every (app, mask). Each context is re-derived from the public entry-state
/// functions with one StaticAnalysisMemo per app (the memo hit ratio) and
/// must match the analyzer's bound and sit in [warm, cold].
void replay_cache(const core::SystemModel& model, Tracer& tracer, int request,
                  std::vector<std::string>& failures);

/// Sched layer over the neighbor sets of \p path: every neighbor is derived
/// from scratch, and by the one-task delta or the block rotation when it
/// has that descriptor (both must equal the scratch derivation).
/// \p idle_ok is the workload's idle pre-filter.
void replay_sched(
    const std::vector<sched::AppWcet>& wcets,
    const std::function<bool(const sched::InterleavedSchedule&)>& idle_ok,
    const std::vector<sched::InterleavedSchedule>& path,
    const core::InterleavedSearchOptions& iopts, Tracer& tracer, int request,
    std::vector<std::string>& failures);

/// One design problem a run solved: the spec, the intervals its schedule's
/// timing derivation produced, and the design options.
struct CapturedDesign {
  control::DesignProblem problem;
  control::DesignOptions options;
};

/// The design problems behind \p schedules, read back from the evaluator's
/// schedule memo (each schedule must already have been evaluated).
std::vector<CapturedDesign> capture_designs(
    core::Evaluator& evaluator, const control::DesignOptions& options,
    const std::vector<sched::InterleavedSchedule>& schedules);

/// Control layer: re-run each captured design serially, then time
/// evaluate_gains (one PSO particle) and discretize_phases (c2d) on the
/// same problem. The run's own designs are not compared bit for bit: the
/// evaluator's design memo is keyed on intervals quantized to 1 ps, so the
/// run may have reused a design made for intervals within 1 ps of these.
void replay_control(const std::vector<CapturedDesign>& designs,
                    Tracer& tracer, int request);

/// Core layer counters of one evaluator after its search.
void record_evaluator(const core::Evaluator& evaluator, Tracer& tracer);

/// Opt layer figures of one probed search phase.
void record_probe(const ObjectiveProbe& probe, Tracer& tracer);

/// Every per-layer metric, from the tracer's samples and counters. Layers
/// a workload does not exercise report 0.
std::map<std::string, double> layer_metrics(const Tracer& tracer,
                                            std::size_t participants);

}  // namespace perfbench
