// Dev tool: anytime/fault-tolerant search driver — the harness behind the
// kill-and-resume CI smoke and a manual playground for the robustness
// layer. Runs one Stage-2 search (hybrid multistart, exhaustive, or
// interleaved) on a reduced two-app system with checkpointing, budgets and
// fault injection on the command line:
//
//   search_server --search hybrid --checkpoint /tmp/ck.snap
//   search_server --search interleaved --checkpoint ck.snap --crash-at-eval 7
//   search_server --search exhaustive --max-seconds 0.5
//
// The final RESULT line is machine-parseable and prints Pall as the raw
// IEEE-754 bit pattern, so tools/kill_resume_smoke.sh can assert that a
// crashed-and-resumed run converges bit-identically to an uninterrupted
// one. --crash-at-eval N simulates a hard death (std::_Exit(137), no
// destructors, no flushes) in the middle of the Nth controller design;
// --corrupt-at-save N damages the Nth checkpoint write to exercise the
// checksum-reject + .prev-fallback path. A malformed numeric flag value
// (negative, non-numeric, trailing characters, out of range) prints the
// usage and exits with status 2; a checkpoint that cannot be resumed
// (both images damaged, or written by another search) exits with status 1.
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <bit>
#include <optional>
#include <string>
#include <vector>

#include "cache/program.hpp"
#include "core/case_study.hpp"
#include "core/codesign.hpp"
#include "core/fault.hpp"
#include "core/interleaved_codesign.hpp"
#include "core/run_budget.hpp"
#include "core/snapshot.hpp"
#include "flag_parse.hpp"

using namespace catsched;

namespace {

/// Reduced two-app system in the spirit of the DATE'18 case study (same
/// cache, smaller programs, cheap deterministic design budget) — the same
/// recipe the parallel-equivalence tests use, so a full search finishes in
/// seconds while still exercising the whole pipeline.
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

struct Args {
  std::string search = "hybrid";  // hybrid | exhaustive | interleaved
  std::string checkpoint;         // empty = no checkpointing
  int checkpoint_every = 1;       // aggressive: smoke wants frequent saves
  double max_seconds = 0.0;       // 0 = no deadline
  std::uint64_t max_evals = 0;    // 0 = no cap
  std::uint64_t crash_at_eval = 0;
  std::uint64_t corrupt_at_save = 0;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--search hybrid|exhaustive|interleaved]\n"
      "          [--checkpoint PATH] [--checkpoint-every N]\n"
      "          [--max-seconds S] [--max-evals N]\n"
      "          [--crash-at-eval N] [--corrupt-at-save N]\n",
      argv0);
  std::exit(2);
}

std::uint64_t parse_count(const char* text, const char* argv0) {
  const std::optional<std::uint64_t> v = tools::parse_count(text);
  if (!v) usage(argv0);
  return *v;
}

double parse_seconds(const char* text, const char* argv0) {
  const std::optional<double> v = tools::parse_seconds(text);
  if (!v) usage(argv0);
  return *v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--search") {
      a.search = value();
    } else if (arg == "--checkpoint") {
      a.checkpoint = value();
    } else if (arg == "--checkpoint-every") {
      const std::uint64_t every = parse_count(value(), argv[0]);
      if (every < 1 || every > INT_MAX) usage(argv[0]);
      a.checkpoint_every = static_cast<int>(every);
    } else if (arg == "--max-seconds") {
      a.max_seconds = parse_seconds(value(), argv[0]);
    } else if (arg == "--max-evals") {
      a.max_evals = parse_count(value(), argv[0]);
    } else if (arg == "--crash-at-eval") {
      a.crash_at_eval = parse_count(value(), argv[0]);
    } else if (arg == "--corrupt-at-save") {
      a.corrupt_at_save = parse_count(value(), argv[0]);
    } else {
      usage(argv[0]);
    }
  }
  if (a.search != "hybrid" && a.search != "exhaustive" &&
      a.search != "interleaved") {
    usage(argv[0]);
  }
  return a;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void print_result(const Args& args, const std::string& best, double pall,
                  bool found, int evaluations, core::StopReason stop,
                  bool resumed, bool used_fallback, int checkpoints) {
  std::printf("RESULT search=%s found=%d best=%s pall=%016llx evals=%d "
              "stop=%s resumed=%d fallback=%d checkpoints=%d\n",
              args.search.c_str(), found ? 1 : 0, best.c_str(),
              static_cast<unsigned long long>(bits(pall)), evaluations,
              core::to_string(stop), resumed ? 1 : 0, used_fallback ? 1 : 0,
              checkpoints);
}

int run_search(const Args& args) {
  core::RunBudget budget;
  if (args.max_seconds > 0.0) budget.set_deadline_after(args.max_seconds);
  if (args.max_evals > 0) budget.set_max_evaluations(args.max_evals);

  core::FaultPlan fault;
  fault.corrupt_snapshot_at = args.corrupt_at_save;
  if (args.crash_at_eval > 0) {
    fault.fail_evaluation_at = args.crash_at_eval;
    // Simulated hard crash: no destructors, no stream flushes, no pending
    // checkpoint rename completes — exactly what kill -9 mid-run leaves.
    fault.on_evaluation_fault = [] { std::_Exit(137); };
  }

  core::EvaluatorOptions eopts;
  eopts.fault = args.crash_at_eval > 0 ? &fault : nullptr;
  core::Evaluator ev(reduced_system(), fast_options(), nullptr, eopts);

  if (args.search == "interleaved") {
    core::InterleavedSearchOptions iopts;
    iopts.max_segments = 4;
    iopts.max_burst = 4;
    iopts.anytime.budget = &budget;
    iopts.anytime.checkpoint_path = args.checkpoint;
    iopts.anytime.checkpoint_every = args.checkpoint_every;
    iopts.anytime.fault = args.corrupt_at_save > 0 ? &fault : nullptr;
    const auto start = sched::InterleavedSchedule::from_periodic(
        sched::PeriodicSchedule({1, 1}));
    const auto res = core::interleaved_search(ev, start, iopts);
    print_result(args, res.found ? res.best.to_string() : "-",
                 res.best_evaluation.pall, res.found, res.unique_evaluations,
                 res.telemetry.stop, res.telemetry.resumed, res.telemetry.used_fallback,
                 res.telemetry.checkpoints_written);
    return 0;
  }

  opt::HybridOptions hopts;
  hopts.max_value = 6;
  hopts.anytime.budget = &budget;
  hopts.anytime.checkpoint_path = args.checkpoint;
  hopts.anytime.checkpoint_every = args.checkpoint_every;
  hopts.anytime.fault = args.corrupt_at_save > 0 ? &fault : nullptr;

  if (args.search == "exhaustive") {
    const auto res = core::exhaustive_codesign(ev, hopts);
    print_result(args, res.found ? res.best_schedule.to_string() : "-",
                 res.best_evaluation.pall, res.found,
                 res.details.unique_evaluations, res.details.telemetry.stop,
                 res.details.telemetry.resumed, res.details.telemetry.used_fallback,
                 res.details.telemetry.checkpoints_written);
    return 0;
  }

  const auto res =
      core::find_optimal_schedule(ev, {{1, 1}, {4, 4}, {1, 6}}, hopts);
  print_result(args, res.found ? res.best_schedule.to_string() : "-",
               res.best_evaluation.pall, res.found, res.schedules_evaluated,
               res.search.telemetry.stop, res.search.telemetry.resumed, res.search.telemetry.used_fallback,
               res.search.telemetry.checkpoints_written);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run_search(args);
  } catch (const core::SnapshotError& e) {
    // Both checkpoint images damaged, or written by another search.
    std::fprintf(stderr, "%s: checkpoint refused (%s): %s\n", argv[0],
                 core::to_string(e.code()), e.what());
    return 1;
  }
}
