// Property-based invariant fuzzer over generated co-design systems.
//
// Sweeps seeds through src/testgen: each seed becomes one generated
// SystemModel (testgen/generator) whose full invariant surface is
// re-checked (testgen/invariants) — WCET ordering/monotonicity, concrete
// replay bounds, timing-derivation identities, evaluator delta/memo
// contracts, and (on a stride of seeds) the serial-vs-parallel
// bit-identity of every search engine. A failure prints the offending
// seed, shrinks the system (testgen/shrink), and exits nonzero; the
// summary aggregates, over the seeds that completed, where context WCETs,
// interleaving and first-miss analysis actually pay across the sweep.
//
// Usage:
//   fuzz_invariants [--seeds N] [--start S] [--search-stride K]
//                   [--no-search] [--summary FILE] [--fast]
//                   [--max-seconds S] [--inject-failure]
//                   [--inject-eval-fault] [--seed X]
//
//   --seeds N          sweep N >= 1 consecutive seeds (default 100)
//   --start S          first seed of the sweep (default 1)
//   --search-stride K  run the expensive search-identity tier on every
//                      K-th seed (default 8; 1 = every seed)
//   --no-search        skip the search tier entirely
//   --summary FILE     additionally write the sweep summary to FILE
//   --fast             bounded PR-matrix run: 8 seeds, stride 4
//   --max-seconds S    wall-clock budget (core::RunBudget deadline,
//                      checked between seeds): the sweep stops cleanly at
//                      the deadline, reports how many seeds completed and
//                      the StopReason, and exits 0 — an interrupted sweep
//                      is a valid (anytime) sweep; 0 = no budget
//   --inject-failure   self-test: assert a deliberately false invariant,
//                      proving the failure path (seed print + shrink) works
//   --inject-eval-fault  self-test: inject a controller-design fault
//                      (core::FaultPlan) into a pooled evaluation, proving
//                      the fault propagates as FaultInjected and the memo
//                      entry stays retryable (the retried run succeeds)
//   --seed X           replay one seed: generate twice, compare
//                      fingerprints, run the full invariant surface
//                      (searches included), print the report
//
// A malformed numeric value (negative, non-numeric, trailing characters,
// out of range, or --seeds 0) exits with status 2.

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "core/codesign.hpp"
#include "core/fault.hpp"
#include "core/run_budget.hpp"
#include "testgen/generator.hpp"
#include "testgen/invariants.hpp"
#include "testgen/shrink.hpp"
#include "flag_parse.hpp"

namespace {

using catsched::testgen::GeneratedSystem;
using catsched::testgen::GeneratorConfig;
using catsched::testgen::InvariantOptions;
using catsched::testgen::InvariantReport;
using catsched::testgen::ShrinkResult;

struct Args {
  std::uint64_t seeds = 100;
  std::uint64_t start = 1;
  std::uint64_t search_stride = 8;
  bool no_search = false;
  bool inject = false;
  bool inject_eval_fault = false;
  bool replay = false;
  std::uint64_t replay_seed = 0;
  double max_seconds = 0.0;
  std::string summary_file;
};

[[noreturn]] void bad_value(const std::string& s, const char* flag) {
  std::cerr << "fuzz_invariants: bad value for " << flag << ": " << s
            << "\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& s, const char* flag) {
  const std::optional<std::uint64_t> v =
      catsched::tools::parse_count(s.c_str());
  if (!v) bad_value(s, flag);
  return *v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "fuzz_invariants: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seeds") {
      const std::string value = next();
      a.seeds = parse_u64(value, "--seeds");
      if (a.seeds == 0) bad_value(value, "--seeds");
    } else if (arg == "--start") {
      a.start = parse_u64(next(), "--start");
    } else if (arg == "--search-stride") {
      a.search_stride = parse_u64(next(), "--search-stride");
    } else if (arg == "--no-search") {
      a.no_search = true;
    } else if (arg == "--summary") {
      a.summary_file = next();
    } else if (arg == "--fast") {
      a.seeds = 8;
      a.search_stride = 4;
    } else if (arg == "--max-seconds") {
      const std::string value = next();
      const std::optional<double> v =
          catsched::tools::parse_seconds(value.c_str());
      if (!v) bad_value(value, "--max-seconds");
      a.max_seconds = *v;
    } else if (arg == "--inject-failure") {
      a.inject = true;
    } else if (arg == "--inject-eval-fault") {
      a.inject_eval_fault = true;
    } else if (arg == "--seed") {
      a.replay = true;
      a.replay_seed = parse_u64(next(), "--seed");
    } else {
      std::cerr << "fuzz_invariants: unknown argument " << arg << "\n";
      std::exit(2);
    }
  }
  return a;
}

InvariantOptions base_options(const Args& args) {
  InvariantOptions opts;
  opts.inject_failure = args.inject;
  return opts;
}

/// The sweep's generator configuration: branchy structured programs are
/// enabled so the first-miss (persistence) invariant tier actually has a
/// surface to bite on — roughly a third of the generated apps carry an
/// if/else-in-loop tree next to their representative trace.
GeneratorConfig sweep_config() {
  GeneratorConfig config;
  config.branchy_chance = 0.35;
  return config;
}

/// Report a failure: seed, check, detail, then the shrunk counterexample.
void report_failure(const GeneratedSystem& sys, const InvariantReport& rep,
                    const InvariantOptions& opts) {
  std::cout << "FAIL seed=" << sys.seed << " check=" << rep.failed_check
            << "\n  " << rep.detail << "\n"
            << "  replay: fuzz_invariants --seed " << sys.seed
            << (opts.inject_failure ? " --inject-failure" : "") << "\n"
            << "  shrinking..." << std::flush;
  const ShrinkResult shrunk = catsched::testgen::shrink_system(
      sys.model, rep.failed_check,
      catsched::testgen::make_invariant_predicate(sys.seed, opts));
  std::cout << " done (" << shrunk.attempts << " attempts)\n"
            << "  minimal failing system: " << shrunk.model.apps.size()
            << " apps (was " << sys.model.apps.size() << "), "
            << shrunk.sets_after << " cache sets (was " << shrunk.sets_before
            << ")";
  std::cout << ", traces:";
  for (const auto& app : shrunk.model.apps) {
    std::cout << " " << app.name << "=" << app.program.trace.size();
  }
  std::cout << "\n";
}

int replay(const Args& args) {
  const GeneratorConfig config = sweep_config();
  const GeneratedSystem a =
      catsched::testgen::generate_system(config, args.replay_seed);
  const GeneratedSystem b =
      catsched::testgen::generate_system(config, args.replay_seed);
  const std::uint64_t fa = catsched::testgen::system_fingerprint(a.model);
  const std::uint64_t fb = catsched::testgen::system_fingerprint(b.model);
  std::cout << "seed " << args.replay_seed << ": fingerprint 0x" << std::hex
            << fa << " / 0x" << fb << std::dec
            << (fa == fb ? " (reproducible)" : " (MISMATCH)") << "\n";
  if (fa != fb) return 1;

  InvariantOptions opts = base_options(args);
  opts.check_searches = !args.no_search;
  const InvariantReport rep =
      catsched::testgen::check_invariants(a.model, a.seed, opts);
  std::cout << "apps=" << a.model.apps.size()
            << " sets=" << a.model.cache_config.num_sets()
            << " ways=" << a.model.cache_config.ways()
            << " overlap=" << a.overlap << "\n";
  if (!rep.passed) {
    report_failure(a, rep, opts);
    return 1;
  }
  std::cout << "PASS (context_strict=" << rep.context_strict
            << " searches_checked=" << rep.searches_checked
            << " interleaving_won=" << rep.interleaving_won
            << " fm_apps=" << rep.fm_apps
            << " fm_tightened=" << rep.fm_tightened_apps
            << " fm_reduction_cycles=" << rep.fm_reduction_cycles << ")\n";
  return 0;
}

/// --inject-eval-fault self-test: arm a one-shot controller-design fault
/// (core::FaultPlan) on a pooled evaluator and evaluate a generated
/// system's round-robin schedule. The fault must surface as FaultInjected
/// through the worker threads (no deadlock, no hang), and — because an
/// exceptional compute never latches the memo's once-flag — the retried
/// evaluation must succeed. Seeds are scanned until one is idle-feasible,
/// since an infeasible schedule never reaches a controller design.
int inject_eval_fault_selftest() {
  const GeneratorConfig config;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    const GeneratedSystem sys =
        catsched::testgen::generate_system(config, seed);
    catsched::core::ThreadPool pool(4);
    catsched::core::FaultPlan fault;
    fault.fail_evaluation_at = 1;
    catsched::core::EvaluatorOptions eopts;
    eopts.fault = &fault;
    catsched::core::Evaluator ev(
        sys.model, catsched::testgen::fuzz_design_options(), &pool, eopts);
    const catsched::sched::PeriodicSchedule rr(
        std::vector<int>(sys.model.apps.size(), 1));
    if (!ev.idle_feasible(rr)) continue;

    bool threw = false;
    try {
      ev.evaluate(rr);
    } catch (const catsched::core::FaultInjected&) {
      threw = true;
    }
    if (!threw) {
      std::cout << "FAIL: injected design fault did not surface (seed "
                << seed << ")\n";
      return 1;
    }
    const auto out = ev.evaluate(rr);
    if (!out.idle_feasible) {
      std::cout << "FAIL: retried evaluation lost feasibility (seed " << seed
                << ")\n";
      return 1;
    }
    std::cout << "inject-eval-fault: OK (seed " << seed
              << ": fault surfaced as FaultInjected, retried evaluation "
                 "succeeded — memo entry not poisoned)\n";
    return 0;
  }
  std::cout << "FAIL: no idle-feasible round-robin seed in [1, 32]\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.replay) return replay(args);
  if (args.inject_eval_fault) return inject_eval_fault_selftest();

  const GeneratorConfig config = sweep_config();
  std::uint64_t passed = 0;
  std::uint64_t context_strict = 0;
  std::uint64_t searches_checked = 0;
  std::uint64_t interleaving_won = 0;
  std::uint64_t rr_feasible = 0;
  std::uint64_t fm_apps = 0;
  std::uint64_t fm_tightened = 0;
  std::uint64_t fm_reduction = 0;

  // Anytime sweep: the wall-clock budget is checked between seeds, so a
  // fired deadline ends the sweep cleanly after the current seed — every
  // completed seed still counts and the exit stays 0.
  catsched::core::RunBudget budget;
  if (args.max_seconds > 0.0) budget.set_deadline_after(args.max_seconds);

  for (std::uint64_t i = 0; i < args.seeds; ++i) {
    if (budget.cancelled()) break;
    const std::uint64_t seed = args.start + i;
    InvariantOptions opts = base_options(args);
    opts.check_searches = !args.no_search && args.search_stride > 0 &&
                          i % args.search_stride == 0;
    const GeneratedSystem sys =
        catsched::testgen::generate_system(config, seed);
    const InvariantReport rep =
        catsched::testgen::check_invariants(sys.model, seed, opts);
    if (!rep.passed) {
      report_failure(sys, rep, opts);
      return 1;
    }
    ++passed;
    context_strict += rep.context_strict ? 1 : 0;
    searches_checked += rep.searches_checked ? 1 : 0;
    interleaving_won += rep.interleaving_won ? 1 : 0;
    rr_feasible += rep.rr_feasible ? 1 : 0;
    fm_apps += rep.fm_apps;
    fm_tightened += rep.fm_tightened_apps;
    fm_reduction += rep.fm_reduction_cycles;
    if ((i + 1) % 50 == 0) {
      std::cout << "... " << (i + 1) << "/" << args.seeds << " systems ok"
                << std::endl;
    }
  }

  std::ostringstream summary;
  // Rates are over the seeds that completed: a budgeted sweep may stop
  // long before args.seeds.
  const double pct = passed > 0 ? 100.0 / static_cast<double>(passed) : 0.0;
  summary << "catsched invariant fuzz summary\n"
          << "seeds: [" << args.start << ", " << args.start + args.seeds
          << ")\n"
          << "systems passed: " << passed << "/" << args.seeds << "\n";
  if (args.max_seconds > 0.0) {
    summary << "wall-clock budget: " << args.max_seconds
            << "s, stop reason: "
            << catsched::core::to_string(budget.reason());
    if (budget.reason() != catsched::core::StopReason::completed) {
      summary << " (" << passed << " seeds completed before the budget fired)";
    }
    summary << "\n";
  }
  summary
          << "context WCET strictly between warm and cold: " << context_strict
          << " (" << static_cast<double>(context_strict) * pct << "%)\n"
          << "search-identity tier ran on: " << searches_checked
          << " systems\n"
          << "interleaving beat best periodic: " << interleaving_won << "/"
          << searches_checked << "\n"
          << "round-robin (all-ones) idle-feasible: " << rr_feasible << " ("
          << static_cast<double>(rr_feasible) * pct << "%)\n"
          << "first-miss tightened the bound on " << fm_tightened << "/"
          << fm_apps << " structured apps"
          << (fm_apps > 0
                  ? " (" + std::to_string(static_cast<double>(fm_tightened) *
                                          100.0 /
                                          static_cast<double>(fm_apps)) +
                        "%)"
                  : "")
          << ", total reduction " << fm_reduction << " cycles\n";
  std::cout << summary.str();
  if (!args.summary_file.empty()) {
    std::ofstream out(args.summary_file);
    if (!out) {
      std::cerr << "fuzz_invariants: cannot write " << args.summary_file
                << "\n";
      return 1;
    }
    out << summary.str();
  }
  return 0;
}
