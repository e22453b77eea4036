// Schedule-dependent WCET bench: what context-sensitive bounds cost and
// what they buy.
//
//   * per-context analysis cost: first-time entry-state derivation +
//     re-analysis vs. a memoized lookup, on the paper's case study and on
//     a partial-overlap variant (footprints shifted so 1/3 of each app's
//     singleton sets survive the other apps — the regime where contexts
//     land strictly between warm and cold);
//   * memo hit rate: analyzer requests vs. analyses actually run across a
//     full interleaved search in context mode, and entry classes vs.
//     contexts (masks sharing an aged entry state share one re-analysis);
//   * end-to-end objective delta: interleaved_search under the binary
//     cold/warm model vs. schedule-dependent WCETs, on both systems. On
//     the exact case study the paper's layout is adversarial (every app
//     evicts every other app's singletons), so the delta must be ZERO —
//     that agreement is asserted, it validates the binary model where it
//     is exact. On the partial-overlap variant context bounds shorten
//     burst-opening tasks, growing the idle-feasible region and the
//     reachable objective.
//
//   ./build/bench/bench_schedule_wcet          # full budget
//   ./build/bench/bench_schedule_wcet --fast   # smoke mode (CI)

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cache/schedule_wcet.hpp"
#include "core/case_study.hpp"
#include "core/interleaved_codesign.hpp"
#include "core/parallel.hpp"

using namespace catsched;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The case study with every program's footprint spread out: app i's lines
/// start at set 40 * i, so consecutive apps overlap in only part of their
/// singleton sets instead of all of them. Plants, weights and deadlines
/// are untouched — only the cache layout (and thus the WCET structure)
/// changes.
core::SystemModel partial_overlap_case_study() {
  core::SystemModel sys = core::date18_case_study();
  const std::size_t sets = sys.cache_config.num_sets();
  for (std::size_t i = 0; i < sys.apps.size(); ++i) {
    cache::Program& p = sys.apps[i].program;
    const std::uint64_t shift = 40 * i;
    for (std::uint64_t& line : p.trace) {
      line = (line % sets + shift) % sets + (line / sets) * sets;
    }
  }
  return sys;
}

struct SearchOutcome {
  core::InterleavedSearchResult result;
  double secs = 0.0;
  int designs = 0;
  std::uint64_t ctx_requests = 0;
  std::uint64_t ctx_analyses = 0;
  std::uint64_t ctx_reanalyses = 0;
};

SearchOutcome run_search(const core::SystemModel& sys,
                         const control::DesignOptions& dopts,
                         const core::InterleavedSearchOptions& opts,
                         bool contexts) {
  core::Evaluator ev(sys, dopts, nullptr,
                     core::EvaluatorOptions{.context_wcets = contexts});
  const auto start = sched::InterleavedSchedule::from_periodic(
      sched::PeriodicSchedule(std::vector<int>(sys.apps.size(), 1)));
  SearchOutcome out;
  const auto t0 = Clock::now();
  out.result = core::interleaved_search(ev, start, opts);
  out.secs = seconds_since(t0);
  out.designs = ev.designs_run();
  if (const auto* an = ev.context_analyzer()) {
    out.ctx_requests = an->stats().context_requests;
    out.ctx_analyses = an->stats().context_analyses;
    out.ctx_reanalyses = an->stats().reanalyses;
  }
  return out;
}

void bench_context_cost(const char* label, const core::SystemModel& sys,
                        int reps) {
  const auto analyzer = sys.make_context_analyzer();
  const std::size_t n = analyzer->num_apps();
  const std::uint64_t all = (std::uint64_t{1} << n) - 1;

  // First-time analyses (fresh analyzer per rep would re-pay the steady
  // base; instead measure the cold pass over all masks once).
  const auto t0 = Clock::now();
  std::size_t analyses = 0;
  for (std::size_t app = 0; app < n; ++app) {
    for (std::uint64_t mask = 1; mask <= all; ++mask) {
      if ((mask >> app) & 1u) continue;
      (void)analyzer->analyze_context(app, mask);
      ++analyses;
    }
  }
  const double cold_us = seconds_since(t0) / static_cast<double>(analyses) * 1e6;

  // Memoized lookups.
  const auto t1 = Clock::now();
  std::uint64_t sum = 0;
  for (int r = 0; r < reps; ++r) {
    for (std::size_t app = 0; app < n; ++app) {
      for (std::uint64_t mask = 1; mask <= all; ++mask) {
        if ((mask >> app) & 1u) continue;
        sum += analyzer->analyze_context(app, mask).cycles;
      }
    }
  }
  const double hit_us = seconds_since(t1) /
                        static_cast<double>(reps) /
                        static_cast<double>(analyses) * 1e6;
  std::printf("%-24s %3zu contexts  %3llu entry classes  analyze %8.2fus"
              "  memo hit %7.3fus  (checksum %llu)\n",
              label, analyses,
              static_cast<unsigned long long>(analyzer->stats().reanalyses),
              cold_us, hit_us,
              static_cast<unsigned long long>(sum % 1000000));

  // Ordering invariant across every context (cheap, always on).
  for (std::size_t app = 0; app < n; ++app) {
    const std::uint64_t warm = analyzer->base(app).warm.wcet_cycles;
    const std::uint64_t cold = analyzer->base(app).cold.wcet_cycles;
    for (std::uint64_t mask = 0; mask <= all; ++mask) {
      const cache::ContextWcet& cw = analyzer->analyze_context(app, mask);
      if (cw.cycles < warm || cw.cycles > cold || !cw.naturally_ordered) {
        std::printf("FAIL: unordered context bound app %zu mask %llu\n", app,
                    static_cast<unsigned long long>(mask));
        std::exit(1);
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool fast = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) fast = true;
  }

  control::DesignOptions dopts = core::date18_design_options();
  dopts.pso.particles = fast ? 8 : 16;
  dopts.pso.iterations = fast ? 10 : 30;
  if (fast) dopts.pso.stall_iterations = 5;
  dopts.pso_restarts = 1;
  dopts.scale_budget_with_dims = false;

  const core::SystemModel exact = core::date18_case_study();
  const core::SystemModel overlap = partial_overlap_case_study();

  std::printf("hardware threads: %zu%s\n", core::hardware_threads(),
              fast ? "   (--fast smoke budget)" : "");

  std::printf("\n== per-context analysis cost ==\n");
  bench_context_cost("date18 case study", exact, fast ? 50 : 500);
  bench_context_cost("partial-overlap variant", overlap, fast ? 50 : 500);

  // Context spread: how far below cold the cross-contexts land.
  std::printf("\n== context bounds vs cold/warm pair (partial overlap) ==\n");
  const auto analyzer = overlap.make_context_analyzer();
  for (std::size_t app = 0; app < analyzer->num_apps(); ++app) {
    const auto& b = analyzer->base(app);
    std::printf("  app %zu: cold %6llu cy  warm %6llu cy  contexts:", app,
                static_cast<unsigned long long>(b.cold.wcet_cycles),
                static_cast<unsigned long long>(b.warm.wcet_cycles));
    const std::uint64_t all =
        (std::uint64_t{1} << analyzer->num_apps()) - 1;
    for (std::uint64_t mask = 1; mask <= all; ++mask) {
      if ((mask >> app) & 1u) continue;
      std::printf(" %llu->%llu",
                  static_cast<unsigned long long>(mask),
                  static_cast<unsigned long long>(
                      analyzer->analyze_context(app, mask).cycles));
    }
    std::printf("\n");
  }

  core::InterleavedSearchOptions opts;
  opts.max_segments = fast ? 5 : 6;
  opts.max_burst = fast ? 4 : 8;
  opts.max_steps = fast ? 4 : 12;

  std::printf("\n== end-to-end interleaved search: binary vs contexts ==\n");
  bool ok = true;
  struct Case {
    const char* label;
    const core::SystemModel* sys;
    bool expect_equal;
  };
  const Case cases[] = {{"date18 case study", &exact, true},
                        {"partial-overlap variant", &overlap, false}};
  for (const Case& c : cases) {
    const char* label = c.label;
    const core::SystemModel* sys = c.sys;
    const bool expect_equal = c.expect_equal;
    const SearchOutcome binary = run_search(*sys, dopts, opts, false);
    const SearchOutcome ctx = run_search(*sys, dopts, opts, true);
    const double delta =
        ctx.result.best_evaluation.pall - binary.result.best_evaluation.pall;
    std::printf("  %-24s binary Pall %.4f (%s, %5.1fs)  contexts Pall %.4f "
                "(%s, %5.1fs)  delta %+.4f\n",
                label, binary.result.best_evaluation.pall,
                binary.result.best.to_string().c_str(), binary.secs,
                ctx.result.best_evaluation.pall,
                ctx.result.best.to_string().c_str(), ctx.secs, delta);
    std::printf("  %-24s context memo: %llu requests, %llu analyses "
                "(hit rate %.1f%%), entry classes / contexts %llu/%llu, "
                "%d designs run\n",
                "", static_cast<unsigned long long>(ctx.ctx_requests),
                static_cast<unsigned long long>(ctx.ctx_analyses),
                ctx.ctx_requests > 0
                    ? 100.0 *
                          static_cast<double>(ctx.ctx_requests -
                                              ctx.ctx_analyses) /
                          static_cast<double>(ctx.ctx_requests)
                    : 0.0,
                static_cast<unsigned long long>(ctx.ctx_reanalyses),
                static_cast<unsigned long long>(ctx.ctx_analyses),
                ctx.designs);
    if (expect_equal) {
      // The paper's layout evicts everything: context == cold, so every
      // evaluation — and with it the greedy trajectory — must agree
      // exactly.
      if (ctx.result.best.to_string() != binary.result.best.to_string() ||
          delta != 0.0) {
        std::printf("FAIL: context search diverged on the exact case study\n");
        ok = false;
      }
    } else if (delta < 0.0) {
      // Tighter bounds grow every schedule's feasibility, but a greedy
      // steepest-ascent can still be steered to a different (even worse)
      // local optimum — report it, don't gate CI on it.
      std::printf("  note: context-mode search landed on a worse local "
                  "optimum (sound, but worth a look)\n");
    }
  }

  if (!ok) return 1;
  std::printf("\ncontext bounds ordered, exact-case parity held, objective "
              "never regressed\n");
  return 0;
}
