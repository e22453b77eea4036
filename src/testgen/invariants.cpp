#include "testgen/invariants.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <sstream>

#include "cache/schedule_wcet.hpp"
#include "cache/wcet.hpp"
#include "core/codesign.hpp"
#include "core/interleaved_codesign.hpp"
#include "core/parallel.hpp"
#include "opt/portfolio.hpp"
#include "testgen/rng.hpp"

namespace catsched::testgen {

control::DesignOptions fuzz_design_options() {
  control::DesignOptions d;
  d.pso.particles = 6;
  d.pso.iterations = 8;
  d.pso.stall_iterations = 4;
  d.pso_restarts = 1;
  d.scale_budget_with_dims = false;
  d.seed_pole_radii = {0.3, 0.7};
  d.seed_pole_angles = {0.0, 0.45};
  d.dense_dt = 2.0e-3;
  return d;
}

namespace {

bool same_bits(double a, double b) {
  std::uint64_t ba = 0, bb = 0;
  std::memcpy(&ba, &a, sizeof ba);
  std::memcpy(&bb, &b, sizeof bb);
  return ba == bb;
}

bool timing_equal(const sched::ScheduleTiming& a,
                  const sched::ScheduleTiming& b) {
  if (!same_bits(a.period, b.period) || a.apps.size() != b.apps.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.apps.size(); ++i) {
    const auto& ia = a.apps[i].intervals;
    const auto& ib = b.apps[i].intervals;
    if (ia.size() != ib.size()) return false;
    for (std::size_t j = 0; j < ia.size(); ++j) {
      if (!same_bits(ia[j].h, ib[j].h) || !same_bits(ia[j].tau, ib[j].tau) ||
          ia[j].warm != ib[j].warm) {
        return false;
      }
    }
  }
  return true;
}

bool eval_equal(const core::ScheduleEvaluation& a,
                const core::ScheduleEvaluation& b) {
  return same_bits(a.pall, b.pall) && a.idle_feasible == b.idle_feasible &&
         a.control_feasible == b.control_feasible &&
         timing_equal(a.timing, b.timing);
}

sched::PeriodicSchedule random_periodic(SplitMix64& rng, std::size_t n,
                                        int max_burst) {
  std::vector<int> m(n);
  for (int& v : m) v = static_cast<int>(rng.range(1, max_burst));
  return sched::PeriodicSchedule(m);
}

/// A random interleaved schedule: shuffled one-segment-per-app core plus a
/// few extra singleton segments inserted where adjacency permits.
sched::InterleavedSchedule random_interleaved(SplitMix64& rng,
                                              std::size_t n) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);
  std::vector<sched::Segment> segs;
  segs.reserve(n + 2);
  for (const std::size_t app : order) {
    segs.push_back({app, static_cast<int>(rng.range(1, 2))});
  }
  const int extras = static_cast<int>(rng.range(0, 2));
  for (int e = 0; e < extras && n >= 2; ++e) {
    const std::size_t app = rng.index(n);
    const std::size_t pos = rng.index(segs.size() + 1);
    const std::size_t prev = segs[(pos + segs.size() - 1) % segs.size()].app;
    const std::size_t next = segs[pos % segs.size()].app;
    if (app != prev && app != next) {
      segs.insert(segs.begin() + static_cast<std::ptrdiff_t>(pos),
                  {app, 1});
    }
  }
  return sched::InterleavedSchedule(segs, n);
}

/// The harness's failure accumulator: records the FIRST failing check.
struct Failure {
  InvariantReport& rep;
  std::uint64_t seed;

  bool require(bool ok, const char* check, const std::string& what) {
    if (!ok && rep.passed) {
      rep.passed = false;
      rep.failed_check = check;
      std::ostringstream os;
      os << "seed=" << seed << " check=" << check << ": " << what;
      rep.detail = os.str();
    }
    return ok;
  }
};

std::string loc(std::size_t app, std::uint64_t mask) {
  std::ostringstream os;
  os << "app=" << app << " mask=0x" << std::hex << mask;
  return os.str();
}

}  // namespace

InvariantReport check_invariants(const core::SystemModel& model,
                                 std::uint64_t seed,
                                 const InvariantOptions& opts) {
  InvariantReport rep;
  Failure fail{rep, seed};

  // ---------------------------------------------- A. model + WCET bases
  try {
    model.validate();
  } catch (const std::exception& e) {
    fail.require(false, "model-valid", e.what());
    return rep;
  }
  std::vector<sched::AppWcet> wcets;
  std::unique_ptr<cache::ScheduleWcetAnalyzer> analyzer;
  try {
    wcets = model.analyze_wcets();
    analyzer = model.make_context_analyzer();
  } catch (const std::exception& e) {
    fail.require(false, "steady-warm", e.what());
    return rep;
  }
  const std::size_t n = model.apps.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (!fail.require(wcets[i].warm_seconds > 0.0 &&
                          wcets[i].warm_seconds <= wcets[i].cold_seconds,
                      "wcet-pair", loc(i, 0))) {
      return rep;
    }
  }
  {
    // The analyzer's single-path static analysis must agree with the
    // simulator-backed cold/warm pair bit-for-bit.
    const std::vector<sched::AppWcet> base = analyzer->app_wcets();
    for (std::size_t i = 0; i < n; ++i) {
      if (!fail.require(same_bits(base[i].cold_seconds, wcets[i].cold_seconds) &&
                            same_bits(base[i].warm_seconds,
                                      wcets[i].warm_seconds),
                        "analyzer-base", loc(i, 0))) {
        return rep;
      }
    }
  }

  std::vector<cache::StructuredProgram> lifted;
  lifted.reserve(n);
  for (const core::Application& a : model.apps) {
    lifted.push_back(a.has_structured()
                         ? a.structured
                         : cache::StructuredProgram{
                               a.program.name,
                               cache::Stmt::block(a.program.trace)});
  }

  // ---------------------- A2. first-miss (persistence) soundness surface
  {
    // FM-off twin: the abstract walk is mode-independent, so its cold
    // bound must equal the FM analyzer's AM-only column bit-for-bit, and
    // its warm bound can never be tighter than the FM one.
    const cache::ScheduleWcetAnalyzer am_only(lifted, model.cache_config,
                                              cache::FirstMiss::off);
    for (std::size_t i = 0; i < n; ++i) {
      const cache::StaticSteadyWcet& on = analyzer->base(i);
      const cache::StaticSteadyWcet& off = am_only.base(i);
      const bool ok = on.cold.wcet_cycles <= on.cold.am_only_cycles &&
                      on.warm.wcet_cycles <= on.warm.am_only_cycles &&
                      off.cold.wcet_cycles == on.cold.am_only_cycles &&
                      off.warm.wcet_cycles >= on.warm.wcet_cycles;
      if (!fail.require(ok, "fm-le-am", loc(i, 0))) return rep;
      if (model.apps[i].has_structured()) {
        ++rep.fm_apps;
        const std::uint64_t d =
            (off.cold.wcet_cycles - on.cold.wcet_cycles) +
            (off.warm.wcet_cycles - on.warm.wcet_cycles);
        if (d > 0) ++rep.fm_tightened_apps;
        rep.fm_reduction_cycles += d;
      }
      // Memo on/off bit identity: a memo-free re-analysis reproduces the
      // analyzer's (memoized) base exactly.
      const cache::StaticSteadyWcet fresh =
          cache::analyze_static_steady_wcet(lifted[i], model.cache_config);
      if (!fail.require(fresh.cold.wcet_cycles == on.cold.wcet_cycles &&
                            fresh.warm.wcet_cycles == on.warm.wcet_cycles &&
                            fresh.cold.am_only_cycles ==
                                on.cold.am_only_cycles,
                        "fm-memo", loc(i, 0))) {
        return rep;
      }
      // Sampled concrete paths of a structured program never exceed the
      // FM bound: cold runs against the cold bound, and any second run of
      // a back-to-back pair against the warm bound.
      if (model.apps[i].has_structured()) {
        const auto paths = cache::sample_paths(
            model.apps[i].structured.root, 6,
            static_cast<std::uint32_t>(seed ^ (0x5bd1e995ull * (i + 1))));
        for (const auto& path : paths) {
          cache::Program p;
          p.name = "sampled-path";
          p.trace = path;
          const cache::WcetResult w =
              cache::analyze_wcet(p, model.cache_config, 1);
          std::ostringstream os;
          os << loc(i, 0) << ": cold path replay " << w.cold_cycles
             << " cycles > FM cold bound " << on.cold.wcet_cycles;
          if (!fail.require(w.cold_cycles <= on.cold.wcet_cycles,
                            "fm-replay", os.str())) {
            return rep;
          }
        }
        if (paths.size() >= 2) {
          std::vector<cache::Program> pp(2);
          pp[0].name = pp[1].name = "sampled-path";
          pp[0].trace = paths[0];
          pp[1].trace = paths[1];
          const std::vector<cache::TaskExecution> execs =
              cache::simulate_task_sequence(pp, {0, 1, 0},
                                            model.cache_config);
          if (!fail.require(execs[1].cycles <= on.warm.wcet_cycles &&
                                execs[2].cycles <= on.warm.wcet_cycles,
                            "fm-replay",
                            loc(i, 0) + ": warm path pair exceeds bound")) {
            return rep;
          }
        }
      }
    }
  }

  // ------------------------- B. context ordering / monotonicity / inject
  const std::uint64_t all_masks = (std::uint64_t{1} << n);
  for (std::size_t app = 0; app < n; ++app) {
    const std::uint64_t warm_cy = analyzer->analyze_context(app, 0).cycles;
    cache::StaticAnalysisMemo reference_memo;
    for (std::uint64_t mask = 0; mask < all_masks; ++mask) {
      if ((mask >> app) & 1u) continue;  // canonical: own bit never set
      const cache::ContextWcet& cw = analyzer->analyze_context(app, mask);
      if (!fail.require(cw.naturally_ordered &&
                            cw.seconds >= wcets[app].warm_seconds &&
                            cw.seconds <= wcets[app].cold_seconds,
                        "wcet-ordering", loc(app, mask))) {
        return rep;
      }
      if (mask != 0) {
        // The analyzer re-analyzes one mask per entry class; the reference
        // derivation ages the generic exit through the merged footprint.
        cache::CacheFootprint interference;
        for (std::size_t a = 0; a < n; ++a) {
          if ((mask >> a) & 1u) {
            cache::merge_footprint(interference, analyzer->footprint(a));
          }
        }
        cache::CachePair entry = analyzer->base(app).generic_exit;
        cache::age_through_interference(entry, interference);
        const cache::StaticWcetResult ref = cache::analyze_static_wcet(
            lifted[app], model.cache_config, entry, &reference_memo);
        if (!fail.require(ref.wcet_cycles == cw.analysis.wcet_cycles,
                          "context-reference", loc(app, mask))) {
          return rep;
        }
      }
      if (opts.inject_failure && mask != 0) {
        // Deliberately FALSE: interference can only slow a task down, so
        // this fires on every >= 2-app system (the self-test path).
        if (!fail.require(cw.cycles < warm_cy, "injected-context-below-warm",
                          loc(app, mask))) {
          return rep;
        }
      }
      for (std::size_t b = 0; b < n; ++b) {
        const std::uint64_t bit = std::uint64_t{1} << b;
        if (!(mask & bit)) continue;
        const cache::ContextWcet& sub =
            analyzer->analyze_context(app, mask & ~bit);
        if (!fail.require(sub.cycles <= cw.cycles, "wcet-monotonic",
                          loc(app, mask))) {
          return rep;
        }
      }
      if (mask != 0 && cw.cycles > warm_cy &&
          cw.seconds < wcets[app].cold_seconds) {
        rep.context_strict = true;
      }
    }
  }

  // Deterministic exercise schedules for everything below.
  SplitMix64 rng(seed ^ 0xA17C3EB85D2F9016ull);
  const sched::PeriodicSchedule periodic = random_periodic(rng, n, 3);
  const sched::InterleavedSchedule inter = random_interleaved(rng, n);
  const std::vector<std::size_t> seq = inter.task_sequence();
  const std::size_t tasks = seq.size();
  const std::vector<double> tidle = model.tidle_vector();

  // ------------------------------------------ C. concrete replay <= bound
  {
    std::vector<cache::Program> programs;
    programs.reserve(n);
    for (const core::Application& a : model.apps) {
      programs.push_back(a.program);
    }
    std::vector<std::size_t> three_periods;
    three_periods.reserve(3 * tasks);
    for (int p = 0; p < 3; ++p) {
      three_periods.insert(three_periods.end(), seq.begin(), seq.end());
    }
    const std::vector<cache::TaskExecution> execs =
        cache::simulate_task_sequence(programs, three_periods,
                                      model.cache_config);
    const std::vector<std::uint64_t> masks =
        sched::compute_context_masks(seq, n);
    // Period 0 warms up from a cold cache (its entries may exceed the
    // steady bounds); every later task's entry state is covered by the
    // mask-based analysis.
    for (std::size_t k = tasks; k < execs.size(); ++k) {
      const cache::TaskExecution& e = execs[k];
      const std::uint64_t mask = masks[k % tasks];
      const std::uint64_t bound = analyzer->analyze_context(e.app, mask).cycles;
      std::ostringstream os;
      os << "task " << k << " of " << loc(e.app, mask) << ": "
         << e.cycles << " cycles > bound " << bound;
      if (!fail.require(e.cycles <= bound, "replay-bound", os.str())) {
        return rep;
      }
    }
  }

  // ----------------------------------------------- D. timing identities
  const sched::ScheduleTiming t_binary = sched::derive_timing(wcets, seq, n);
  {
    sched::ContextWcetTable cold_fallback;
    cold_fallback.base = wcets;
    cold_fallback.contexts.resize(n);  // empty: every mask falls back cold
    const sched::ScheduleTiming t_ctx =
        sched::derive_timing(wcets, cold_fallback, seq, n);
    if (!fail.require(timing_equal(t_binary, t_ctx), "timing-cold-fallback",
                      inter.to_string())) {
      return rep;
    }
    const sched::ScheduleTiming t_sched = sched::derive_timing(wcets, inter);
    if (!fail.require(timing_equal(t_binary, t_sched),
                      "timing-schedule-vs-seq", inter.to_string())) {
      return rep;
    }
    // Same identity on the periodic overloads.
    const sched::ScheduleTiming t_per = sched::derive_timing(wcets, periodic);
    const sched::ScheduleTiming t_per_seq =
        sched::derive_timing(wcets, periodic.task_sequence(), n);
    if (!fail.require(timing_equal(t_per, t_per_seq),
                      "timing-schedule-vs-seq", periodic.to_string())) {
      return rep;
    }
  }
  {
    const sched::TimingPattern pattern = sched::expand_timing(wcets, inter);
    if (!fail.require(timing_equal(t_binary, pattern.timing), "timing-delta",
                      "expand_timing mismatch for " + inter.to_string())) {
      return rep;
    }
    for (int k = 0; k < 4; ++k) {
      sched::TaskMove move;
      if (rng.chance(0.5)) {
        move.kind = sched::TaskMove::Kind::insert;
        move.pos = rng.index(tasks + 1);
        move.app = rng.index(n);
      } else {
        move.kind = sched::TaskMove::Kind::remove;
        move.pos = rng.index(tasks);
        // A removal must leave its app with at least one task.
        if (std::count(seq.begin(), seq.end(), seq[move.pos]) < 2) continue;
      }
      const std::vector<std::size_t> moved = sched::apply_move(seq, move);
      const sched::ScheduleTiming scratch =
          sched::derive_timing(wcets, moved, n);
      std::vector<bool> unchanged;
      const sched::ScheduleTiming delta =
          sched::derive_timing_delta(wcets, pattern, move, &unchanged);
      std::ostringstream os;
      os << (move.kind == sched::TaskMove::Kind::insert ? "insert" : "remove")
         << " pos=" << move.pos << " app=" << move.app << " of "
         << inter.to_string();
      if (!fail.require(timing_equal(delta, scratch), "timing-delta",
                        os.str())) {
        return rep;
      }
      for (std::size_t a = 0; a < n; ++a) {
        const bool identical =
            pattern.timing.apps[a].intervals == scratch.apps[a].intervals;
        if (unchanged[a] && !identical) {
          if (!fail.require(false, "timing-delta",
                            os.str() + ": unchanged flag on changed app " +
                                std::to_string(a))) {
            return rep;
          }
        }
      }
    }
    // Block-rotation delta (the segment-swap path): same bit-identity and
    // flag-exactness contract as timing-delta, over random valid blocks.
    for (int k = 0; k < 4 && tasks >= 2; ++k) {
      sched::BlockRotation rot;
      rot.len = 2 + rng.index(tasks - 1);        // in [2, tasks]
      rot.pos = rng.index(tasks - rot.len + 1);  // non-wrapping
      rot.shift = 1 + rng.index(rot.len - 1);    // in [1, len-1]
      const std::vector<std::size_t> rotated = sched::apply_rotation(seq, rot);
      const sched::ScheduleTiming scratch =
          sched::derive_timing(wcets, rotated, n);
      std::vector<bool> unchanged;
      const sched::ScheduleTiming delta =
          sched::derive_timing_rotation(wcets, pattern, rot, &unchanged);
      std::ostringstream os;
      os << "rotate pos=" << rot.pos << " len=" << rot.len
         << " shift=" << rot.shift << " of " << inter.to_string();
      if (!fail.require(timing_equal(delta, scratch), "timing-rotation",
                        os.str())) {
        return rep;
      }
      for (std::size_t a = 0; a < n; ++a) {
        const bool identical =
            pattern.timing.apps[a].intervals == scratch.apps[a].intervals;
        if (unchanged[a] != identical) {
          if (!fail.require(false, "timing-rotation",
                            os.str() + ": unchanged flag wrong on app " +
                                std::to_string(a))) {
            return rep;
          }
        }
      }
    }
  }

  // ------------------------------------ E. round-robin idle feasibility
  {
    const sched::ScheduleTiming rr =
        sched::derive_timing(wcets, sched::PeriodicSchedule(
                                        std::vector<int>(n, 1)));
    rep.rr_feasible = sched::idle_feasible(rr, tidle);
  }

  // -------------------------------------------- F. evaluator identities
  control::DesignOptions design = opts.design;
  {
    double max_smax = 0.0;
    for (const core::Application& a : model.apps) {
      max_smax = std::max(max_smax, a.smax);
    }
    design.dense_dt =
        std::max(design.dense_dt, design.horizon_factor * max_smax /
                                      static_cast<double>(opts.dense_steps));
  }
  core::InterleavedSearchOptions iopts;
  iopts.max_steps = 2;
  iopts.max_segments = 6;
  iopts.max_burst = 3;
  {
    core::Evaluator ev(model, design);
    const std::string key = inter.to_string();
    const core::ScheduleEvaluation& base_eval = ev.evaluate_cached(inter, key);
    const auto neighbors = core::interleaved_neighbors(inter, iopts);
    // The hinted evaluation (the anchored path of the neighbor objective)
    // on interleaved neighbors: it must equal the from-scratch one.
    for (std::size_t k = 0; k < neighbors.size() && k < 3; ++k) {
      const core::ScheduleEvaluation& hinted = ev.evaluate_cached(
          neighbors[k], neighbors[k].to_string(), base_eval);
      const core::ScheduleEvaluation scratch = ev.evaluate(neighbors[k]);
      if (!fail.require(eval_equal(hinted, scratch), "neighbor-eval",
                        neighbors[k].to_string())) {
        return rep;
      }
    }
    const int designs0 = ev.designs_run();
    const int schedules0 = ev.schedule_evaluations();
    const core::ScheduleEvaluation& again = ev.evaluate_cached(inter, key);
    if (!fail.require(same_bits(again.pall, base_eval.pall) &&
                          ev.designs_run() == designs0 &&
                          ev.schedule_evaluations() == schedules0 &&
                          ev.designs_run() <= ev.design_requests(),
                      "memo-counts",
                      "revisiting a memoized schedule re-ran work")) {
      return rep;
    }
  }
  {
    core::EvaluatorOptions ctx_opts;
    ctx_opts.context_wcets = true;
    core::Evaluator evc(model, design, nullptr, ctx_opts);
    const std::string key = inter.to_string();
    const core::ScheduleEvaluation& base_eval =
        evc.evaluate_cached(inter, key);
    // One context-mode neighbor: scratch re-derivation is pricey.
    const auto neighbors = core::interleaved_neighbors(inter, iopts);
    if (!neighbors.empty()) {
      const core::ScheduleEvaluation& hinted = evc.evaluate_cached(
          neighbors.front(), neighbors.front().to_string(), base_eval);
      const core::ScheduleEvaluation scratch = evc.evaluate(neighbors.front());
      if (!fail.require(eval_equal(hinted, scratch), "neighbor-eval-context",
                        neighbors.front().to_string())) {
        return rep;
      }
    }
  }

  // --------------------------------- G. serial-vs-parallel search identity
  if (opts.check_searches) {
    rep.searches_checked = true;
    opt::HybridOptions hopts;
    hopts.max_steps = 3;
    hopts.min_value = 1;
    hopts.max_value = 2;
    std::vector<std::vector<int>> starts;
    starts.push_back(std::vector<int>(n, 1));
    std::vector<int> alt(n, 1);
    for (std::size_t i = 1; i < n; i += 2) alt[i] = 2;
    starts.push_back(alt);
    const sched::InterleavedSchedule il_start =
        sched::InterleavedSchedule::from_periodic(
            sched::PeriodicSchedule(std::vector<int>(n, 1)));
    core::InterleavedSearchOptions sopts;
    sopts.max_steps = 2;
    sopts.max_segments = 5;
    sopts.max_burst = 2;

    core::Evaluator es(model, design);
    const core::CodesignResult ms_s =
        core::find_optimal_schedule(es, starts, hopts, nullptr);
    const core::ExhaustiveCodesignResult ex_s =
        core::exhaustive_codesign(es, hopts, nullptr);
    const core::InterleavedSearchResult il_s =
        core::interleaved_search(es, il_start, sopts, nullptr);

    // Portfolio race, fuzz-sized: elimination off so the hybrid lanes run
    // to self-convergence (the same HybridDriver walk the multistart
    // races), which makes "portfolio best >= multistart best" a hard
    // invariant on the same starts/box/step budget.
    opt::PortfolioOptions popts;
    popts.min_value = hopts.min_value;
    popts.max_value = hopts.max_value;
    popts.hybrid_max_steps = hopts.max_steps;
    popts.max_rounds = 8;
    popts.elimination_rounds = 0;
    popts.seed = seed;
    popts.anneal.iterations = 8;
    popts.anneal.batch = 4;
    popts.genetic.population = 4;
    popts.genetic.generations = 2;
    const opt::PortfolioResult pf_s = opt::portfolio_search(
        core::make_objective(es), core::make_cheap_feasible(es), starts,
        popts, nullptr, core::make_neighbor_objective(es));
    if (ms_s.found) {
      const bool dominated =
          pf_s.found_feasible &&
          pf_s.best_value >= ms_s.best_evaluation.pall;
      if (!fail.require(dominated, "search-portfolio",
                        "portfolio best fell below the multistart best")) {
        return rep;
      }
    }

    for (const std::size_t threads : opts.thread_counts) {
      core::ThreadPool pool(threads);
      core::Evaluator ep(model, design, &pool);
      const core::CodesignResult ms_p =
          core::find_optimal_schedule(ep, starts, hopts, &pool);
      bool hybrid_ok =
          ms_p.found == ms_s.found &&
          ms_p.search.unique_evaluations ==
              ms_s.search.unique_evaluations &&
          ms_p.search.runs.size() == ms_s.search.runs.size();
      if (hybrid_ok && ms_s.found) {
        hybrid_ok = ms_p.best_schedule == ms_s.best_schedule &&
                    same_bits(ms_p.best_evaluation.pall,
                              ms_s.best_evaluation.pall);
      }
      for (std::size_t r = 0; hybrid_ok && r < ms_s.search.runs.size(); ++r) {
        hybrid_ok = ms_p.search.runs[r].path == ms_s.search.runs[r].path &&
                    ms_p.search.runs[r].new_evaluations ==
                        ms_s.search.runs[r].new_evaluations;
      }
      if (!fail.require(hybrid_ok, "search-hybrid",
                        "multi-start diverged at " +
                            std::to_string(threads) + " threads")) {
        return rep;
      }

      const core::ExhaustiveCodesignResult ex_p =
          core::exhaustive_codesign(ep, hopts, &pool);
      bool ex_ok = ex_p.found == ex_s.found &&
                   ex_p.details.enumerated == ex_s.details.enumerated &&
                   ex_p.details.control_feasible ==
                       ex_s.details.control_feasible &&
                   ex_p.details.all.size() == ex_s.details.all.size();
      if (ex_ok && ex_s.found) {
        ex_ok = ex_p.best_schedule == ex_s.best_schedule &&
                same_bits(ex_p.best_evaluation.pall,
                          ex_s.best_evaluation.pall);
      }
      for (std::size_t i = 0; ex_ok && i < ex_s.details.all.size(); ++i) {
        ex_ok = ex_p.details.all[i].first == ex_s.details.all[i].first &&
                same_bits(ex_p.details.all[i].second.value,
                          ex_s.details.all[i].second.value) &&
                ex_p.details.all[i].second.feasible ==
                    ex_s.details.all[i].second.feasible;
      }
      if (!fail.require(ex_ok, "search-exhaustive",
                        "exhaustive table diverged at " +
                            std::to_string(threads) + " threads")) {
        return rep;
      }

      const core::InterleavedSearchResult il_p =
          core::interleaved_search(ep, il_start, sopts, &pool);
      const bool il_ok =
          il_p.found == il_s.found && il_p.steps == il_s.steps &&
          il_p.unique_evaluations == il_s.unique_evaluations &&
          il_p.path == il_s.path &&
          (!il_s.found ||
           (il_p.best == il_s.best &&
            same_bits(il_p.best_evaluation.pall, il_s.best_evaluation.pall)));
      if (!fail.require(il_ok, "search-interleaved",
                        "interleaved search diverged at " +
                            std::to_string(threads) + " threads")) {
        return rep;
      }

      const opt::PortfolioResult pf_p = opt::portfolio_search(
          core::make_objective(ep), core::make_cheap_feasible(ep), starts,
          popts, &pool, core::make_neighbor_objective(ep));
      const bool pf_ok =
          pf_p.found_feasible == pf_s.found_feasible &&
          pf_p.best == pf_s.best &&
          same_bits(pf_p.best_value, pf_s.best_value) &&
          pf_p.winner == pf_s.winner && pf_p.rounds == pf_s.rounds &&
          pf_p.unique_evaluations == pf_s.unique_evaluations;
      if (!fail.require(pf_ok, "search-portfolio",
                        "portfolio race diverged at " +
                            std::to_string(threads) + " threads")) {
        return rep;
      }
    }

    double periodic_best = 0.0;
    bool periodic_found = false;
    if (ms_s.found) {
      periodic_best = ms_s.best_evaluation.pall;
      periodic_found = true;
    }
    if (ex_s.found &&
        (!periodic_found || ex_s.best_evaluation.pall > periodic_best)) {
      periodic_best = ex_s.best_evaluation.pall;
      periodic_found = true;
    }
    rep.best_periodic_pall = periodic_found ? periodic_best : 0.0;
    rep.best_interleaved_pall = il_s.found ? il_s.best_evaluation.pall : 0.0;
    rep.interleaving_won = il_s.found && periodic_found &&
                           il_s.best_evaluation.pall > periodic_best;
  }

  return rep;
}

FailurePredicate make_invariant_predicate(std::uint64_t seed,
                                          const InvariantOptions& opts) {
  return [seed, opts](const core::SystemModel& m) -> std::string {
    try {
      const InvariantReport r = check_invariants(m, seed, opts);
      return r.failed_check;
    } catch (const std::exception&) {
      return std::string();
    }
  };
}

}  // namespace catsched::testgen
