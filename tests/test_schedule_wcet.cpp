/// \file test_schedule_wcet.cpp
/// \brief Schedule-dependent WCET tests: footprint/aging primitives, the
///        steady static analysis vs. the simulator, the soundness ordering
///        guaranteed-warm <= context <= cold over randomized systems and
///        cache geometries, the randomized differential against concrete
///        CacheSim replay of the same interference sequences (trace and
///        sampled structured paths), context-mask derivation, the
///        context-sensitive derive_timing overloads, analyzer memo
///        determinism at 1/2/4 threads, the entry-class dedup against the
///        reference merge-and-age derivation on generated systems,
///        evaluator/search bit-identity in context mode (neighbor path and
///        serial-vs-parallel search), and a golden digest of every base
///        and context bound over a pinned generated population.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

#include "cache/cache_model.hpp"
#include "cache/program.hpp"
#include "cache/schedule_wcet.hpp"
#include "cache/static_wcet.hpp"
#include "cache/structure.hpp"
#include "cache/wcet.hpp"
#include "core/case_study.hpp"
#include "core/interleaved_codesign.hpp"
#include "core/parallel.hpp"
#include "sched/timing.hpp"
#include "testgen/generator.hpp"

namespace {

using catsched::core::Application;
using catsched::core::Evaluator;
using catsched::core::EvaluatorOptions;
using catsched::core::interleaved_neighbors;
using catsched::core::interleaved_search;
using catsched::core::InterleavedSearchOptions;
using catsched::core::ScheduleEvaluation;
using catsched::core::SystemModel;
using catsched::sched::AppWcet;
using catsched::sched::compute_context_masks;
using catsched::sched::ContextWcetTable;
using catsched::sched::derive_timing;
using catsched::sched::InterleavedSchedule;
using catsched::sched::PeriodicSchedule;
using catsched::sched::ScheduleTiming;
namespace cache = catsched::cache;
namespace control = catsched::control;
namespace linalg = catsched::linalg;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

::testing::AssertionResult timing_identical(const ScheduleTiming& a,
                                            const ScheduleTiming& b) {
  if (!same_bits(a.period, b.period)) {
    return ::testing::AssertionResult(false) << "period bits differ";
  }
  if (a.apps.size() != b.apps.size()) {
    return ::testing::AssertionResult(false) << "app count differs";
  }
  for (std::size_t i = 0; i < a.apps.size(); ++i) {
    const auto& ia = a.apps[i].intervals;
    const auto& ib = b.apps[i].intervals;
    if (ia.size() != ib.size()) {
      return ::testing::AssertionResult(false)
             << "app " << i << " interval count differs";
    }
    for (std::size_t j = 0; j < ia.size(); ++j) {
      if (!same_bits(ia[j].h, ib[j].h) || !same_bits(ia[j].tau, ib[j].tau) ||
          ia[j].warm != ib[j].warm) {
        return ::testing::AssertionResult(false)
               << "app " << i << " interval " << j << " differs";
      }
    }
  }
  return ::testing::AssertionResult(true);
}

cache::CacheConfig cfg(std::size_t lines, std::size_t assoc) {
  cache::CacheConfig c;
  c.num_lines = lines;
  c.associativity = assoc;
  return c;
}

/// Random trace program over lines [base, base + span): `len` fetches with
/// locality (short runs of consecutive lines) so warm reuse exists.
cache::Program random_trace(std::mt19937& rng, const char* name,
                            std::uint64_t base, std::uint64_t span,
                            std::size_t len) {
  cache::Program p;
  p.name = name;
  std::uint64_t cur = base + rng() % span;
  for (std::size_t i = 0; i < len; ++i) {
    if (rng() % 3 == 0) cur = base + rng() % span;
    p.trace.push_back(base + (cur - base) % span);
    ++cur;
  }
  return p;
}

/// Interference masks of a LINEAR (non-cyclic) occurrence list: for each
/// task k with a previous occurrence of its app, the set of apps run
/// strictly in between (the replay-side mirror of compute_context_masks).
std::vector<std::uint64_t> linear_masks(const std::vector<std::size_t>& seq,
                                        std::size_t num_apps,
                                        std::vector<bool>& has_prev) {
  std::vector<std::uint64_t> acc(num_apps, 0);
  std::vector<bool> seen(num_apps, false);
  std::vector<std::uint64_t> masks(seq.size(), 0);
  has_prev.assign(seq.size(), false);
  for (std::size_t k = 0; k < seq.size(); ++k) {
    const std::size_t app = seq[k];
    masks[k] = acc[app];
    has_prev[k] = seen[app];
    seen[app] = true;
    for (std::size_t a = 0; a < num_apps; ++a) {
      if (a != app) acc[a] |= std::uint64_t{1} << app;
    }
    acc[app] = 0;
  }
  return masks;
}

// ------------------------------------------------------------ primitives

TEST(CacheFootprint, DistinctLinesPerSetAndUnion) {
  const cache::CacheConfig c = cfg(16, 2);  // 8 sets
  cache::Program p;
  p.trace = {0, 8, 0, 16, 3, 3, 11};  // sets 0 (lines 0,8,16) and 3 (3,11)
  const cache::CacheFootprint f = cache::compute_footprint(p, c);
  ASSERT_EQ(f.lines_per_set.size(), 8u);
  EXPECT_EQ(f.lines_per_set[0], (std::vector<std::uint64_t>{0, 8, 16}));
  EXPECT_EQ(f.lines_per_set[3], (std::vector<std::uint64_t>{3, 11}));
  EXPECT_EQ(f.total_lines(), 5u);

  cache::Program q;
  q.trace = {8, 24, 5};  // set 0: {8, 24}, set 5: {5}
  cache::CacheFootprint u = f;
  cache::merge_footprint(u, cache::compute_footprint(q, c));
  EXPECT_EQ(u.lines_per_set[0], (std::vector<std::uint64_t>{0, 8, 16, 24}));
  EXPECT_EQ(u.lines_per_set[5], (std::vector<std::uint64_t>{5}));
  EXPECT_EQ(u.total_lines(), 7u);

  // Structured footprint covers both branch arms and loop bodies.
  const cache::Stmt tree = cache::Stmt::seq(
      {cache::Stmt::branch(cache::Stmt::block({0}), cache::Stmt::block({8})),
       cache::Stmt::loop(cache::Stmt::block({3}), 4)});
  const cache::CacheFootprint g = cache::compute_footprint(tree, c);
  EXPECT_EQ(g.lines_per_set[0], (std::vector<std::uint64_t>{0, 8}));
  EXPECT_EQ(g.lines_per_set[3], (std::vector<std::uint64_t>{3}));
}

TEST(AgeSet, AgesMustAndEvictsAtAssociativity) {
  const cache::CacheConfig c = cfg(32, 4);  // 8 sets, 4 ways
  cache::AbstractCacheState must(c, cache::AbstractCacheState::Kind::must);
  must.access(0);   // set 0
  must.access(8);   // set 0 (ages line 0 to 1, inserts 8 at 0)
  must.access(1);   // set 1
  ASSERT_EQ(must.age(0), 1u);
  ASSERT_EQ(must.age(8), 0u);

  must.age_set(0, 2);
  EXPECT_EQ(must.age(0), 3u);   // 1 + 2
  EXPECT_EQ(must.age(8), 2u);   // 0 + 2
  EXPECT_EQ(must.age(1), 0u);   // other set untouched
  must.age_set(0, 1);
  EXPECT_EQ(must.age(8), 3u);
  EXPECT_FALSE(must.contains(0));  // 3 + 1 reaches the associativity

  EXPECT_THROW(must.age_set(99, 1), std::out_of_range);
}

TEST(AgeThroughInterference, MustAgedPersistenceUntouched) {
  const cache::CacheConfig c = cfg(32, 4);
  cache::CachePair state(c);
  state.access(0);
  state.access(8);  // set 0 holds {0 @ age 1, 8 @ age 0}
  const cache::AbstractCacheState persistence_before = state.persistence();

  cache::Program interferer;
  interferer.trace = {16, 24, 16, 32};  // 3 distinct conflicting set-0 lines
  cache::age_through_interference(state,
                                  cache::compute_footprint(interferer, c));
  EXPECT_EQ(state.must().age(8), 3u);      // 0 + 3
  EXPECT_FALSE(state.must().contains(0));  // 1 + 3 >= ways
  EXPECT_TRUE(state.persistence() == persistence_before);
}

TEST(SteadyWcet, AgreesWithSimulatorOnTraces) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t assoc = std::size_t{1} << (rng() % 3);
    const cache::CacheConfig c = cfg(64, assoc);
    const cache::Program p =
        random_trace(rng, "t", rng() % 64, 20 + rng() % 60, 40 + rng() % 200);
    const cache::WcetResult sim = cache::analyze_wcet(p, c);
    if (!sim.steady) continue;  // no sound warm bound to compare against
    const cache::StructuredProgram sp{"t", cache::Stmt::block(p.trace)};
    const cache::StaticSteadyWcet st = cache::analyze_static_steady_wcet(sp, c);
    EXPECT_EQ(st.cold.wcet_cycles, sim.cold_cycles) << "trial " << trial;
    EXPECT_EQ(st.warm.wcet_cycles, sim.warm_cycles) << "trial " << trial;
    // Single-path analysis is exact: the accesses charged a miss are
    // exactly the concrete cold misses.
    cache::CacheSim replay(c);
    replay.run_trace(p.trace);
    EXPECT_EQ(st.cold.not_classified, replay.misses()) << "trial " << trial;
  }
}

// ----------------------------------------------- soundness and ordering

TEST(ContextBounds, OrderedAndMonotoneOverRandomSystems) {
  std::mt19937 rng(11);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t assoc = std::size_t{1} << (rng() % 3);
    const cache::CacheConfig c = cfg(64, assoc);
    const std::size_t n = 2 + rng() % 3;
    std::vector<cache::Program> programs;
    for (std::size_t a = 0; a < n; ++a) {
      // Overlapping-but-distinct footprints: contexts land in between.
      programs.push_back(random_trace(rng, "p", a * 17, 20 + rng() % 40,
                                      60 + rng() % 120));
    }
    const auto analyzer = cache::ScheduleWcetAnalyzer::from_traces(programs, c);
    const std::uint64_t all = (std::uint64_t{1} << n) - 1;
    for (std::size_t app = 0; app < n; ++app) {
      const std::uint64_t warm = analyzer->base(app).warm.wcet_cycles;
      const std::uint64_t cold = analyzer->base(app).cold.wcet_cycles;
      ASSERT_LE(warm, cold);
      EXPECT_EQ(analyzer->analyze_context(app, 0).cycles, warm);
      for (std::uint64_t mask = 0; mask <= all; ++mask) {
        const cache::ContextWcet& cw = analyzer->analyze_context(app, mask);
        EXPECT_GE(cw.cycles, warm) << "app " << app << " mask " << mask;
        EXPECT_LE(cw.cycles, cold) << "app " << app << " mask " << mask;
        // The clamp must never fire: by must-domain monotonicity the raw
        // re-analysis already lands inside [warm, cold].
        EXPECT_TRUE(cw.naturally_ordered)
            << "app " << app << " mask " << mask << " trial " << trial;
        // More interference can only raise the bound.
        for (std::size_t b = 0; b < n; ++b) {
          const std::uint64_t sub = mask & ~(std::uint64_t{1} << b);
          if (sub == mask) continue;
          EXPECT_LE(analyzer->analyze_context(app, sub).cycles, cw.cycles)
              << "app " << app << " mask " << mask << " minus bit " << b;
        }
      }
    }
  }
}

TEST(ContextBounds, NeverExceededByConcreteTraceReplay) {
  std::mt19937 rng(29);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t assoc = std::size_t{1} << (rng() % 3);
    const cache::CacheConfig c = cfg(64, assoc);
    const std::size_t n = 2 + rng() % 3;
    std::vector<cache::Program> programs;
    for (std::size_t a = 0; a < n; ++a) {
      programs.push_back(random_trace(rng, "p", a * 13, 16 + rng() % 48,
                                      50 + rng() % 150));
    }
    const auto analyzer = cache::ScheduleWcetAnalyzer::from_traces(programs, c);

    // Random task sequence containing every app, replayed concretely
    // through one shared cache — the ground truth the bounds must cover.
    std::vector<std::size_t> seq;
    for (std::size_t a = 0; a < n; ++a) seq.push_back(a);
    for (int k = 0; k < 24; ++k) seq.push_back(rng() % n);
    std::shuffle(seq.begin(), seq.end(), rng);

    const auto execs = cache::simulate_task_sequence(programs, seq, c);
    std::vector<bool> has_prev;
    const auto masks = linear_masks(seq, n, has_prev);
    for (std::size_t k = 0; k < seq.size(); ++k) {
      const std::size_t app = seq[k];
      if (!has_prev[k]) {
        // First-ever occurrence: only the cold bound applies.
        EXPECT_LE(execs[k].cycles, analyzer->base(app).cold.wcet_cycles)
            << "trial " << trial << " task " << k;
        continue;
      }
      const cache::ContextWcet& cw = analyzer->analyze_context(app, masks[k]);
      EXPECT_LE(execs[k].cycles, cw.cycles)
          << "trial " << trial << " task " << k << " app " << app << " mask "
          << masks[k];
    }
  }
}

TEST(ContextBounds, SoundOnSampledStructuredPaths) {
  std::mt19937 rng(43);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t assoc = std::size_t{1} << (rng() % 3);
    const cache::CacheConfig c = cfg(32, assoc);
    const std::size_t n = 2 + rng() % 2;
    std::vector<cache::StructuredProgram> programs;
    for (std::size_t a = 0; a < n; ++a) {
      cache::RandomProgramOptions opts;
      opts.seed = static_cast<std::uint32_t>(rng());
      opts.max_depth = 2;
      opts.address_lines = 24;
      opts.max_loop_bound = 4;
      programs.push_back(cache::make_random_program("sp", opts));
    }
    const cache::ScheduleWcetAnalyzer analyzer(programs, c);

    // Concrete scenario per (app, mask): the app runs any sampled path,
    // the interferers run any sampled paths (in any order, possibly
    // repeatedly), the app runs again. That second run must stay within
    // the context bound whatever the paths were.
    for (std::size_t app = 0; app < n; ++app) {
      const std::uint64_t all = (std::uint64_t{1} << n) - 1;
      for (std::uint64_t mask = 0; mask <= all; ++mask) {
        const std::uint64_t canon = mask & ~(std::uint64_t{1} << app);
        const cache::ContextWcet& cw = analyzer.analyze_context(app, canon);
        for (int rep = 0; rep < 6; ++rep) {
          cache::CacheSim sim(c);
          const auto own1 = cache::sample_paths(
              programs[app].root, 1, static_cast<std::uint32_t>(rng()));
          sim.run_trace(own1[0]);
          for (std::size_t b = 0; b < n; ++b) {
            if (((canon >> b) & 1u) == 0) continue;
            const int runs = 1 + static_cast<int>(rng() % 2);
            for (int r = 0; r < runs; ++r) {
              const auto ip = cache::sample_paths(
                  programs[b].root, 1, static_cast<std::uint32_t>(rng()));
              sim.run_trace(ip[0]);
            }
          }
          const auto own2 = cache::sample_paths(
              programs[app].root, 1, static_cast<std::uint32_t>(rng()));
          const std::uint64_t cycles = sim.run_trace(own2[0]);
          EXPECT_LE(cycles, cw.cycles)
              << "trial " << trial << " app " << app << " mask " << canon;
        }
      }
    }
  }
}

TEST(ContextBounds, SteadyScheduleReplayWithinPerTaskBounds) {
  // The cyclic steady-state exec[] bounds of a context-expanded pattern
  // must cover a concrete multi-period replay of the same schedule.
  std::mt19937 rng(57);
  for (int trial = 0; trial < 8; ++trial) {
    const cache::CacheConfig c = cfg(64, std::size_t{1} << (rng() % 3));
    const std::size_t n = 2 + rng() % 2;
    std::vector<cache::Program> programs;
    for (std::size_t a = 0; a < n; ++a) {
      programs.push_back(random_trace(rng, "p", a * 23, 16 + rng() % 40,
                                      60 + rng() % 100));
    }
    const auto analyzer = cache::ScheduleWcetAnalyzer::from_traces(programs, c);
    std::vector<std::size_t> period_seq;
    for (std::size_t a = 0; a < n; ++a) period_seq.push_back(a);
    for (int k = 0; k < 8; ++k) period_seq.push_back(rng() % n);
    std::shuffle(period_seq.begin(), period_seq.end(), rng);

    const auto masks = compute_context_masks(period_seq, n);
    const std::size_t periods = 3;
    std::vector<std::size_t> full;
    for (std::size_t p = 0; p < periods; ++p) {
      full.insert(full.end(), period_seq.begin(), period_seq.end());
    }
    const auto execs = cache::simulate_task_sequence(programs, full, c);
    // Skip period 0 (cold start transient); the bounds model steady state.
    for (std::size_t k = period_seq.size(); k < full.size(); ++k) {
      const std::size_t kp = k % period_seq.size();
      const cache::ContextWcet& cw =
          analyzer->analyze_context(full[k], masks[kp]);
      EXPECT_LE(execs[k].cycles, cw.cycles)
          << "trial " << trial << " task " << k;
    }
  }
}

// ------------------------------------------------- sched-layer plumbing

TEST(ContextMasks, CyclicSteadyStateMasks) {
  // Sequence A B A C: A@0 sees {C} over the wrap, B sees {A, C}, A@2 sees
  // {B}, C sees {A, B}.
  const auto masks = compute_context_masks({0, 1, 0, 2}, 3);
  EXPECT_EQ(masks, (std::vector<std::uint64_t>{4, 5, 2, 3}));
  // Warm tasks (same app directly before, cyclically) get mask 0.
  const auto warm = compute_context_masks({0, 0, 1}, 2);
  EXPECT_EQ(warm[1], 0u);
  EXPECT_EQ(warm[0], 2u);  // A's burst reopens after B
  EXPECT_EQ(warm[2], 1u);
  // Single app: everything warm.
  const auto solo = compute_context_masks({0, 0}, 1);
  EXPECT_EQ(solo, (std::vector<std::uint64_t>{0, 0}));
  EXPECT_THROW(compute_context_masks({0}, 65), std::invalid_argument);
}

TEST(DeriveTiming, ColdLookupMatchesBinaryBitForBit) {
  // A context table with no entries falls back to the cold bound for every
  // non-warm task: the context overload must then reproduce the binary
  // derivation exactly (same code path, same bits).
  const std::vector<AppWcet> wcets{{1.0e-3, 0.4e-3}, {2.0e-3, 0.7e-3},
                                   {1.5e-3, 1.5e-3}};
  ContextWcetTable table;
  table.base = wcets;
  table.contexts.resize(3);
  const std::vector<std::size_t> seq{0, 1, 0, 2, 1, 1};
  const ScheduleTiming binary = derive_timing(wcets, seq, 3);
  const ScheduleTiming ctx = derive_timing(wcets, table, seq, 3);
  EXPECT_TRUE(timing_identical(binary, ctx));
}

TEST(DeriveTiming, ContextBoundsShortenPeriods) {
  const std::vector<AppWcet> wcets{{1.0e-3, 0.4e-3}, {2.0e-3, 0.7e-3}};
  ContextWcetTable table;
  table.base = wcets;
  table.contexts.resize(2);
  table.contexts[0][std::uint64_t{2}] = 0.6e-3;  // A after B: mid-range
  table.contexts[1][std::uint64_t{1}] = 1.1e-3;  // B after A: mid-range
  const std::vector<std::size_t> seq{0, 1};
  const ScheduleTiming binary = derive_timing(wcets, seq, 2);
  const ScheduleTiming ctx = derive_timing(wcets, table, seq, 2);
  EXPECT_LT(ctx.period, binary.period);
  EXPECT_TRUE(same_bits(ctx.period, 0.6e-3 + 1.1e-3));
  // Warm flags unchanged: context tasks are still burst-opening.
  EXPECT_FALSE(ctx.apps[0].intervals[0].warm);
}

TEST(DeriveTiming, RejectsOutOfRangeContextValues) {
  const std::vector<AppWcet> wcets{{1.0e-3, 0.4e-3}, {2.0e-3, 0.7e-3}};
  ContextWcetTable bad;
  bad.base = wcets;
  bad.contexts.resize(2);
  bad.contexts[0][std::uint64_t{2}] = 1.2e-3;  // above cold: unsound
  EXPECT_THROW(derive_timing(wcets, bad, {0, 1}, 2), std::invalid_argument);
  bad.contexts[0][std::uint64_t{2}] = 0.1e-3;  // below warm: breaks ordering
  EXPECT_THROW(derive_timing(wcets, bad, {0, 1}, 2), std::invalid_argument);
}

// --------------------------------------------- analyzer-level machinery

TEST(Analyzer, TableAndLookupAgreeAndFallBackCold) {
  std::mt19937 rng(3);
  const cache::CacheConfig c = cfg(64, 2);
  std::vector<cache::Program> programs;
  for (std::size_t a = 0; a < 3; ++a) {
    programs.push_back(random_trace(rng, "p", a * 29, 40, 120));
  }
  const auto analyzer = cache::ScheduleWcetAnalyzer::from_traces(programs, c);
  const ContextWcetTable table = analyzer->full_table();
  ASSERT_EQ(table.base.size(), 3u);
  for (std::size_t app = 0; app < 3; ++app) {
    EXPECT_TRUE(same_bits(table.base[app].cold_seconds,
                          analyzer->app_wcets()[app].cold_seconds));
    for (const auto& [mask, seconds] : table.contexts[app]) {
      EXPECT_TRUE(same_bits(seconds, analyzer->context_wcet_seconds(app, mask)))
          << "app " << app << " mask " << mask;
    }
    // Unknown masks fall back to the (always sound) cold bound.
    ContextWcetTable empty;
    empty.base = table.base;
    EXPECT_TRUE(same_bits(empty.context_wcet_seconds(app, 1u + (app == 0)),
                          table.base[app].cold_seconds));
    EXPECT_TRUE(same_bits(empty.context_wcet_seconds(app, 0),
                          table.base[app].warm_seconds));
  }
}

TEST(Analyzer, MemoHitDeterminismAcrossThreads) {
  std::mt19937 rng(101);
  const cache::CacheConfig c = cfg(64, 2);
  std::vector<cache::Program> programs;
  for (std::size_t a = 0; a < 3; ++a) {
    programs.push_back(random_trace(rng, "p", a * 19, 40, 150));
  }
  // Serial reference values.
  const auto ref = cache::ScheduleWcetAnalyzer::from_traces(programs, c);
  const ContextWcetTable ref_table = ref->full_table();

  for (const int threads : {1, 2, 4}) {
    const auto analyzer =
        cache::ScheduleWcetAnalyzer::from_traces(programs, c);
    // Every thread hammers every (app, mask) pair in its own order.
    std::vector<std::thread> workers;
    std::vector<int> mismatches(static_cast<std::size_t>(threads), 0);
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        std::mt19937 trng(static_cast<std::uint32_t>(7 * t + 1));
        std::vector<std::pair<std::size_t, std::uint64_t>> pairs;
        for (std::size_t app = 0; app < 3; ++app) {
          for (std::uint64_t mask = 0; mask < 8; ++mask) {
            if ((mask >> app) & 1u) continue;
            pairs.emplace_back(app, mask);
            pairs.emplace_back(app, mask);  // guaranteed repeat requests
          }
        }
        std::shuffle(pairs.begin(), pairs.end(), trng);
        for (const auto& [app, mask] : pairs) {
          const double v = analyzer->context_wcet_seconds(app, mask);
          const double expect =
              ref_table.context_wcet_seconds(app, mask);
          if (!same_bits(v, expect)) ++mismatches[static_cast<std::size_t>(t)];
        }
      });
    }
    for (std::thread& w : workers) w.join();
    for (int t = 0; t < threads; ++t) {
      EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0)
          << threads << " threads, worker " << t;
    }
    // Compute-once: every pair analyzed exactly once however many threads
    // raced on it; the repeats are pure memo hits. The entry classes
    // re-analyzed depend only on the masks computed, not on their order.
    const auto stats = analyzer->stats();
    EXPECT_EQ(stats.context_analyses, 12u) << threads << " threads";
    EXPECT_EQ(stats.context_requests,
              static_cast<std::uint64_t>(threads) * 24u)
        << threads << " threads";
    EXPECT_EQ(stats.reanalyses, ref->stats().reanalyses)
        << threads << " threads";
  }
}

/// The apps of a generated system as the analyzer sees them (structured
/// tree if any, else the trace lifted to one block).
std::vector<cache::StructuredProgram> analyzer_programs(const SystemModel& m) {
  std::vector<cache::StructuredProgram> out;
  for (const Application& a : m.apps) {
    out.push_back(a.has_structured()
                      ? a.structured
                      : cache::StructuredProgram{
                            a.program.name, cache::Stmt::block(a.program.trace)});
  }
  return out;
}

/// Reference entry derivation: the generic exit aged through the merged
/// footprint of every interfering app.
cache::CachePair reference_entry(const cache::ScheduleWcetAnalyzer& an,
                                 std::size_t app, std::uint64_t mask) {
  cache::CacheFootprint interference;
  for (std::size_t a = 0; a < an.num_apps(); ++a) {
    if ((mask >> a) & 1u) cache::merge_footprint(interference, an.footprint(a));
  }
  cache::CachePair entry = an.base(app).generic_exit;
  cache::age_through_interference(entry, interference);
  return entry;
}

TEST(Analyzer, EntryClassesMatchReferenceDerivationBitForBit) {
  catsched::testgen::GeneratorConfig g;
  g.min_apps = 4;
  g.max_apps = 6;
  g.set_choices = {16, 32};
  g.branchy_chance = 0.5;
  for (const std::size_t ways : {1u, 2u, 4u, 8u}) {
    g.way_choices = {ways};
    for (std::uint64_t seed = 500; seed < 503; ++seed) {
      const SystemModel model = catsched::testgen::generate_system(g, seed).model;
      const std::vector<cache::StructuredProgram> programs =
          analyzer_programs(model);
      const cache::CacheConfig& c = model.cache_config;
      const std::size_t n = programs.size();
      for (const cache::FirstMiss fm :
           {cache::FirstMiss::on, cache::FirstMiss::off}) {
        const cache::ScheduleWcetAnalyzer an(programs, c, fm);
        std::uint64_t classes = 0;
        std::uint64_t nonzero = 0;
        for (std::size_t app = 0; app < n; ++app) {
          const std::uint64_t warm = an.base(app).warm.wcet_cycles;
          const std::uint64_t cold = an.base(app).cold.wcet_cycles;
          cache::StaticAnalysisMemo memo;
          std::vector<cache::CachePair> entries;
          std::vector<const cache::ContextWcet*> results;
          for (std::uint64_t mask = 1; mask < (std::uint64_t{1} << n); ++mask) {
            if ((mask >> app) & 1u) continue;
            const std::string where = "ways " + std::to_string(ways) +
                                      " seed " + std::to_string(seed) +
                                      " app " + std::to_string(app) +
                                      " mask " + std::to_string(mask);
            const cache::ContextWcet& got = an.analyze_context(app, mask);
            entries.push_back(reference_entry(an, app, mask));
            results.push_back(&got);
            ++nonzero;
            const cache::StaticWcetResult ref = cache::analyze_static_wcet(
                programs[app], c, entries.back(), &memo, fm);
            const std::uint64_t cycles =
                std::min(std::max(ref.wcet_cycles, warm), cold);
            EXPECT_EQ(got.cycles, cycles) << where;
            EXPECT_TRUE(same_bits(
                got.seconds, static_cast<double>(cycles) * c.cycle_seconds()))
                << where;
            EXPECT_EQ(got.naturally_ordered,
                      ref.wcet_cycles >= warm && ref.wcet_cycles <= cold)
                << where;
            EXPECT_EQ(got.analysis.wcet_cycles, ref.wcet_cycles) << where;
            EXPECT_EQ(got.analysis.am_only_cycles, ref.am_only_cycles) << where;
            EXPECT_EQ(got.analysis.first_miss, ref.first_miss) << where;
            EXPECT_EQ(got.analysis.not_classified, ref.not_classified) << where;
          }
          // A class is shared exactly when the reference entries coincide.
          for (std::size_t i = 0; i < entries.size(); ++i) {
            bool first_of_class = true;
            for (std::size_t j = 0; j < entries.size(); ++j) {
              const bool same_entry = entries[i] == entries[j];
              EXPECT_EQ(same_entry, results[i] == results[j])
                  << "ways " << ways << " seed " << seed << " app " << app
                  << " masks #" << i << ", #" << j;
              if (j < i && same_entry) first_of_class = false;
            }
            if (first_of_class) ++classes;
          }
        }
        const cache::ScheduleWcetAnalyzer::Stats stats = an.stats();
        EXPECT_EQ(stats.context_analyses, nonzero);
        EXPECT_EQ(stats.reanalyses, classes)
            << "ways " << ways << " seed " << seed;
      }
    }
  }
}

TEST(Analyzer, EntryClassCapSitsAtTheYoungestSurvivor) {
  // 4 sets x 4 ways. App 0 ends in a branch over two set-0 lines, so its
  // generic exit keeps only line 0, at must age 1: set 0's cap is 3.
  const cache::CacheConfig c = cfg(16, 4);
  std::vector<cache::StructuredProgram> programs(3);
  programs[0].root = cache::Stmt::seq(
      {cache::Stmt::block({0}),
       cache::Stmt::branch(cache::Stmt::block({4}), cache::Stmt::block({8}))});
  programs[1].root = cache::Stmt::block({12, 16, 20});  // 3 set-0 lines
  programs[2].root = cache::Stmt::block({24});          // 1 more
  const cache::ScheduleWcetAnalyzer an(programs, c);
  ASSERT_EQ(an.base(0).generic_exit.must().age(0), 1u);

  // 3 and 4 interfering lines both reach the cap: one class. 1 does not.
  EXPECT_TRUE(reference_entry(an, 0, 0b010) == reference_entry(an, 0, 0b110));
  EXPECT_FALSE(reference_entry(an, 0, 0b100) == reference_entry(an, 0, 0b010));
  const cache::ContextWcet& three = an.analyze_context(0, 0b010);
  EXPECT_EQ(&an.analyze_context(0, 0b110), &three);
  EXPECT_NE(&an.analyze_context(0, 0b100), &three);
  EXPECT_EQ(an.stats().context_analyses, 3u);
  EXPECT_EQ(an.stats().reanalyses, 2u);
}

TEST(Analyzer, CollapsingMasksShareOneReanalysis) {
  catsched::testgen::GeneratorConfig g;
  g.min_apps = g.max_apps = 6;
  g.set_choices = {32};
  g.way_choices = {2};
  g.branchy_chance = 0.5;
  const SystemModel model = catsched::testgen::generate_system(g, 41).model;
  const auto an = model.make_context_analyzer();
  (void)an->full_table();
  const cache::ScheduleWcetAnalyzer::Stats stats = an->stats();
  // 6 apps x 32 masks each, 6 of them mask 0 (never re-analyzed).
  EXPECT_EQ(stats.context_analyses, 6u * 32u);
  EXPECT_LT(stats.reanalyses, stats.context_analyses - 6u);
  EXPECT_GT(stats.reanalyses, 0u);
}

/// Three branchy structured apps on 8 sets x 2 ways whose arm lines never
/// enter the must state: first-miss genuinely fires. Each app keeps its
/// own lines in distinct sets (so persistence survives within a run) while
/// apps 0 and 2 collide set-wise (so interference masks matter).
std::vector<cache::StructuredProgram> branchy_fm_programs() {
  std::vector<cache::StructuredProgram> programs;
  for (std::uint64_t a = 0; a < 3; ++a) {
    const std::uint64_t b = 4 * a;
    cache::StructuredProgram p;
    p.name = "fm-app";
    p.root = cache::Stmt::loop(
        cache::Stmt::seq(
            {cache::Stmt::branch(cache::Stmt::block({b}),
                                 cache::Stmt::block({b + 1})),
             cache::Stmt::block({b + 2, b + 3})}),
        4);
    programs.push_back(std::move(p));
  }
  return programs;
}

TEST(Analyzer, FirstMissTightensEveryContextAndPreservesOrdering) {
  const cache::CacheConfig c = cfg(16, 2);
  const auto programs = branchy_fm_programs();
  const cache::ScheduleWcetAnalyzer on(programs, c, cache::FirstMiss::on);
  const cache::ScheduleWcetAnalyzer off(programs, c, cache::FirstMiss::off);
  for (std::size_t app = 0; app < 3; ++app) {
    // First-miss really fires and strictly tightens the base bounds.
    EXPECT_GT(on.base(app).cold.first_miss, 0u);
    EXPECT_LT(on.base(app).cold.wcet_cycles,
              off.base(app).cold.wcet_cycles);
    for (std::uint64_t mask = 0; mask < 8; ++mask) {
      const auto& ctx_on = on.analyze_context(app, mask);
      const auto& ctx_off = off.analyze_context(app, mask);
      // FM never loosens a context, and the AM-only column is mode-free.
      EXPECT_LE(ctx_on.cycles, ctx_off.cycles) << app << "/" << mask;
      EXPECT_EQ(ctx_on.analysis.am_only_cycles,
                ctx_off.analysis.am_only_cycles)
          << app << "/" << mask;
      // warm <= context <= cold holds WITHOUT the defensive clamp in both
      // modes (run-local persistence keeps the derivation monotone).
      EXPECT_TRUE(ctx_on.naturally_ordered) << app << "/" << mask;
      EXPECT_TRUE(ctx_off.naturally_ordered) << app << "/" << mask;
      EXPECT_LE(on.base(app).warm.wcet_cycles, ctx_on.cycles);
      EXPECT_LE(ctx_on.cycles, on.base(app).cold.wcet_cycles);
    }
  }
}

TEST(Analyzer, FirstMissContextsBitIdenticalAcrossThreadCounts) {
  const cache::CacheConfig c = cfg(16, 2);
  const auto programs = branchy_fm_programs();
  // Serial reference values, FM on (the default mode the system ships).
  const cache::ScheduleWcetAnalyzer ref(programs, c);
  const ContextWcetTable ref_table = ref.full_table();

  for (const int threads : {1, 2, 4}) {
    const cache::ScheduleWcetAnalyzer analyzer(programs, c);
    std::vector<std::thread> workers;
    std::vector<int> mismatches(static_cast<std::size_t>(threads), 0);
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        std::mt19937 trng(static_cast<std::uint32_t>(13 * t + 5));
        std::vector<std::pair<std::size_t, std::uint64_t>> pairs;
        for (std::size_t app = 0; app < 3; ++app) {
          for (std::uint64_t mask = 0; mask < 8; ++mask) {
            if ((mask >> app) & 1u) continue;
            pairs.emplace_back(app, mask);
            pairs.emplace_back(app, mask);
          }
        }
        std::shuffle(pairs.begin(), pairs.end(), trng);
        for (const auto& [app, mask] : pairs) {
          const double v = analyzer.context_wcet_seconds(app, mask);
          const double expect = ref_table.context_wcet_seconds(app, mask);
          if (!same_bits(v, expect)) ++mismatches[static_cast<std::size_t>(t)];
        }
      });
    }
    for (std::thread& w : workers) w.join();
    for (int t = 0; t < threads; ++t) {
      EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0)
          << threads << " threads, worker " << t;
    }
    const auto stats = analyzer.stats();
    EXPECT_EQ(stats.context_analyses, 12u) << threads << " threads";
  }
}

// ------------------------------------------- evaluator and search modes

/// Two apps with PARTIALLY overlapping footprints on the paper's
/// direct-mapped cache: sets 0..59 hold app A's singletons, sets 40..99
/// app B's, so 40 singleton sets of each survive the other's interference
/// — the context bound lands strictly between warm and cold. (The
/// calibrated-layout generator cannot express this: it pins every program
/// to set 0, which is exactly the paper's everything-evicts regime.)
SystemModel partial_overlap_system() {
  SystemModel sys;
  sys.cache_config = catsched::core::date18_cache_config();
  auto make_app = [&](const char* name, std::uint64_t first_set, double w0,
                      double weight) {
    Application a;
    a.name = name;
    a.program.name = name;
    // 60 singleton lines, one per set, each immediately re-fetched once:
    // cold = 60 misses + 60 hits, warm = 120 hits, and a context loses
    // exactly the overlapped singletons.
    for (std::uint64_t s = first_set; s < first_set + 60; ++s) {
      a.program.trace.push_back(s);
      a.program.trace.push_back(s);
    }
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
    return a;
  };
  sys.apps = {make_app("A", 0, 110.0, 0.6), make_app("B", 40, 140.0, 0.4)};
  return sys;
}

control::DesignOptions fast_options() {
  control::DesignOptions o = catsched::core::date18_design_options();
  o.pso.particles = 12;
  o.pso.iterations = 20;
  o.pso.stall_iterations = 8;
  o.pso_restarts = 1;
  o.scale_budget_with_dims = false;
  return o;
}

TEST(SystemModel, ContextTableSitsBetweenWarmAndColdPairs) {
  const SystemModel sys = partial_overlap_system();
  const std::vector<AppWcet> sim = sys.analyze_wcets();
  const ContextWcetTable table = sys.analyze_context_wcets();
  ASSERT_EQ(table.base.size(), sim.size());
  for (std::size_t i = 0; i < sim.size(); ++i) {
    // Static cold/warm base agrees with the simulator-derived pair.
    EXPECT_TRUE(same_bits(table.base[i].cold_seconds, sim[i].cold_seconds));
    EXPECT_TRUE(same_bits(table.base[i].warm_seconds, sim[i].warm_seconds));
  }
  // The partial overlap makes the cross-context bound land STRICTLY
  // between warm and cold (20 singleton sets survive the other app).
  const double a_vs_b = table.context_wcet_seconds(0, 2);
  EXPECT_GT(a_vs_b, table.base[0].warm_seconds);
  EXPECT_LT(a_vs_b, table.base[0].cold_seconds);
}

TEST(Evaluator, ContextModeShortensPeriodsAndKeepsBinaryModeUntouched) {
  const SystemModel sys = partial_overlap_system();
  Evaluator binary(sys, fast_options());
  Evaluator ctx(sys, fast_options(), nullptr,
                EvaluatorOptions{.context_wcets = true});
  EXPECT_EQ(binary.context_analyzer(), nullptr);
  EXPECT_FALSE(binary.context_wcets());
  EXPECT_TRUE(ctx.context_wcets());
  ASSERT_NE(ctx.context_analyzer(), nullptr);
  for (std::size_t i = 0; i < sys.apps.size(); ++i) {
    EXPECT_TRUE(same_bits(binary.wcets()[i].cold_seconds,
                          ctx.wcets()[i].cold_seconds));
    EXPECT_TRUE(same_bits(binary.wcets()[i].warm_seconds,
                          ctx.wcets()[i].warm_seconds));
  }

  // Alternating schedule: every task burst-opening. Context bounds strictly
  // shorten the period, which is what opens new schedule regions.
  const InterleavedSchedule alt({{0, 1}, {1, 1}, {0, 1}, {1, 1}}, 2);
  const ScheduleEvaluation eb = binary.evaluate(alt);
  const ScheduleEvaluation ec = ctx.evaluate(alt);
  EXPECT_LT(ec.timing.period, eb.timing.period);
}

TEST(Evaluator, ContextNeighborPathBitIdenticalToFromScratch) {
  Evaluator ev(partial_overlap_system(), fast_options(), nullptr,
               EvaluatorOptions{.context_wcets = true});
  const InterleavedSchedule base({{0, 2}, {1, 2}}, 2);
  const std::string base_key = base.to_string();
  const ScheduleEvaluation& base_eval = ev.evaluate_cached(base, base_key);

  InterleavedSearchOptions opts;
  opts.max_segments = 4;
  opts.max_burst = 4;
  int checked = 0;
  for (const InterleavedSchedule& nb : interleaved_neighbors(base, opts)) {
    ++checked;
    const ScheduleEvaluation scratch = ev.evaluate(nb);
    const ScheduleEvaluation& hinted =
        ev.evaluate_cached(nb, nb.to_string(), base_eval);
    ASSERT_TRUE(timing_identical(hinted.timing, scratch.timing))
        << nb.to_string();
    ASSERT_TRUE(same_bits(hinted.pall, scratch.pall)) << nb.to_string();
    ASSERT_EQ(hinted.feasible(), scratch.feasible());
  }
  EXPECT_GT(checked, 0);
}

TEST(InterleavedSearch, SerialAndParallelBitIdenticalWithContexts) {
  const SystemModel sys = partial_overlap_system();
  InterleavedSearchOptions opts;
  opts.max_segments = 4;
  opts.max_burst = 3;
  opts.max_steps = 2;
  const InterleavedSchedule start({{0, 1}, {1, 1}}, 2);

  Evaluator serial_ev(sys, fast_options(), nullptr,
                      EvaluatorOptions{.context_wcets = true});
  const auto serial = interleaved_search(serial_ev, start, opts);

  for (const std::size_t threads : {2u, 4u}) {
    catsched::core::ThreadPool pool(threads);
    Evaluator par_ev(sys, fast_options(), &pool,
                     EvaluatorOptions{.context_wcets = true});
    const auto par = interleaved_search(par_ev, start, opts, &pool);
    EXPECT_EQ(serial.found, par.found) << threads << " threads";
    EXPECT_EQ(serial.best.to_string(), par.best.to_string())
        << threads << " threads";
    EXPECT_TRUE(
        same_bits(serial.best_evaluation.pall, par.best_evaluation.pall))
        << threads << " threads";
    EXPECT_EQ(serial.path, par.path) << threads << " threads";
    EXPECT_EQ(serial.unique_evaluations, par.unique_evaluations)
        << threads << " threads";
  }
}

TEST(Evaluator, CaseStudyContextModeMatchesPaperBaseAndStaysOrdered) {
  // The paper's case study is built so every app evicts every other app's
  // singletons: all cross contexts collapse to the cold bound — the binary
  // model is exactly right there, and context mode must reproduce its
  // cold/warm pairs bit-for-bit.
  const SystemModel sys = catsched::core::date18_case_study();
  const std::vector<AppWcet> sim = sys.analyze_wcets();
  const auto analyzer = sys.make_context_analyzer();
  const auto pairs = analyzer->app_wcets();
  for (std::size_t i = 0; i < sim.size(); ++i) {
    EXPECT_TRUE(same_bits(pairs[i].cold_seconds, sim[i].cold_seconds));
    EXPECT_TRUE(same_bits(pairs[i].warm_seconds, sim[i].warm_seconds));
    for (std::uint64_t mask = 1; mask < 8; ++mask) {
      if ((mask >> i) & 1u) continue;
      const cache::ContextWcet& cw = analyzer->analyze_context(i, mask);
      EXPECT_TRUE(cw.naturally_ordered);
      EXPECT_GE(cw.seconds, pairs[i].warm_seconds);
      EXPECT_LE(cw.seconds, pairs[i].cold_seconds);
    }
  }
}

TEST(Analyzer, CaseStudyCrossContextsCollapseToColdExactly) {
  // On the paper's case study, EVERY nonzero interference context equals the cold bound in
  // exact cycles — each app's singleton sets are fully conflicted by each
  // other app, so aging by any interferer evicts everything reusable. Not
  // just ordered within [warm, cold] (the test above): exact equality, per
  // app and per canonical mask.
  const SystemModel sys = catsched::core::date18_case_study();
  const auto analyzer = sys.make_context_analyzer();
  const std::size_t n = sys.apps.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t cold_cycles = analyzer->base(i).cold.wcet_cycles;
    for (std::uint64_t mask = 1; mask < (std::uint64_t{1} << n); ++mask) {
      if ((mask >> i) & 1u) continue;
      EXPECT_EQ(analyzer->analyze_context(i, mask).cycles, cold_cycles)
          << "app " << i << " mask 0x" << std::hex << mask;
    }
  }
}

// ----------------------------------------------------------- golden pin

/// Absolute cold/warm and context bounds over a pinned generated
/// population, folded into one FNV-1a digest: the oracle for refactors of
/// the abstract domains, the static walk and the context derivation, which
/// must leave every bound, column and count exactly where it is. Per app
/// it folds the base cold and warm results (wcet, AM-only and first-miss
/// penalty cycles, the AH and FM counts, and the misses: every access
/// classified neither AH nor FM), then the clamped cycles of every context
/// mask, mask 0 (warm) included.
TEST(StaticWcetGolden, PopulationBoundsAreBitStable) {
  std::uint64_t digest = 0xcbf29ce484222325ull;
  const auto fold = [&digest](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (v >> (8 * byte)) & 0xffu;
      digest *= 0x100000001b3ull;
    }
  };
  const auto fold_result = [&fold](const cache::StaticWcetResult& r) {
    fold(r.wcet_cycles);
    fold(r.am_only_cycles);
    fold(r.fm_penalty_cycles);
    fold(r.always_hit);
    fold(r.first_miss);
    fold(r.not_classified);
  };
  catsched::testgen::GeneratorConfig g;
  g.way_choices = {1, 2, 4};
  g.branchy_chance = 0.5;
  std::uint64_t entries = 0;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    const SystemModel model = catsched::testgen::generate_system(g, seed).model;
    const auto an = model.make_context_analyzer();
    const std::size_t n = an->num_apps();
    for (std::size_t app = 0; app < n; ++app) {
      fold_result(an->base(app).cold);
      fold_result(an->base(app).warm);
      ++entries;
      for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
        if ((mask >> app) & 1u) continue;
        fold(an->analyze_context(app, mask).cycles);
        ++entries;
      }
    }
  }
  EXPECT_EQ(entries, 893u);
  EXPECT_EQ(digest, 1562642468433955197ull);
}

}  // namespace
