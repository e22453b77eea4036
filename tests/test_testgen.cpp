/// \file test_testgen.cpp
/// \brief Workload generator + invariant-harness tests: the owned RNG's
///        pinned draw sequence (platform determinism), seed-reproduction
///        of generated systems (fingerprint identity across in-process
///        generations), generator validity and the footprint-overlap knob's
///        two limit regimes (disjoint -> contexts stay warm, coincident ->
///        the covered app collapses to cold), the invariant harness passing
///        on generated systems, and the injected-failure self-test: a
///        deliberately false invariant must fail deterministically and
///        shrink to a minimal system.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <set>
#include <vector>

#include "cache/schedule_wcet.hpp"
#include "cache/wcet.hpp"
#include "core/case_study.hpp"
#include "random_program.hpp"
#include "testgen/generator.hpp"
#include "testgen/invariants.hpp"
#include "testgen/rng.hpp"
#include "testgen/shrink.hpp"

namespace {

using catsched::testgen::check_invariants;
using catsched::testgen::FailurePredicate;
using catsched::testgen::generate_system;
using catsched::testgen::GeneratedSystem;
using catsched::testgen::GeneratorConfig;
using catsched::testgen::InvariantOptions;
using catsched::testgen::InvariantReport;
using catsched::testgen::make_invariant_predicate;
using catsched::testgen::shrink_system;
using catsched::testgen::ShrinkResult;
using catsched::testgen::SplitMix64;
using catsched::testgen::system_fingerprint;
namespace cache = catsched::cache;

TEST(Rng, SplitMix64KnownAnswerVectors) {
  // Reference sequence of splitmix64 (Steele/Lea/Flood; cross-checked
  // against an independent implementation). If this ever fails on some
  // platform, the generator's cross-compiler seed contract is broken.
  SplitMix64 a(0);
  EXPECT_EQ(a.next(), 0xE220A8397B1DCDAFull);
  EXPECT_EQ(a.next(), 0x6E789E6AA1B965F4ull);
  EXPECT_EQ(a.next(), 0x06C45D188009454Full);
  SplitMix64 b(0x0123456789ABCDEFull);
  EXPECT_EQ(b.next(), 0x157A3807A48FAA9Dull);
  EXPECT_EQ(b.next(), 0xD573529B34A1D093ull);
  EXPECT_EQ(b.next(), 0x2F90B72E996DCCBEull);
}

TEST(Rng, BoundedDrawsStayInRangeAndShuffleIsAPermutation) {
  SplitMix64 rng(42);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t n = 1 + (rng.next() % 97);
    EXPECT_LT(rng.below(n), n);
    const std::int64_t lo = -5, hi = 17;
    const std::int64_t v = rng.range(lo, hi);
    EXPECT_GE(v, lo);
    EXPECT_LE(v, hi);
    const double u = rng.real01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  std::vector<int> v(23);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // 23! permutations; identity is astronomically rare
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Generator, SeedReproducesTheSystemBitIdentically) {
  // Satellite contract: any seed printed by the fuzz harness replays to
  // the exact same system — here as two in-process generations whose
  // structural fingerprints (and raw fields) agree.
  const GeneratorConfig config;
  for (const std::uint64_t seed : {1ull, 7ull, 20180319ull}) {
    const GeneratedSystem a = generate_system(config, seed);
    const GeneratedSystem b = generate_system(config, seed);
    EXPECT_EQ(system_fingerprint(a.model), system_fingerprint(b.model));
    ASSERT_EQ(a.model.apps.size(), b.model.apps.size());
    for (std::size_t i = 0; i < a.model.apps.size(); ++i) {
      EXPECT_EQ(a.model.apps[i].program.trace, b.model.apps[i].program.trace);
      EXPECT_EQ(a.model.apps[i].weight, b.model.apps[i].weight);
      EXPECT_EQ(a.model.apps[i].tidle, b.model.apps[i].tidle);
    }
    EXPECT_EQ(a.overlap, b.overlap);
    EXPECT_EQ(a.families, b.families);
  }
}

TEST(Generator, DistinctSeedsGiveDistinctFingerprints) {
  const GeneratorConfig config;
  std::set<std::uint64_t> prints;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    prints.insert(system_fingerprint(generate_system(config, seed).model));
  }
  EXPECT_EQ(prints.size(), 32u);
}

TEST(Generator, FingerprintSeesEveryStructuralField) {
  const GeneratorConfig config;
  const GeneratedSystem sys = generate_system(config, 5);
  const std::uint64_t base = system_fingerprint(sys.model);
  auto mutated = sys.model;
  mutated.apps[0].program.trace[0] ^= 1;
  EXPECT_NE(system_fingerprint(mutated), base);
  mutated = sys.model;
  mutated.apps.back().smax *= 1.0000001;
  EXPECT_NE(system_fingerprint(mutated), base);
  mutated = sys.model;
  mutated.cache_config.miss_cycles += 1;
  EXPECT_NE(system_fingerprint(mutated), base);
}

TEST(Generator, BranchyChanceZeroEmitsNoStructuredPrograms) {
  // Draw-neutral default: with the knob at 0 no RNG draws are spent on the
  // branchy path and every app stays a plain trace (old seeds replay
  // bit-identically).
  const GeneratorConfig config;
  for (const std::uint64_t seed : {1ull, 9ull, 77ull}) {
    const GeneratedSystem sys = generate_system(config, seed);
    for (const auto& app : sys.model.apps) {
      EXPECT_FALSE(app.has_structured());
    }
  }
}

TEST(Generator, BranchyModeIsDeterministicAndTraceIsAConcretePath) {
  GeneratorConfig config;
  config.branchy_chance = 1.0;
  std::size_t structured_apps = 0;
  for (const std::uint64_t seed : {3ull, 9ull, 40ull}) {
    const GeneratedSystem a = generate_system(config, seed);
    const GeneratedSystem b = generate_system(config, seed);
    EXPECT_EQ(system_fingerprint(a.model), system_fingerprint(b.model));
    for (const auto& app : a.model.apps) {
      if (!app.has_structured()) continue;
      ++structured_apps;
      // The shrink/replay contract: app.program.trace stays a single
      // CONCRETE path of the structured tree, verbatim.
      const auto paths = catsched::testref::enumerate_paths(app.structured.root, 4096);
      EXPECT_NE(std::find(paths.begin(), paths.end(), app.program.trace),
                paths.end())
          << "trace of " << app.name << " is not a path of its tree";
    }
  }
  EXPECT_GT(structured_apps, 0u);
}

TEST(Generator, FingerprintSeesTheStructuredTree) {
  GeneratorConfig config;
  config.branchy_chance = 1.0;
  const GeneratedSystem sys = generate_system(config, 3);
  auto structured = std::find_if(
      sys.model.apps.begin(), sys.model.apps.end(),
      [](const auto& app) { return app.has_structured(); });
  ASSERT_NE(structured, sys.model.apps.end());
  const std::size_t idx =
      static_cast<std::size_t>(structured - sys.model.apps.begin());
  const std::uint64_t base = system_fingerprint(sys.model);

  auto mutated = sys.model;
  mutated.apps[idx].structured = cache::StructuredProgram{};
  EXPECT_NE(system_fingerprint(mutated), base);

  mutated = sys.model;
  // Branchy construction pins the root shape seq(block, loop): bumping the
  // loop bound must change the fingerprint.
  ASSERT_EQ(mutated.apps[idx].structured.root.kind, cache::Stmt::Kind::seq);
  mutated.apps[idx].structured.root.children[1].bound += 1;
  EXPECT_NE(system_fingerprint(mutated), base);
}

TEST(Generator, GeneratedSystemsAreValidAndAnalyzable) {
  const GeneratorConfig config;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const GeneratedSystem sys = generate_system(config, seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_NO_THROW(sys.model.validate());
    EXPECT_GE(sys.model.apps.size(), config.min_apps);
    EXPECT_LE(sys.model.apps.size(), config.max_apps);
    EXPECT_GE(sys.overlap, 0.0);
    EXPECT_LE(sys.overlap, 1.0);
    const auto& cc = sys.model.cache_config;
    EXPECT_NE(std::find(config.set_choices.begin(), config.set_choices.end(),
                        cc.num_sets()),
              config.set_choices.end());
    EXPECT_NE(std::find(config.way_choices.begin(), config.way_choices.end(),
                        cc.ways()),
              config.way_choices.end());
    // Steady warm state is structural for generated traces.
    const auto wcets = sys.model.analyze_wcets();
    for (const auto& w : wcets) {
      EXPECT_GT(w.warm_seconds, 0.0);
      EXPECT_LE(w.warm_seconds, w.cold_seconds);
    }
  }
}

/// Config pinning the overlap knob's limit regimes: 2 apps, direct-mapped
/// cache, windows small enough that overlap=0 means set-disjoint.
GeneratorConfig overlap_probe_config() {
  GeneratorConfig c;
  c.set_choices = {64};
  c.way_choices = {1};
  c.min_apps = 2;
  c.max_apps = 2;
  c.min_footprint = 0.25;
  c.max_footprint = 0.45;
  return c;
}

TEST(Generator, DisjointFootprintsKeepEveryContextAtWarm) {
  GeneratorConfig config = overlap_probe_config();
  config.overlap = 0.0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const GeneratedSystem sys = generate_system(config, seed);
    const auto analyzer = sys.model.make_context_analyzer();
    for (std::size_t app = 0; app < 2; ++app) {
      const std::uint64_t other_mask = std::uint64_t{1} << (1 - app);
      const auto& warm = analyzer->analyze_context(app, 0);
      const auto& ctx = analyzer->analyze_context(app, other_mask);
      EXPECT_EQ(ctx.cycles, warm.cycles)
          << "seed " << seed << " app " << app
          << ": disjoint interference changed the bound";
    }
  }
}

TEST(Generator, CoincidentFootprintsCollapseTheCoveredAppToCold) {
  GeneratorConfig config = overlap_probe_config();
  config.overlap = 1.0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const GeneratedSystem sys = generate_system(config, seed);
    const auto analyzer = sys.model.make_context_analyzer();
    // Both windows share one base; the narrower app's footprint is fully
    // covered by the wider one, so its cross context equals cold exactly
    // (on a direct-mapped cache one conflicting line per set suffices).
    bool any_cold = false;
    for (std::size_t app = 0; app < 2; ++app) {
      const std::uint64_t other_mask = std::uint64_t{1} << (1 - app);
      const auto cold = cache::analyze_wcet(sys.model.apps[app].program,
                                            sys.model.cache_config);
      any_cold |= analyzer->analyze_context(app, other_mask).cycles ==
                  cold.cold_cycles;
    }
    EXPECT_TRUE(any_cold) << "seed " << seed;
  }
}

TEST(Invariants, HoldOnGeneratedSystems) {
  const GeneratorConfig config;
  InvariantOptions opts;
  opts.check_searches = false;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    const GeneratedSystem sys = generate_system(config, seed);
    const InvariantReport rep = check_invariants(sys.model, seed, opts);
    EXPECT_TRUE(rep.passed) << rep.detail;
  }
}

TEST(Invariants, SearchIdentityTierHoldsOnOneGeneratedSystem) {
  const GeneratorConfig config;
  InvariantOptions opts;  // searches on (the expensive tier)
  const GeneratedSystem sys = generate_system(config, 3);
  const InvariantReport rep = check_invariants(sys.model, 3, opts);
  EXPECT_TRUE(rep.passed) << rep.detail;
  EXPECT_TRUE(rep.searches_checked);
}

TEST(Invariants, ReportIsDeterministicPerSeed) {
  const GeneratorConfig config;
  InvariantOptions opts;
  opts.check_searches = false;
  const GeneratedSystem sys = generate_system(config, 9);
  const InvariantReport a = check_invariants(sys.model, 9, opts);
  const InvariantReport b = check_invariants(sys.model, 9, opts);
  EXPECT_EQ(a.passed, b.passed);
  EXPECT_EQ(a.failed_check, b.failed_check);
  EXPECT_EQ(a.context_strict, b.context_strict);
  EXPECT_EQ(a.rr_feasible, b.rr_feasible);
}

TEST(Shrinker, InjectedFailureReproducesAndShrinks) {
  // The self-test path the acceptance criteria demand: a deliberately
  // false invariant must (1) fail, (2) reproduce from its seed, and
  // (3) shrink to a minimal system that still fails the same check.
  GeneratorConfig config;
  config.way_choices = {1};
  InvariantOptions opts;
  opts.check_searches = false;
  opts.inject_failure = true;
  const std::uint64_t seed = 1;
  const GeneratedSystem sys = generate_system(config, seed);
  const InvariantReport rep = check_invariants(sys.model, seed, opts);
  ASSERT_FALSE(rep.passed);
  EXPECT_EQ(rep.failed_check, "injected-context-below-warm");

  const FailurePredicate fails = make_invariant_predicate(seed, opts);
  EXPECT_EQ(fails(sys.model), rep.failed_check);  // reproduces from seed

  const ShrinkResult shrunk =
      shrink_system(sys.model, rep.failed_check, fails);
  EXPECT_EQ(fails(shrunk.model), rep.failed_check);  // still fails
  // The injected check needs >= 2 apps (a nonzero mask must exist) and
  // nothing else, so the shrinker should reach the structural minimum.
  EXPECT_EQ(shrunk.model.apps.size(), 2u);
  EXPECT_LT(shrunk.sets_after, shrunk.sets_before);
  for (const auto& app : shrunk.model.apps) {
    EXPECT_LE(app.program.trace.size(), 4u);
  }
  EXPECT_GT(shrunk.attempts, 0);
}

TEST(Shrinker, PassingSystemShrinksToNothing) {
  const GeneratorConfig config;
  const GeneratedSystem sys = generate_system(config, 2);
  InvariantOptions opts;
  opts.check_searches = false;
  const FailurePredicate fails = make_invariant_predicate(2, opts);
  // No check fails, so no candidate "reproduces" and the system is kept.
  const ShrinkResult shrunk = shrink_system(sys.model, "wcet-ordering", fails);
  EXPECT_EQ(shrunk.model.apps.size(), sys.model.apps.size());
  EXPECT_EQ(shrunk.removed_apps, 0);
  EXPECT_EQ(shrunk.sets_after, shrunk.sets_before);
}

TEST(SystemWcetGolden, FingerprintsAndWcetPairsAreBitStable) {
  // Pins what the searches start from: every generated system's
  // fingerprint (it covers tidle, which the generator draws as a multiple
  // of the summed cold WCET) and the bits of every analyze_wcets() pair,
  // over a population that mixes trace-only and structured apps, plus the
  // case study. One FNV-1a digest; any drift in either moves it.
  std::uint64_t digest = 0xcbf29ce484222325ull;
  const auto fold = [&digest](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (v >> (8 * byte)) & 0xffu;
      digest *= 0x100000001b3ull;
    }
  };
  const auto fold_seconds = [&fold](double s) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &s, sizeof bits);
    fold(bits);
  };
  std::uint64_t entries = 0;
  const auto fold_system = [&](const catsched::core::SystemModel& model) {
    fold(system_fingerprint(model));
    ++entries;
    for (const catsched::sched::AppWcet& w : model.analyze_wcets()) {
      fold_seconds(w.cold_seconds);
      fold_seconds(w.warm_seconds);
      ++entries;
    }
  };
  GeneratorConfig g;
  g.way_choices = {1, 2, 4};
  g.branchy_chance = 0.5;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    fold_system(generate_system(g, seed).model);
  }
  fold_system(catsched::core::date18_case_study());
  EXPECT_EQ(entries, 117u);
  EXPECT_EQ(digest, 14211818649879086393ull);
}

}  // namespace
