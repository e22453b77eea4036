/// \file test_static_wcet.cpp
/// \brief Structured-program and static-WCET tests: tree construction, path
///        enumeration, timing-schema composition, loop first/steady
///        distinction, warm-entry reduction, and the global soundness
///        property (static bound >= simulated cycles on EVERY path) over
///        randomized programs and cache geometries.

#include <gtest/gtest.h>

#include <algorithm>

#include "cache/cache_model.hpp"
#include "cache/static_wcet.hpp"
#include "cache/structure.hpp"
#include "cache/wcet.hpp"

namespace {

using catsched::cache::analyze_static_app_wcet;
using catsched::cache::analyze_static_wcet;
using catsched::cache::CacheConfig;
using catsched::cache::CacheSim;
using catsched::cache::enumerate_paths;
using catsched::cache::flatten_to_program;
using catsched::cache::make_random_program;
using catsched::cache::RandomProgramOptions;
using catsched::cache::StaticWcetResult;
using catsched::cache::Stmt;
using catsched::cache::StructuredProgram;

CacheConfig cfg(std::size_t lines, std::size_t assoc) {
  CacheConfig c;
  c.num_lines = lines;
  c.associativity = assoc;
  return c;
}

TEST(Stmt, FactoriesEnforceInvariants) {
  EXPECT_THROW(Stmt::loop(Stmt::block({1}), 0), std::invalid_argument);
  const Stmt s = Stmt::seq({Stmt::block({1, 2}), Stmt::block({3})});
  EXPECT_EQ(s.max_path_accesses(), 3u);
  const Stmt b = Stmt::branch(Stmt::block({1, 2, 3}), Stmt::block({4}));
  EXPECT_EQ(b.max_path_accesses(), 3u);  // max over arms
  const Stmt l = Stmt::loop(Stmt::block({1, 2}), 5);
  EXPECT_EQ(l.max_path_accesses(), 10u);
}

TEST(EnumeratePaths, CountsAndContents) {
  // if (c1) {1} else {2}; if (c2) {3} else {4} -> 4 paths.
  const Stmt root = Stmt::seq({Stmt::branch(Stmt::block({1}), Stmt::block({2})),
                               Stmt::branch(Stmt::block({3}),
                                            Stmt::block({4}))});
  auto paths = enumerate_paths(root);
  ASSERT_EQ(paths.size(), 4u);
  std::sort(paths.begin(), paths.end());
  EXPECT_EQ(paths[0], (std::vector<std::uint64_t>{1, 3}));
  EXPECT_EQ(paths[3], (std::vector<std::uint64_t>{2, 4}));
}

TEST(EnumeratePaths, LoopUnrollsBoundTimes) {
  const Stmt root = Stmt::loop(Stmt::block({7, 8}), 3);
  const auto paths = enumerate_paths(root);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0], (std::vector<std::uint64_t>{7, 8, 7, 8, 7, 8}));
}

TEST(EnumeratePaths, ThrowsOnExplosion) {
  // 13 sequential branches -> 8192 paths > default 4096 cap.
  std::vector<Stmt> stmts;
  for (int i = 0; i < 13; ++i) {
    stmts.push_back(Stmt::branch(Stmt::block({1}), Stmt::block({2})));
  }
  EXPECT_THROW(enumerate_paths(Stmt::seq(std::move(stmts))),
               std::length_error);
}

TEST(SamplePaths, KnownAnswerForFixedSeed) {
  // Pins the coin: every branch decision is one SplitMix64 chance(0.5)
  // draw, in path order, so a failing fuzz seed replays on any standard
  // library. loop(3) { if {1} else {2} }; if {3} else {4}.
  const Stmt root = Stmt::seq(
      {Stmt::loop(Stmt::branch(Stmt::block({1}), Stmt::block({2})), 3),
       Stmt::branch(Stmt::block({3}), Stmt::block({4}))});
  const std::vector<std::vector<std::uint64_t>> expected = {
      {2, 1, 1, 3}, {1, 2, 1, 4}, {1, 2, 1, 3}, {2, 2, 2, 3}};
  EXPECT_EQ(catsched::cache::sample_paths(root, 4, 42), expected);
}

TEST(FlattenToProgram, RejectsBranches) {
  StructuredProgram p;
  p.root = Stmt::branch(Stmt::block({1}), Stmt::block({2}));
  EXPECT_THROW(flatten_to_program(p), std::invalid_argument);
}

TEST(StaticWcet, StraightLineColdAllMisses) {
  StructuredProgram p;
  p.name = "straight";
  p.root = Stmt::block({0, 1, 2, 3});
  const CacheConfig c = cfg(8, 1);
  const StaticWcetResult r = analyze_static_wcet(p, c);
  EXPECT_EQ(r.not_classified, 4u);
  EXPECT_EQ(r.always_hit, 0u);
  EXPECT_EQ(r.wcet_cycles, 4u * c.miss_cycles);
}

TEST(StaticWcet, RepeatedLineIsAlwaysHit) {
  StructuredProgram p;
  p.root = Stmt::block({0, 0, 0});
  const CacheConfig c = cfg(8, 1);
  const StaticWcetResult r = analyze_static_wcet(p, c);
  EXPECT_EQ(r.not_classified, 1u);
  EXPECT_EQ(r.always_hit, 2u);
  EXPECT_EQ(r.wcet_cycles, c.miss_cycles + 2u * c.hit_cycles);
}

TEST(StaticWcet, BranchTakesCostlierArm) {
  // then: 3 distinct cold lines (3 misses); else: 1 line (1 miss).
  StructuredProgram p;
  p.root = Stmt::branch(Stmt::block({0, 1, 2}), Stmt::block({3}));
  const CacheConfig c = cfg(8, 1);
  const StaticWcetResult r = analyze_static_wcet(p, c);
  EXPECT_EQ(r.wcet_cycles, 3u * c.miss_cycles);
  // After the branch, neither arm's lines are guaranteed: a following
  // access to line 0 cannot be AH.
  StructuredProgram p2;
  p2.root = Stmt::seq({Stmt::branch(Stmt::block({0, 1, 2}), Stmt::block({3})),
                       Stmt::block({0})});
  const StaticWcetResult r2 = analyze_static_wcet(p2, c);
  EXPECT_EQ(r2.wcet_cycles, 3u * c.miss_cycles + c.miss_cycles);
}

TEST(StaticWcet, LoopFirstIterationMissesRestHit) {
  // Loop body of 2 lines fitting the cache: iteration 1 misses both,
  // iterations 2..5 hit both (the classic first-miss pattern).
  StructuredProgram p;
  p.root = Stmt::loop(Stmt::block({0, 1}), 5);
  const CacheConfig c = cfg(8, 1);
  const StaticWcetResult r = analyze_static_wcet(p, c);
  EXPECT_EQ(r.not_classified, 2u);
  EXPECT_EQ(r.always_hit, 8u);
  EXPECT_EQ(r.wcet_cycles, 2u * c.miss_cycles + 8u * c.hit_cycles);
}

TEST(StaticWcet, ConflictingLoopLinesNeverBecomeHits) {
  // Two lines in the same direct-mapped set evict each other every
  // iteration: all accesses are misses, in every iteration.
  StructuredProgram p;
  p.root = Stmt::loop(Stmt::block({0, 8}), 4);  // 8 sets: both map to set 0
  const CacheConfig c = cfg(8, 1);
  const StaticWcetResult r = analyze_static_wcet(p, c);
  EXPECT_EQ(r.always_hit, 0u);
  // Persistence must not rescue self-conflicting lines either: each access
  // evicts the other line, so neither is ever first-miss.
  EXPECT_EQ(r.first_miss, 0u);
  EXPECT_EQ(r.wcet_cycles, 8u * c.miss_cycles);
}

TEST(StaticWcet, AssociativityRescuesConflictingLines) {
  // The same two conflicting lines in a 2-way cache coexist: steady
  // iterations hit.
  StructuredProgram p;
  p.root = Stmt::loop(Stmt::block({0, 8}), 4);
  const CacheConfig c = cfg(8, 2);  // 4 sets x 2 ways
  const StaticWcetResult r = analyze_static_wcet(p, c);
  EXPECT_EQ(r.not_classified, 2u);
  EXPECT_EQ(r.always_hit, 6u);
}

TEST(StaticWcet, WarmEntryCertifiesReduction) {
  // A small straight-line program re-executed back-to-back: the warm bound
  // must certify every fitting line as AH.
  StructuredProgram p;
  p.root = Stmt::block({0, 1, 2, 3});
  const CacheConfig c = cfg(8, 1);
  const auto app = analyze_static_app_wcet(p, c);
  EXPECT_EQ(app.cold.not_classified, 4u);
  EXPECT_EQ(app.warm.always_hit, 4u);
  EXPECT_EQ(app.reduction_cycles(), 4u * (c.miss_cycles - c.hit_cycles));
}

TEST(StaticWcet, WarmReductionMatchesSimulatorOnBranchFreePrograms) {
  // For branch-free programs the static warm analysis and the concrete
  // warm simulation must agree exactly (single path, exact abstraction of
  // one concrete state).
  for (std::uint32_t seed : {1u, 2u, 3u, 4u, 5u}) {
    RandomProgramOptions opts;
    opts.seed = seed;
    opts.branch_probability = 0.0;  // loops only
    opts.address_lines = 24;
    const auto prog = make_random_program("bf", opts);
    const CacheConfig c = cfg(16, 2);
    const auto stat = analyze_static_app_wcet(prog, c);
    const auto sim = catsched::cache::analyze_wcet(flatten_to_program(prog),
                                                   c, 4);
    EXPECT_GE(stat.cold.wcet_cycles, sim.cold_cycles) << "seed " << seed;
    EXPECT_GE(stat.warm.wcet_cycles, sim.warm_cycles) << "seed " << seed;
  }
}

// --------------------------------------------------------------------------
// First-miss (persistence) pins: the branchy-loop shapes the must domain
// alone cannot tighten. The classification and both cycle columns
// (FM composition and AM-only) are pinned exactly.

TEST(FirstMiss, BranchyLoopChargesEachArmLineOneMissThenHits) {
  // loop(4) { if (c) {a=0} else {b=1}; {2, 3} } on 8 sets x 2 ways: no two
  // lines share a set, yet neither arm line ever enters the must state
  // (each is absent from the other arm's path). AM-only charges the arm
  // access a miss in EVERY iteration; persistence proves each arm line
  // misses at most once over the run, so iterations 2..4 charge a hit plus
  // a single one-time penalty.
  StructuredProgram p;
  p.name = "branchy";
  p.root = Stmt::loop(
      Stmt::seq({Stmt::branch(Stmt::block({0}), Stmt::block({1})),
                 Stmt::block({2, 3})}),
      4);
  const CacheConfig c = cfg(16, 2);  // 8 sets x 2 ways
  const StaticWcetResult r = analyze_static_wcet(p, c);
  EXPECT_EQ(r.not_classified, 3u);  // iteration 1: arm + both shared lines
  EXPECT_EQ(r.always_hit, 6u);      // shared lines, iterations 2..4
  EXPECT_EQ(r.first_miss, 3u);      // the arm access, iterations 2..4
  EXPECT_EQ(r.fm_penalty_cycles, c.miss_cycles - c.hit_cycles);
  EXPECT_EQ(r.am_only_cycles, 6u * c.miss_cycles + 6u * c.hit_cycles);
  EXPECT_EQ(r.wcet_cycles, 4u * c.miss_cycles + 8u * c.hit_cycles);
  EXPECT_LT(r.wcet_cycles, r.am_only_cycles);

  // Differential: the FM bound is not just sound but EXACT here — the
  // worst concrete path (alternating arms: a and b each miss once) costs
  // exactly the bound.
  std::uint64_t worst_sim = 0;
  for (const auto& path : enumerate_paths(p.root, 4096)) {
    CacheSim sim(c);
    worst_sim = std::max(worst_sim, sim.run_trace(path));
  }
  EXPECT_EQ(r.wcet_cycles, worst_sim);
}

TEST(FirstMiss, NeverLoosensAndOffModeReproducesAmOnly) {
  using catsched::cache::FirstMiss;
  using catsched::cache::StaticAnalysisMemo;
  for (const std::uint32_t seed : {201u, 202u, 203u, 204u}) {
    RandomProgramOptions opts;
    opts.seed = seed;
    opts.max_depth = 3;
    opts.branch_probability = 0.5;
    opts.max_loop_bound = 4;
    opts.address_lines = 24;
    const auto prog = make_random_program("fm", opts);
    for (const CacheConfig& c : {cfg(8, 1), cfg(16, 2), cfg(32, 4)}) {
      const StaticWcetResult on = analyze_static_wcet(prog, c);
      const StaticWcetResult off = analyze_static_wcet(
          prog, c, std::nullopt, nullptr, FirstMiss::off);
      // FM can only tighten, and off-mode is the exact AM-only bound.
      EXPECT_LE(on.wcet_cycles, on.am_only_cycles);
      EXPECT_EQ(off.wcet_cycles, off.am_only_cycles);
      EXPECT_EQ(off.am_only_cycles, on.am_only_cycles);
      EXPECT_EQ(off.first_miss, 0u);
      EXPECT_EQ(off.fm_penalty_cycles, 0u);
      // Off-mode reports would-be FM points as NC; AH is mode-free.
      EXPECT_EQ(off.not_classified, on.not_classified + on.first_miss);
      EXPECT_EQ(off.always_hit, on.always_hit);
      EXPECT_EQ(off.exit_state, on.exit_state);

      // Memoized analyses are bit-identical to memo-less ones, cold run
      // and pure-hit rerun alike.
      StaticAnalysisMemo memo;
      const StaticWcetResult first =
          analyze_static_wcet(prog, c, std::nullopt, &memo);
      const StaticWcetResult rerun =
          analyze_static_wcet(prog, c, std::nullopt, &memo);
      for (const StaticWcetResult* m : {&first, &rerun}) {
        EXPECT_EQ(m->wcet_cycles, on.wcet_cycles);
        EXPECT_EQ(m->am_only_cycles, on.am_only_cycles);
        EXPECT_EQ(m->fm_penalty_cycles, on.fm_penalty_cycles);
        EXPECT_EQ(m->first_miss, on.first_miss);
        EXPECT_EQ(m->not_classified, on.not_classified);
        EXPECT_TRUE(m->exit_state == on.exit_state);
      }
    }
  }
}

TEST(FirstMiss, BranchFreeProgramsAreBitIdenticalInBothModes) {
  // On a single path the persistence age never undercuts the must age, so
  // first-miss cannot fire and FM-on reproduces the legacy AM-only result
  // bit for bit — the compatibility guarantee for trace-lifted programs.
  using catsched::cache::FirstMiss;
  for (const std::uint32_t seed : {31u, 32u, 33u}) {
    RandomProgramOptions opts;
    opts.seed = seed;
    opts.max_depth = 3;
    opts.branch_probability = 0.0;  // loops and blocks only: one path
    opts.max_loop_bound = 5;
    opts.address_lines = 20;
    const auto prog = make_random_program("single", opts);
    const CacheConfig c = cfg(16, 2);
    const StaticWcetResult on = analyze_static_wcet(prog, c);
    const StaticWcetResult off = analyze_static_wcet(
        prog, c, std::nullopt, nullptr, FirstMiss::off);
    EXPECT_EQ(on.first_miss, 0u);
    EXPECT_EQ(on.fm_penalty_cycles, 0u);
    EXPECT_EQ(on.wcet_cycles, off.wcet_cycles);
    EXPECT_EQ(on.wcet_cycles, on.am_only_cycles);
  }
}

struct SoundnessCase {
  std::uint32_t seed;
  std::size_t lines;
  std::size_t assoc;
};

class StaticWcetSoundnessSweep
    : public ::testing::TestWithParam<SoundnessCase> {};

/// THE soundness property: the static WCET bound dominates the simulated
/// cycle count of every concrete path of the program, from a cold cache.
TEST_P(StaticWcetSoundnessSweep, BoundDominatesEveryPath) {
  const auto pc = GetParam();
  RandomProgramOptions opts;
  opts.seed = pc.seed;
  opts.max_depth = 3;
  opts.branch_probability = 0.4;
  opts.max_loop_bound = 4;
  opts.address_lines = 2 * pc.lines;
  const auto prog = make_random_program("rand", opts);
  const CacheConfig c = cfg(pc.lines, pc.assoc);

  const StaticWcetResult bound = analyze_static_wcet(prog, c);
  std::vector<std::vector<std::uint64_t>> paths;
  try {
    paths = enumerate_paths(prog.root, 4096);  // exhaustive when feasible
  } catch (const std::length_error&) {
    paths = catsched::cache::sample_paths(prog.root, 4096, pc.seed);
  }
  std::uint64_t worst_sim = 0;
  for (const auto& path : paths) {
    CacheSim sim(c);
    worst_sim = std::max(worst_sim, sim.run_trace(path));
  }
  EXPECT_GE(bound.wcet_cycles, worst_sim)
      << "unsound bound on seed " << pc.seed << " (" << paths.size()
      << " paths)";
  // Sanity: the bound is not absurdly loose either (every access a miss).
  EXPECT_LE(bound.wcet_cycles,
            prog.root.max_path_accesses() * c.miss_cycles);
}

INSTANTIATE_TEST_SUITE_P(
    RandomPrograms, StaticWcetSoundnessSweep,
    ::testing::Values(SoundnessCase{101, 8, 1}, SoundnessCase{102, 8, 2},
                      SoundnessCase{103, 16, 1}, SoundnessCase{104, 16, 4},
                      SoundnessCase{105, 32, 2}, SoundnessCase{106, 8, 0},
                      SoundnessCase{107, 16, 2}, SoundnessCase{108, 32, 8},
                      SoundnessCase{109, 8, 4}, SoundnessCase{110, 64, 4},
                      SoundnessCase{111, 16, 8}, SoundnessCase{112, 32, 1}));

class WarmSoundnessSweep : public ::testing::TestWithParam<std::uint32_t> {};

/// Warm-entry soundness: re-running any path right after any other path of
/// the same program costs no more than the static warm bound.
TEST_P(WarmSoundnessSweep, WarmBoundDominatesBackToBackPaths) {
  RandomProgramOptions opts;
  opts.seed = GetParam();
  opts.max_depth = 2;
  opts.branch_probability = 0.5;
  opts.max_loop_bound = 3;
  opts.address_lines = 20;
  const auto prog = make_random_program("warm", opts);
  const CacheConfig c = cfg(16, 2);

  const auto stat = analyze_static_app_wcet(prog, c);
  const auto paths = enumerate_paths(prog.root, 512);
  for (const auto& first : paths) {
    for (const auto& second : paths) {
      CacheSim sim(c);
      sim.run_trace(first);
      sim.reset_counters();
      const std::uint64_t warm_cycles = sim.run_trace(second);
      ASSERT_LE(warm_cycles, stat.warm.wcet_cycles)
          << "unsound warm bound, seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WarmSoundnessSweep,
                         ::testing::Values(21u, 22u, 23u, 24u, 25u, 26u));

TEST(RandomProgram, DeterministicForSeed) {
  RandomProgramOptions opts;
  opts.seed = 7;
  const auto a = make_random_program("a", opts);
  const auto b = make_random_program("b", opts);
  EXPECT_EQ(enumerate_paths(a.root, 4096), enumerate_paths(b.root, 4096));
}

}  // namespace
