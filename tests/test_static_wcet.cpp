/// \file test_static_wcet.cpp
/// \brief Structured-program and static-WCET tests: tree construction, path
///        enumeration, timing-schema composition, loop first/steady
///        distinction, warm-entry reduction, the leaf sink and its fold
///        (folding a walk's own leaves gives back its counts), and the
///        global soundness property (static bound >= simulated cycles on
///        EVERY path) over randomized programs and cache geometries.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache_model.hpp"
#include "cache/static_wcet.hpp"
#include "cache/structure.hpp"
#include "cache/wcet.hpp"
#include "core/system_model.hpp"
#include "random_program.hpp"
#include "testgen/generator.hpp"

namespace {

using catsched::cache::analyze_static_steady_wcet;
using catsched::cache::analyze_static_wcet;
using catsched::cache::CacheConfig;
using catsched::cache::CachePair;
using catsched::cache::CacheSim;
using catsched::cache::fold_leaves;
using catsched::cache::PassCounts;
using catsched::cache::StaticAnalysisMemo;
using catsched::cache::StaticWcetCounts;
using catsched::cache::StaticWcetResult;
using catsched::cache::Stmt;
using catsched::cache::StructuredProgram;
using catsched::testref::enumerate_paths;
using catsched::testref::make_random_program;
using catsched::testref::RandomProgramOptions;

CacheConfig cfg(std::size_t lines, std::size_t assoc) {
  CacheConfig c;
  c.num_lines = lines;
  c.associativity = assoc;
  return c;
}

/// loop(4) { if (c) {0} else {1}; {2, 3} }: on 8 sets x 2 ways neither arm
/// line ever enters the must state, so first-miss fires (the pin below).
StructuredProgram branchy_pin() {
  StructuredProgram p;
  p.name = "branchy";
  p.root = Stmt::loop(
      Stmt::seq({Stmt::branch(Stmt::block({0}), Stmt::block({1})),
                 Stmt::block({2, 3})}),
      4);
  return p;
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
  const auto app = analyze_static_steady_wcet(p, c);
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
    const auto stat = analyze_static_steady_wcet(prog, c);
    catsched::cache::Program single_path;
    single_path.trace = enumerate_paths(prog.root, 1).front();
    const auto sim = catsched::cache::analyze_wcet(single_path, c, 4);
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
  const StructuredProgram p = branchy_pin();
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

TEST(FirstMiss, NeverLoosensAndMemoIsBitIdentical) {
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
      // FM can only tighten the AM-only column, and where no FM point
      // fires anywhere in the walk (no penalty) the two coincide.
      EXPECT_LE(on.wcet_cycles, on.am_only_cycles);
      if (on.fm_penalty_cycles == 0) {
        EXPECT_EQ(on.wcet_cycles, on.am_only_cycles);
      }

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

TEST(FirstMiss, BranchFreeProgramsEqualTheAmOnlyBound) {
  // On a single path the persistence age never undercuts the must age, so
  // first-miss cannot fire and the bound is the AM-only one bit for bit —
  // the guarantee that lifting a trace reproduces its CacheSim replay.
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
    EXPECT_EQ(on.first_miss, 0u);
    EXPECT_EQ(on.fm_penalty_cycles, 0u);
    EXPECT_EQ(on.wcet_cycles, on.am_only_cycles);
  }
}

TEST(FirstMiss, NeverFiresOnBranchFreeTreesFromAnyEntry) {
  // On a tree without a branch, every fetch's classification equals its
  // must-only one (AH exactly when the must state holds the line): the
  // only joins are loop heads, after a peeled first iteration that already
  // accessed every line of the body, so a line accessed in this run keeps
  // its must age at or below its persistence age (docs/ARCHITECTURE.md,
  // "First-miss on branch-free trees"). Whatever the entry, cold, a warm
  // exit or an aged one, no counted block instance holds a first-miss
  // point.
  struct Geometry {
    std::size_t lines;
    std::size_t assoc;
  };
  for (const Geometry geo : {Geometry{16, 1}, Geometry{16, 2},
                             Geometry{32, 4}, Geometry{8, 0}}) {
    const CacheConfig c = cfg(geo.lines, geo.assoc);
    for (std::uint32_t seed = 1; seed <= 60; ++seed) {
      RandomProgramOptions opts;
      opts.seed = seed;
      opts.max_depth = 3;
      opts.branch_probability = 0.0;  // loops and blocks only
      opts.max_loop_bound = 5;
      opts.address_lines = 3 * geo.lines;
      const auto prog = make_random_program("branch-free", opts);
      ASSERT_EQ(catsched::testref::branch_count(prog.root), 0u);
      const auto steady = analyze_static_steady_wcet(prog, c);
      CachePair aged = steady.generic_exit;
      for (std::size_t s = 0; s < c.num_sets(); ++s) {
        aged.age_interference_set(
            s, static_cast<std::uint32_t>(1 + (s + seed) % c.ways()));
      }
      const std::vector<std::pair<std::string, std::optional<CachePair>>>
          entries{{"cold", std::nullopt},
                  {"cold exit", steady.cold.exit_state},
                  {"warm exit", steady.warm.exit_state},
                  {"generic exit", steady.generic_exit},
                  {"aged generic exit", aged}};
      for (const auto& [name, entry] : entries) {
        const std::string where = std::to_string(c.num_sets()) + " sets x " +
                                  std::to_string(c.ways()) + " ways, seed " +
                                  std::to_string(seed) + ", " + name;
        std::vector<PassCounts> leaves;
        const StaticWcetResult r =
            analyze_static_wcet(prog, c, entry, nullptr, &leaves);
        EXPECT_EQ(r.first_miss, 0u) << where;
        EXPECT_EQ(r.fm_penalty_cycles, 0u) << where;
        EXPECT_EQ(r.wcet_cycles, r.am_only_cycles) << where;
        for (std::size_t i = 0; i < leaves.size(); ++i) {
          EXPECT_EQ(leaves[i].fm, 0u) << where << ", leaf " << i;
          EXPECT_EQ(leaves[i].penalty, 0u) << where << ", leaf " << i;
        }
      }
    }
  }
}

// --------------------------------------------------------------------------
// Leaf sink and fold: the walk's counted block instances, composed again by
// fold_leaves, give back the walk's own counts (the identity the context
// analyzer's per-set derivation rests on).

/// Counted block instances: each block contributes 2^(enclosing loops of
/// bound > 1), a loop of bound > 1 walking its body twice (first, steady).
std::size_t counted_instances(const Stmt& stmt, std::size_t weight = 1) {
  if (stmt.kind == Stmt::Kind::block) return weight;
  if (stmt.kind == Stmt::Kind::loop && stmt.bound > 1) weight *= 2;
  std::size_t n = 0;
  for (const Stmt& child : stmt.children) n += counted_instances(child, weight);
  return n;
}

void expect_same_counts(const StaticWcetCounts& got,
                        const StaticWcetCounts& want, const std::string& where) {
  EXPECT_EQ(got.wcet_cycles, want.wcet_cycles) << where;
  EXPECT_EQ(got.am_only_cycles, want.am_only_cycles) << where;
  EXPECT_EQ(got.fm_penalty_cycles, want.fm_penalty_cycles) << where;
  EXPECT_EQ(got.always_hit, want.always_hit) << where;
  EXPECT_EQ(got.first_miss, want.first_miss) << where;
  EXPECT_EQ(got.not_classified, want.not_classified) << where;
}

/// From the cold pair, the warm exit and an aged generic exit, with and
/// without a memo (a warmed one too: hits carry no leaves), the leaves
/// number the counted block instances and fold to the walk's counts.
void check_fold_identity(const StructuredProgram& p, const CacheConfig& c,
                         const std::string& label) {
  const auto steady = analyze_static_steady_wcet(p, c);
  CachePair aged = steady.generic_exit;
  for (std::size_t s = 0; s < c.num_sets(); s += 2) {
    aged.age_interference_set(s, static_cast<std::uint32_t>(1 + s % 3));
  }
  const std::vector<std::pair<std::string, std::optional<CachePair>>> entries{
      {"cold", std::nullopt},
      {"warm exit", steady.warm.exit_state},
      {"aged generic exit", aged}};
  const std::size_t instances = counted_instances(p.root);
  for (const auto& [name, entry] : entries) {
    const StaticWcetResult want = analyze_static_wcet(p, c, entry);
    StaticAnalysisMemo memo;
    for (StaticAnalysisMemo* m : {static_cast<StaticAnalysisMemo*>(nullptr),
                                  &memo, &memo}) {
      const std::string where = label + ", " + name +
                                (m == nullptr ? "" : ", memo") +
                                (m != nullptr && m->size() > 0 ? " warmed" : "");
      std::vector<PassCounts> leaves;
      const StaticWcetResult walked = analyze_static_wcet(p, c, entry, m, &leaves);
      ASSERT_EQ(leaves.size(), instances) << where;
      expect_same_counts(walked, want, where);
      EXPECT_TRUE(walked.exit_state == want.exit_state) << where;
      expect_same_counts(fold_leaves(p.root, leaves), want, where);
    }
  }
}

TEST(FoldLeaves, RebuildsTheWalkOnTheBranchyFirstMissPin) {
  for (const CacheConfig& c : {cfg(16, 2), cfg(8, 1), cfg(8, 0)}) {
    check_fold_identity(branchy_pin(), c,
                        "pin on " + std::to_string(c.num_sets()) + " sets");
  }
  // First-miss fires in the pin, so the penalty column is exercised.
  std::vector<PassCounts> leaves;
  analyze_static_wcet(branchy_pin(), cfg(16, 2), std::nullopt, nullptr,
                      &leaves);
  EXPECT_GT(fold_leaves(branchy_pin().root, leaves).fm_penalty_cycles, 0u);
}

TEST(FoldLeaves, RebuildsTheWalkOnGeneratedStructuredPrograms) {
  catsched::testgen::GeneratorConfig g;
  g.min_apps = 4;
  g.max_apps = 6;
  g.set_choices = {8, 16};
  g.branchy_chance = 1.0;
  std::size_t structured = 0;
  for (const std::size_t ways : {1u, 2u, 4u}) {
    g.way_choices = {ways};
    for (std::uint64_t seed = 900; seed < 904; ++seed) {
      const auto sys = catsched::testgen::generate_system(g, seed).model;
      for (std::size_t i = 0; i < sys.apps.size(); ++i) {
        if (!sys.apps[i].has_structured()) continue;
        ++structured;
        CacheConfig c = sys.cache_config;
        check_fold_identity(sys.apps[i].analysis_program(), c,
                            "seed " + std::to_string(seed) + " ways " +
                                std::to_string(ways) + " app " +
                                std::to_string(i));
        // The same tree with a hit dearer than a miss, where first-miss
        // and not-classified accesses cost the same.
        c.hit_cycles = 9;
        c.miss_cycles = 2;
        check_fold_identity(sys.apps[i].analysis_program(), c,
                            "hit 9 miss 2, seed " + std::to_string(seed));
      }
    }
  }
  EXPECT_GT(structured, 20u);
}

TEST(FoldLeaves, RejectsALeafCountThatDoesNotMatchTheTree) {
  const StructuredProgram p = branchy_pin();
  std::vector<PassCounts> leaves;
  analyze_static_wcet(p, cfg(16, 2), std::nullopt, nullptr, &leaves);
  ASSERT_EQ(leaves.size(), 6u);  // 3 blocks, each in a first and a steady pass
  std::vector<PassCounts> short_by_one(leaves.begin(), leaves.end() - 1);
  EXPECT_THROW(fold_leaves(p.root, short_by_one), std::invalid_argument);
  leaves.push_back(PassCounts{});
  EXPECT_THROW(fold_leaves(p.root, leaves), std::invalid_argument);
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

  const auto stat = analyze_static_steady_wcet(prog, c);
  const auto paths = enumerate_paths(prog.root, 512);
  for (const auto& first : paths) {
    for (const auto& second : paths) {
      CacheSim sim(c);
      sim.run_trace(first);
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
