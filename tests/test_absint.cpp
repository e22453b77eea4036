/// \file test_absint.cpp
/// \brief Abstract cache domain tests: transfer-function semantics on
///        direct-mapped and set-associative LRU caches, join laws, and the
///        fundamental soundness property against the concrete CacheSim --
///        must-hits are real hits on EVERY concrete execution, for
///        randomized access sequences.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include "cache/absint.hpp"
#include "cache/cache_model.hpp"

namespace {

using catsched::cache::AbstractCacheState;
using catsched::cache::CacheConfig;
using catsched::cache::CachePair;
using catsched::cache::CacheSim;
using catsched::cache::Classification;
using catsched::cache::LineAge;

CacheConfig small_cache(std::size_t lines, std::size_t assoc) {
  CacheConfig c;
  c.num_lines = lines;
  c.associativity = assoc;
  return c;
}

TEST(MustState, RepeatAccessBecomesGuaranteed) {
  AbstractCacheState must(small_cache(8, 2), AbstractCacheState::Kind::must);
  EXPECT_FALSE(must.contains(3));
  must.access(3);
  EXPECT_TRUE(must.contains(3));
  EXPECT_EQ(must.age(3), 0u);
}

TEST(MustState, AgeingEvictsAtAssociativity) {
  // 2-way cache, one set (fully associative over 2 lines): the third
  // distinct line in a set pushes the oldest out of the must state.
  AbstractCacheState must(small_cache(2, 2), AbstractCacheState::Kind::must);
  must.access(0);
  must.access(2);  // same set (addresses mod 1 set)
  must.access(4);
  EXPECT_FALSE(must.contains(0));
  EXPECT_TRUE(must.contains(2));
  EXPECT_TRUE(must.contains(4));
}

TEST(MustState, HitDoesNotAgeOlderLines) {
  // LRU semantics: re-accessing a young line must not age lines older than
  // it (they were already older; their relative position is unchanged).
  AbstractCacheState must(small_cache(4, 4), AbstractCacheState::Kind::must);
  must.access(0);
  must.access(4);
  must.access(8);   // ages: 8->0, 4->1, 0->2
  must.access(8);   // re-access MRU: nothing else ages
  EXPECT_EQ(must.age(0), 2u);
  EXPECT_EQ(must.age(4), 1u);
  EXPECT_EQ(must.age(8), 0u);
}

TEST(MustJoin, IntersectionWithMaxAge) {
  const CacheConfig cfg = small_cache(4, 4);
  AbstractCacheState a(cfg, AbstractCacheState::Kind::must);
  AbstractCacheState b(cfg, AbstractCacheState::Kind::must);
  a.access(0);
  a.access(4);  // a: {4:0, 0:1}
  b.access(4);
  b.access(8);  // b: {8:0, 4:1}
  a.join(b);
  EXPECT_TRUE(a.contains(4));   // only 4 survives the intersection
  EXPECT_FALSE(a.contains(0));
  EXPECT_FALSE(a.contains(8));
  EXPECT_EQ(a.age(4), 1u);      // max(0, 1)
}

TEST(JoinLaws, JoinIsIdempotentAndMonotoneOnExamples) {
  const CacheConfig cfg = small_cache(8, 2);
  AbstractCacheState a(cfg, AbstractCacheState::Kind::must);
  a.access(1);
  a.access(3);
  AbstractCacheState copy = a;
  copy.join(a);
  EXPECT_EQ(copy, a);  // x join x = x
}

TEST(Join, ThrowsOnKindMismatch) {
  const CacheConfig cfg = small_cache(8, 2);
  AbstractCacheState must(cfg, AbstractCacheState::Kind::must);
  AbstractCacheState persistence(cfg, AbstractCacheState::Kind::persistence);
  EXPECT_THROW(must.join(persistence), std::invalid_argument);
}

TEST(CachePairClassify, ColdAccessIsNotClassified) {
  CachePair pair(small_cache(8, 2));
  EXPECT_EQ(pair.classify(5), Classification::not_classified);
  pair.access(5);
  EXPECT_EQ(pair.classify(5), Classification::always_hit);
}

TEST(CachePairClassify, JoinOfDivergentPathsGivesFirstMissWhenAssociative) {
  const CacheConfig cfg = small_cache(8, 2);
  CachePair then_path(cfg);
  CachePair else_path(cfg);
  then_path.access(1);  // line 1 cached only on the then-path
  then_path.join(else_path);
  // After the join, 1 is not guaranteed (must) — yet the persistence
  // domain keeps the one-sided entry at bumped age 1 < 2 ways, so the
  // access point is provably a first-miss, not unclassifiable.
  EXPECT_EQ(then_path.classify(1), Classification::first_miss);
}

TEST(CachePairClassify, JoinOfDivergentPathsDirectMappedStaysNotClassified) {
  // Direct-mapped: the one-sided join bump max(age, 1) already reaches the
  // associativity, so persistence cannot rescue the classification.
  const CacheConfig cfg = small_cache(8, 1);
  CachePair then_path(cfg);
  CachePair else_path(cfg);
  then_path.access(1);
  then_path.join(else_path);
  EXPECT_EQ(then_path.classify(1), Classification::not_classified);
}

// --------------------------------------------------------------------------
// Persistence ("first-miss") domain pins. The load-bearing design decisions:
// unconditional +1 aging of other tracked lines (conditional aging is
// unsound, see the z,x,y,z,x counterexample below), saturation-without-drop
// under age_set, the one-sided join bump, and run-local reset.

TEST(Persistence, UnconditionalAgingRejectsDoubleMissingLine) {
  // 2-way, one set; z=0, x=2, y=4 all map to set 0. The concrete LRU trace
  // z,x,y,z,x misses on x TWICE (y evicts z, the z re-fetch evicts x), so
  // the final x access must NOT be classified first_miss. A "conditional"
  // persistence aging (only age lines younger than the accessed one) would
  // unsoundly keep x persistent here.
  CachePair pair(small_cache(2, 2));
  pair.access(0);  // z
  pair.access(2);  // x
  pair.access(4);  // y
  pair.access(0);  // z again
  EXPECT_FALSE(pair.persistence().persistent(2));
  const Classification c = pair.classify(2);
  EXPECT_NE(c, Classification::first_miss);
  EXPECT_NE(c, Classification::always_hit);
}

TEST(Persistence, AccessAtAgeZeroAgesNothing) {
  // Age 0 proves the set's most recent access was this very line on every
  // covered path, so a repeat access adds no new conflicts to other lines.
  AbstractCacheState pers(small_cache(2, 2),
                          AbstractCacheState::Kind::persistence);
  pers.access(0);
  pers.access(2);  // 0 -> age 1, 2 -> age 0
  pers.access(2);  // MRU repeat: 0 must stay at 1
  EXPECT_EQ(pers.age(0), 1u);
  EXPECT_EQ(pers.age(2), 0u);
  EXPECT_TRUE(pers.persistent(0));
}

TEST(Persistence, JoinBumpsOneSidedEntriesToAgeOne) {
  const CacheConfig cfg = small_cache(8, 2);
  AbstractCacheState a(cfg, AbstractCacheState::Kind::persistence);
  const AbstractCacheState b(cfg, AbstractCacheState::Kind::persistence);
  a.access(3);
  EXPECT_EQ(a.age(3), 0u);
  a.join(b);
  // One-sided entries survive the union but take the defensive +1 bump:
  // the other path may have touched the set once without us tracking it.
  EXPECT_TRUE(a.contains(3));
  EXPECT_EQ(a.age(3), 1u);
  EXPECT_TRUE(a.persistent(3));
}

TEST(Persistence, AgeSetSaturatesWithoutDropping) {
  const CacheConfig cfg = small_cache(8, 2);
  AbstractCacheState pers(cfg, AbstractCacheState::Kind::persistence);
  pers.access(3);
  pers.age_set(3 % cfg.num_sets(), 10);  // far beyond the associativity
  // Unlike must (which evicts), persistence saturates at the top and keeps
  // the entry: the line stays "accessed on some path", just not persistent.
  EXPECT_TRUE(pers.contains(3));
  EXPECT_EQ(pers.age(3), cfg.ways());
  EXPECT_FALSE(pers.persistent(3));
}

TEST(Persistence, ResetPersistenceClearsOnlyPersistence) {
  CachePair pair(small_cache(8, 2));
  pair.access(1);
  pair.access(2);
  pair.reset_persistence();
  EXPECT_EQ(pair.persistence().tracked_lines(), 0u);
  // Must facts are untouched: 1 is still a guaranteed hit.
  EXPECT_TRUE(pair.must().contains(1));
  EXPECT_EQ(pair.classify(1), Classification::always_hit);
}

/// Empirical first-miss soundness across joins: classify against the join
/// of two abstract path states, then replay the common suffix on BOTH
/// concrete caches. A concrete MISS at an access point classified
/// first_miss implies the line was provably never evicted since its last
/// load on every covered path — so the miss can only be the line's very
/// first access of that execution.
TEST(AbsintSoundness, FirstMissPointsMissAtMostOncePerExecution) {
  const CacheConfig cfg = small_cache(8, 2);
  std::mt19937 rng(424242);
  std::uniform_int_distribution<std::uint64_t> addr(0, 15);

  int checked_fm = 0;
  for (int trial = 0; trial < 60; ++trial) {
    CacheSim sim_a(cfg);
    CacheSim sim_b(cfg);
    CachePair pair_a(cfg);
    CachePair pair_b(cfg);
    std::vector<int> accessed_a(16, 0);
    std::vector<int> accessed_b(16, 0);
    for (int i = 0; i < 12; ++i) {
      const std::uint64_t la = addr(rng);
      const std::uint64_t lb = addr(rng);
      pair_a.access(la);
      sim_a.access(la);
      ++accessed_a[la];
      pair_b.access(lb);
      sim_b.access(lb);
      ++accessed_b[lb];
    }
    pair_a.join(pair_b);
    for (int i = 0; i < 40; ++i) {
      const std::uint64_t line = addr(rng);
      const Classification c = pair_a.classify_and_access(line);
      const bool hit_a = sim_a.access(line);
      const bool hit_b = sim_b.access(line);
      if (c == Classification::first_miss) {
        ++checked_fm;
        if (!hit_a) {
          ASSERT_EQ(accessed_a[line], 0)
              << "unsound FM (exec A), trial " << trial << " line " << line;
        }
        if (!hit_b) {
          ASSERT_EQ(accessed_b[line], 0)
              << "unsound FM (exec B), trial " << trial << " line " << line;
        }
      }
      ++accessed_a[line];
      ++accessed_b[line];
    }
  }
  // The sweep must actually exercise the first-miss classification.
  EXPECT_GT(checked_fm, 0);
}

struct SoundnessParams {
  std::size_t lines;
  std::size_t assoc;
  std::uint32_t seed;
};

class AbsintSoundnessSweep
    : public ::testing::TestWithParam<SoundnessParams> {};

/// The core soundness theorem, tested empirically: running ONE concrete
/// access sequence, every access classified AH must hit in the concrete
/// cache, regardless of cache geometry. (FM and NC may do either.)
TEST_P(AbsintSoundnessSweep, MustHitsAreSound) {
  const auto p = GetParam();
  const CacheConfig cfg = small_cache(p.lines, p.assoc);
  CacheSim sim(cfg);
  CachePair pair(cfg);

  std::mt19937 rng(p.seed);
  std::uniform_int_distribution<std::uint64_t> addr(0, 2 * p.lines);
  int checked_ah = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t line = addr(rng);
    const Classification c = pair.classify_and_access(line);
    const bool hit = sim.access(line);
    if (c == Classification::always_hit) {
      ASSERT_TRUE(hit) << "unsound AH at access " << i << " line " << line;
      ++checked_ah;
    }
  }
  // The sweep must actually exercise the classification.
  EXPECT_GT(checked_ah, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, AbsintSoundnessSweep,
    ::testing::Values(SoundnessParams{8, 1, 11}, SoundnessParams{8, 2, 12},
                      SoundnessParams{8, 4, 13}, SoundnessParams{16, 1, 14},
                      SoundnessParams{16, 4, 15}, SoundnessParams{32, 8, 16},
                      SoundnessParams{16, 0, 17},  // fully associative
                      SoundnessParams{64, 2, 18}));

/// Soundness must survive joins: classify against the join of two abstract
/// states, then check against BOTH concrete caches the join covers.
TEST(AbsintSoundness, JoinCoversBothConcreteStates) {
  const CacheConfig cfg = small_cache(8, 2);
  std::mt19937 rng(99);
  std::uniform_int_distribution<std::uint64_t> addr(0, 15);

  for (int trial = 0; trial < 50; ++trial) {
    CacheSim sim_a(cfg);
    CacheSim sim_b(cfg);
    CachePair pair_a(cfg);
    CachePair pair_b(cfg);
    for (int i = 0; i < 40; ++i) {
      const std::uint64_t la = addr(rng);
      const std::uint64_t lb = addr(rng);
      pair_a.access(la);
      sim_a.access(la);
      pair_b.access(lb);
      sim_b.access(lb);
    }
    pair_a.join(pair_b);
    for (int i = 0; i < 60; ++i) {
      const std::uint64_t line = addr(rng);
      const Classification c = pair_a.classify_and_access(line);
      const bool hit_a = sim_a.access(line);
      const bool hit_b = sim_b.access(line);
      if (c == Classification::always_hit) {
        ASSERT_TRUE(hit_a && hit_b) << "join unsound (AH), trial " << trial;
      }
    }
  }
}

// --------------------------------------------------------------------------
// Differential check of the flat domain (one (set, line)-sorted entry array,
// a set's range found by binary search) against an independent
// std::map-per-set reference implementation of the transfer functions of
// both kinds. Any divergence in tracked lines, ages, entry order or join
// results over randomized traces with joins and interference aging is a
// bug in one of the two.

using Kind = AbstractCacheState::Kind;

/// Reference (map-per-set) must/persistence state.
class MapRefState {
 public:
  MapRefState(const CacheConfig& config, Kind kind)
      : kind_(kind), sets_(config.num_sets()), ways_(config.ways()),
        sets_state_(sets_) {}

  void access(std::uint64_t line) {
    auto& set = sets_state_[line % sets_];
    const auto it = set.find(line);
    const bool tracked = it != set.end();
    if (kind_ == Kind::persistence) {
      // Unconditional conflict count, except a re-access at age 0.
      if (!tracked || it->second != 0) {
        for (auto& [other, age] : set) {
          if (other != line && age < ways_) ++age;
        }
      }
      set[line] = 0;
      return;
    }
    const std::size_t accessed_age = tracked ? it->second : ways_;
    for (auto m = set.begin(); m != set.end();) {
      if (m->first != line && m->second < accessed_age) {
        if (++m->second >= ways_) {
          m = set.erase(m);
          continue;
        }
      }
      ++m;
    }
    set[line] = 0;
  }

  void join(const MapRefState& other) {
    for (std::size_t s = 0; s < sets_; ++s) {
      auto& mine = sets_state_[s];
      const auto& theirs = other.sets_state_[s];
      if (kind_ == Kind::must) {
        for (auto it = mine.begin(); it != mine.end();) {
          const auto jt = theirs.find(it->first);
          if (jt == theirs.end()) {
            it = mine.erase(it);
          } else {
            it->second = std::max(it->second, jt->second);
            ++it;
          }
        }
      } else {
        // Union at max age; one-sided entries are bumped to at least 1.
        for (auto& [line, age] : mine) {
          if (theirs.count(line) == 0) age = std::max<std::size_t>(age, 1);
        }
        for (const auto& [line, age] : theirs) {
          const auto it = mine.find(line);
          if (it == mine.end()) {
            mine.emplace(line, std::max<std::size_t>(age, 1));
          } else {
            it->second = std::max(it->second, age);
          }
        }
      }
    }
  }

  void age_set(std::size_t s, std::size_t amount) {
    auto& set = sets_state_[s];
    for (auto it = set.begin(); it != set.end();) {
      it->second += amount;
      if (kind_ == Kind::persistence) {
        it->second = std::min(it->second, ways_);  // saturate, never drop
      } else if (it->second >= ways_) {
        it = set.erase(it);
        continue;
      }
      ++it;
    }
  }

  std::size_t age(std::uint64_t line) const {
    const auto& set = sets_state_[line % sets_];
    const auto it = set.find(line);
    return it != set.end() ? it->second : ways_;
  }

  bool contains(std::uint64_t line) const {
    return sets_state_[line % sets_].count(line) != 0;
  }

  std::size_t tracked_lines() const {
    std::size_t n = 0;
    for (const auto& set : sets_state_) n += set.size();
    return n;
  }

  /// Every (line, age) pair in (set, line) order, for exhaustive comparison.
  std::vector<std::pair<std::uint64_t, std::size_t>> entries() const {
    std::vector<std::pair<std::uint64_t, std::size_t>> out;
    for (const auto& set : sets_state_) {
      out.insert(out.end(), set.begin(), set.end());
    }
    return out;
  }

 private:
  Kind kind_;
  std::size_t sets_;
  std::size_t ways_;
  std::vector<std::map<std::uint64_t, std::size_t>> sets_state_;
};

/// The flat state's entries in (set, line) order, read set by set.
std::vector<std::pair<std::uint64_t, std::size_t>> flat_entries(
    const AbstractCacheState& flat) {
  std::vector<std::pair<std::uint64_t, std::size_t>> out;
  for (std::size_t s = 0; s < flat.config().num_sets(); ++s) {
    for (const auto& e : flat.set_entries(s)) out.emplace_back(e.line, e.age);
  }
  return out;
}

void expect_equivalent(const AbstractCacheState& flat, const MapRefState& ref,
                       std::uint64_t max_line, const char* what) {
  ASSERT_EQ(flat.tracked_lines(), ref.tracked_lines()) << what;
  ASSERT_EQ(flat_entries(flat), ref.entries()) << what;
  for (std::uint64_t line = 0; line <= max_line; ++line) {
    ASSERT_EQ(flat.contains(line), ref.contains(line))
        << what << " line " << line;
    ASSERT_EQ(flat.age(line), ref.age(line)) << what << " line " << line;
  }
}

class FlatVsMapDifferential
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(FlatVsMapDifferential, RandomTracesWithJoinsMatchReference) {
  const auto [lines, assoc] = GetParam();
  const CacheConfig cfg = small_cache(lines, assoc);
  const std::size_t sets = cfg.num_sets();
  const std::size_t ways = cfg.ways();
  const std::uint64_t max_line = 3 * lines;
  // Enough accesses that every set sees several conflicting lines, so
  // inserts and evictions shift the entries of many later sets.
  const int steps = static_cast<int>(std::max<std::size_t>(80, 2 * lines));
  std::mt19937_64 rng(lines * 1000 + assoc);
  std::uniform_int_distribution<std::uint64_t> addr(0, max_line);
  std::uniform_int_distribution<std::size_t> pick_set(0, sets - 1);
  std::uniform_int_distribution<std::uint32_t> amount(0, ways + 1);
  std::uniform_int_distribution<int> coin(0, 9);

  // One transfer on both implementations: mostly accesses, with an
  // interference aging of a random set interleaved now and then.
  const auto step = [&](AbstractCacheState& flat, MapRefState& ref) {
    if (coin(rng) == 0) {
      const std::size_t s = pick_set(rng);
      const std::uint32_t a = amount(rng);
      flat.age_set(s, a);
      ref.age_set(s, a);
    } else {
      const std::uint64_t line = addr(rng);
      flat.access(line);
      ref.access(line);
    }
  };

  for (const auto kind : {Kind::must, Kind::persistence}) {
    for (int trial = 0; trial < 20; ++trial) {
      AbstractCacheState flat_a(cfg, kind);
      AbstractCacheState flat_b(cfg, kind);
      MapRefState ref_a(cfg, kind);
      MapRefState ref_b(cfg, kind);
      // Two diverging paths...
      for (int i = 0; i < steps; ++i) {
        step(flat_a, ref_a);
        step(flat_b, ref_b);
      }
      expect_equivalent(flat_a, ref_a, max_line, "pre-join A");
      expect_equivalent(flat_b, ref_b, max_line, "pre-join B");
      // ...joined (the unions can outgrow the associativity), then more
      // transfers to age the joined state back down.
      flat_a.join(flat_b);
      ref_a.join(ref_b);
      expect_equivalent(flat_a, ref_a, max_line, "post-join");
      for (int i = 0; i < steps / 2; ++i) step(flat_a, ref_a);
      expect_equivalent(flat_a, ref_a, max_line, "post-join transfers");
      // Equality and hash agree with the reference notion of equality.
      const AbstractCacheState copy = flat_a;
      EXPECT_TRUE(copy == flat_a);
      EXPECT_EQ(copy.hash(), flat_a.hash());
      const AbstractCacheState cold(cfg, kind);
      EXPECT_EQ(flat_a == cold, ref_a.tracked_lines() == 0);
    }
  }
}

TEST_P(FlatVsMapDifferential, SameContentsFromDifferentHistoriesAreCanonical) {
  const auto [lines, assoc] = GetParam();
  const CacheConfig cfg = small_cache(lines, assoc);
  const std::size_t sets = cfg.num_sets();
  const auto ways = static_cast<std::uint32_t>(cfg.ways());
  std::mt19937_64 rng(lines * 7 + assoc);
  std::uniform_int_distribution<std::uint64_t> addr(0, 3 * lines);
  std::vector<std::uint64_t> trace(std::max<std::size_t>(40, 2 * lines));
  for (auto& line : trace) line = addr(rng);

  // Must: filled then emptied by interference aging equals untouched.
  AbstractCacheState filled(cfg, Kind::must);
  for (const auto line : trace) filled.access(line);
  ASSERT_GT(filled.tracked_lines(), 0u);
  for (std::size_t s = 0; s < sets; ++s) filled.age_set(s, ways);
  const AbstractCacheState untouched(cfg, Kind::must);
  EXPECT_TRUE(filled == untouched);
  EXPECT_EQ(filled.hash(), untouched.hash());
  // Persistence never drops entries, but saturation erases the order in
  // which the lines were first seen: forward and reversed traces end equal.
  AbstractCacheState forward(cfg, Kind::persistence);
  AbstractCacheState reversed(cfg, Kind::persistence);
  for (const auto line : trace) forward.access(line);
  for (auto it = trace.rbegin(); it != trace.rend(); ++it) reversed.access(*it);
  for (std::size_t s = 0; s < sets; ++s) {
    forward.age_set(s, ways);
    reversed.age_set(s, ways);
  }
  EXPECT_TRUE(forward == reversed);
  EXPECT_EQ(forward.hash(), reversed.hash());
  // A join that changes nothing keeps the state canonical too.
  AbstractCacheState joined = forward;
  joined.join(reversed);
  EXPECT_TRUE(joined == forward);
  EXPECT_EQ(joined.hash(), forward.hash());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, FlatVsMapDifferential,
    ::testing::Values(std::make_tuple(8, 1),     // direct-mapped (fast path)
                      std::make_tuple(128, 1),   // the paper's configuration
                      std::make_tuple(8, 2),     // 2-way
                      std::make_tuple(16, 4),    // 4-way
                      std::make_tuple(12, 2),    // non-power-of-two sets
                      std::make_tuple(8, 0),     // fully associative
                      std::make_tuple(4096, 8),  // 512 sets x 8 ways
                      std::make_tuple(600, 4),   // 150 sets (not 2^k)
                      // Many sets, not a power of two: set_of divides and
                      // the binary search spans hundreds of sets.
                      std::make_tuple(600, 2),     // 300 sets x 2 ways
                      std::make_tuple(1000, 1)));  // 1000 sets x 1 way

// A state small enough lives in an inline buffer; one set holding more
// tracked lines than that buffer fits moves the state to the heap. Every
// transfer, copy, move and join across that boundary must still match the
// reference, and a one-set state fed such a set's lines must track the set
// exactly as the whole state does.
TEST(FlatStorage, SetBeyondInlineCapacityMatchesReference) {
  // One set of 4 ways: persistence never drops a line, so 24 distinct
  // lines overflow any inline capacity.
  const CacheConfig one = small_cache(4, 0);
  const std::uint64_t max_line = 24;
  AbstractCacheState grown(one, Kind::persistence);
  MapRefState ref(one, Kind::persistence);
  AbstractCacheState small(one, Kind::persistence);
  MapRefState small_ref(one, Kind::persistence);
  for (std::uint64_t line = 0; line < max_line; ++line) {
    grown.access(line);
    ref.access(line);
    expect_equivalent(grown, ref, max_line, "growing");
    if (line % 8 == 0) {
      small.access(line);
      small_ref.access(line);
    }
  }
  ASSERT_EQ(grown.tracked_lines(), max_line);

  // Copies and moves of the heap state, into fresh and into inline states.
  const AbstractCacheState copied = grown;
  expect_equivalent(copied, ref, max_line, "copy");
  AbstractCacheState assigned = small;
  assigned = grown;
  expect_equivalent(assigned, ref, max_line, "copy-assign over inline");
  AbstractCacheState moved = std::move(assigned);
  expect_equivalent(moved, ref, max_line, "move");
  AbstractCacheState move_assigned(one, Kind::persistence);
  move_assigned = std::move(moved);
  expect_equivalent(move_assigned, ref, max_line, "move-assign");
  // And of the inline state over the heap one.
  move_assigned = small;
  expect_equivalent(move_assigned, small_ref, max_line, "inline over heap");
  EXPECT_TRUE(move_assigned == small);
  EXPECT_EQ(move_assigned.hash(), small.hash());

  // Joins across the boundary, both ways round.
  AbstractCacheState joined = small;
  MapRefState joined_ref = small_ref;
  joined.join(grown);
  joined_ref.join(ref);
  expect_equivalent(joined, joined_ref, max_line, "inline joins heap");
  AbstractCacheState joined_back = grown;
  MapRefState joined_back_ref = ref;
  joined_back.join(small);
  joined_back_ref.join(small_ref);
  expect_equivalent(joined_back, joined_back_ref, max_line,
                    "heap joins inline");

  // The same set inside a multi-set cache, walked alone: a one-set state
  // of the same ways fed that set's lines holds exactly those lines and
  // tracks the set as the whole state does (cache/set_steady's walks).
  const CacheConfig four = small_cache(8, 2);  // 4 sets x 2 ways
  AbstractCacheState whole(four, Kind::persistence);
  AbstractCacheState one_set(small_cache(2, 2), Kind::persistence);
  for (std::uint64_t line = 1; line < 4 * max_line; line += 4) {
    whole.access(line);
    one_set.access(line);
  }
  ASSERT_EQ(one_set.tracked_lines(), max_line);
  const auto set_one = [](const AbstractCacheState& st, std::size_t set) {
    const auto entries = st.set_entries(set);
    return std::vector<LineAge>(entries.begin(), entries.end());
  };
  EXPECT_EQ(set_one(one_set, 0), set_one(whole, 1));
  for (const std::uint64_t line : {5u, 41u, 97u, 5u}) {
    one_set.access(line);
    whole.access(line);
    EXPECT_EQ(set_one(one_set, 0), set_one(whole, 1)) << "line " << line;
  }
}

}  // namespace
