#include "cache/absint.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>

namespace catsched::cache {

namespace {

/// First entry with entry.line >= line in the sorted range [first, last).
template <typename It>
It line_lower_bound(It first, It last, std::uint64_t line) noexcept {
  return std::lower_bound(
      first, last, line,
      [](const LineAge& e, std::uint64_t l) { return e.line < l; });
}

}  // namespace

AbstractCacheState::AbstractCacheState(const CacheConfig& config, Kind kind)
    : config_(config), kind_(kind) {
  config.validate();
  ways_ = config.ways();
  sets_ = config.num_sets();
  if ((sets_ & (sets_ - 1)) == 0) set_mask_ = sets_ - 1;
  begin_.assign(sets_ + 1, 0);
}

const LineAge* AbstractCacheState::find(std::uint64_t line) const noexcept {
  const std::size_t s = set_of(line);
  const LineAge* first = entries_.data() + begin_[s];
  const LineAge* last = entries_.data() + begin_[s + 1];
  const LineAge* it = line_lower_bound(first, last, line);
  return (it != last && it->line == line) ? it : nullptr;
}

void AbstractCacheState::commit_set(std::size_t s, std::size_t kept,
                                    std::optional<std::uint64_t> line) {
  const auto first = entries_.begin() + begin_[s];
  const auto last = entries_.begin() + begin_[s + 1];
  auto kept_end = first + static_cast<std::ptrdiff_t>(kept);
  if (line.has_value()) {
    const auto pos = line_lower_bound(first, kept_end, *line);
    if (kept_end == last) {
      // No slot was freed: one insert, which is the whole structural change.
      entries_.insert(pos, LineAge{*line, 0});
      for (std::size_t t = s + 1; t <= sets_; ++t) ++begin_[t];
      return;
    }
    // Reuse the first freed slot: shift the larger survivors up by one.
    std::move_backward(pos, kept_end, kept_end + 1);
    *pos = LineAge{*line, 0};
    ++kept_end;
  }
  if (kept_end == last) return;
  const auto removed = static_cast<std::uint32_t>(last - kept_end);
  entries_.erase(kept_end, last);
  for (std::size_t t = s + 1; t <= sets_; ++t) begin_[t] -= removed;
}

void AbstractCacheState::rebuild_offsets() noexcept {
  // begin_[t] for every set t in (previous entry's set, this entry's set]
  // is this entry's index; sets after the last entry start at the end.
  std::size_t t = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const std::size_t s = set_of(entries_[i].line);
    if (s < t) continue;
    std::fill(begin_.begin() + static_cast<std::ptrdiff_t>(t),
              begin_.begin() + static_cast<std::ptrdiff_t>(s + 1),
              static_cast<std::uint32_t>(i));
    t = s + 1;
  }
  std::fill(begin_.begin() + static_cast<std::ptrdiff_t>(t), begin_.end(),
            static_cast<std::uint32_t>(entries_.size()));
}

void AbstractCacheState::access(std::uint64_t line) {
  const std::size_t s = set_of(line);
  LineAge* const first = entries_.data() + begin_[s];
  LineAge* const last = entries_.data() + begin_[s + 1];
  if (kind_ == Kind::persistence) {
    // Conflict-counter update: every OTHER tracked line of the set took one
    // more conflicting access, saturating at the top (= ways). The sweep is
    // unconditional (see the header for why the must-style conditional
    // variant is unsound) with one certified exception: if the accessed
    // line is tracked at age 0, the set's most recent access was this very
    // line on every covered path, so it is already counted in every other
    // line's bound and re-counting it would only lose precision (this is
    // what keeps refetch bursts like a,a,b,b from saturating the set).
    const std::uint32_t top = static_cast<std::uint32_t>(ways_);
    LineAge* self = line_lower_bound(first, last, line);
    if (self == last || self->line != line) self = nullptr;
    if (self == nullptr || self->age != 0) {
      for (LineAge* e = first; e != last; ++e) {
        if (e->line != line && e->age < top) ++e->age;
      }
    }
    if (self != nullptr) {
      self->age = 0;
    } else {
      commit_set(s, static_cast<std::size_t>(last - first), line);
    }
    return;
  }
  if (ways_ == 1) {
    // Direct-mapped: the set holds at most one entry, and the accessed line
    // evicts it, so the set collapses to {line, age 0}. The usual case, one
    // entry already, is overwritten in place.
    if (last - first == 1) {
      *first = LineAge{line, 0};
    } else {
      commit_set(s, 0, line);
    }
    return;
  }
  const LineAge* hit = line_lower_bound(first, last, line);
  const bool tracked = hit != last && hit->line == line;
  const std::uint32_t ways = static_cast<std::uint32_t>(ways_);
  const std::uint32_t accessed_age = tracked ? hit->age : ways;

  // One in-place compaction pass: age the affected lines, drop evictions.
  // Lines strictly younger than the accessed line's upper bound age by one
  // (if the accessed line is untracked, everything ages). The accessed line
  // itself is never dropped, so a tracked one survives the pass.
  LineAge* out = first;
  for (LineAge* it = first; it != last; ++it) {
    LineAge e = *it;
    if (e.line == line) {
      e.age = 0;
    } else if (e.age < accessed_age && ++e.age >= ways) {
      continue;  // bound hit associativity
    }
    *out++ = e;
  }
  commit_set(s, static_cast<std::size_t>(out - first),
             tracked ? std::nullopt : std::optional<std::uint64_t>(line));
}

bool AbstractCacheState::contains(std::uint64_t line) const noexcept {
  return find(line) != nullptr;
}

std::size_t AbstractCacheState::age(std::uint64_t line) const noexcept {
  const LineAge* e = find(line);
  return e != nullptr ? e->age : ways_;
}

void AbstractCacheState::join(const AbstractCacheState& other) {
  if (kind_ != other.kind_ || sets_ != other.sets_ || ways_ != other.ways_) {
    throw std::invalid_argument("AbstractCacheState::join: mismatched states");
  }
  // One linear merge over both (set, line)-sorted arrays, then one pass to
  // rebuild the offsets. Must's result is a subset of this state and
  // persistence's a superset, so an unchanged size means unchanged lines
  // and offsets, and the rebuild is skipped.
  const auto before = [this](const LineAge& a, const LineAge& b) {
    const std::size_t sa = set_of(a.line);
    const std::size_t sb = set_of(b.line);
    return sa != sb ? sa < sb : a.line < b.line;
  };
  const LineAge* a = entries_.data();
  const LineAge* const a_end = a + entries_.size();
  const LineAge* b = other.entries_.data();
  const LineAge* const b_end = b + other.entries_.size();
  if (kind_ == Kind::must) {
    // Intersection with maximal (most pessimistic) age, written back in
    // place (the result is a subset of this state).
    LineAge* out = entries_.data();
    while (a != a_end && b != b_end) {
      if (a->line == b->line) {
        *out++ = LineAge{a->line, std::max(a->age, b->age)};
        ++a;
        ++b;
      } else if (before(*a, *b)) {
        ++a;
      } else {
        ++b;
      }
    }
    const auto kept = static_cast<std::size_t>(out - entries_.data());
    if (kept == entries_.size()) return;
    entries_.resize(kept);
    rebuild_offsets();
    return;
  }
  // Persistence: union with MAXIMAL age (both are upper bounds on the
  // conflict count); one-sided entries survive — on the path that never
  // accessed the line the first-miss claim is vacuous — but their age is
  // bumped to at least 1: age 0 must keep certifying "most recent access of
  // this set on EVERY joined path" (access() skips its aging sweep on that
  // certificate), and the untracked side cannot vouch.
  constexpr std::uint32_t floor = 1;
  std::vector<LineAge> merged;
  merged.reserve(entries_.size() + other.entries_.size());
  while (a != a_end || b != b_end) {
    if (b == b_end || (a != a_end && before(*a, *b))) {
      merged.push_back(LineAge{a->line, std::max(a->age, floor)});
      ++a;
    } else if (a == a_end || a->line != b->line) {
      merged.push_back(LineAge{b->line, std::max(b->age, floor)});
      ++b;
    } else {
      merged.push_back(LineAge{a->line, std::max(a->age, b->age)});
      ++a;
      ++b;
    }
  }
  const bool grew = merged.size() != entries_.size();
  entries_ = std::move(merged);
  if (grew) rebuild_offsets();
}

void AbstractCacheState::age_set(std::size_t set_index, std::uint32_t amount) {
  if (set_index >= sets_) {
    throw std::out_of_range("AbstractCacheState::age_set: set out of range");
  }
  if (amount == 0) return;
  LineAge* const first = entries_.data() + begin_[set_index];
  LineAge* const last = entries_.data() + begin_[set_index + 1];
  const std::uint32_t ways = static_cast<std::uint32_t>(ways_);
  if (kind_ == Kind::persistence) {
    // Saturating advance: conflict counters cap at the top (= ways) and
    // entries are never dropped (a saturated line is simply no longer
    // persistent; "tracked" must keep meaning "accessed at some point").
    for (LineAge* e = first; e != last; ++e) {
      e->age = (amount >= ways || e->age >= ways - amount) ? ways
                                                           : e->age + amount;
    }
    return;
  }
  // One compaction pass (same shape as access()): advance every bound,
  // drop entries that reach the associativity. Entries stay sorted by line
  // (ages change uniformly), so no re-sort is needed.
  LineAge* out = first;
  for (LineAge* it = first; it != last; ++it) {
    LineAge e = *it;
    if (amount >= ways || e.age + amount >= ways) continue;  // evicted
    e.age += amount;
    *out++ = e;
  }
  commit_set(set_index, static_cast<std::size_t>(out - first), std::nullopt);
}

AbstractCacheState AbstractCacheState::slice_set(std::size_t set_index) const {
  if (set_index >= sets_) {
    throw std::out_of_range("AbstractCacheState::slice_set: set out of range");
  }
  CacheConfig one = config_;
  one.num_lines = ways_;
  one.associativity = ways_;
  AbstractCacheState out(one, kind_);
  const std::span<const LineAge> set = set_entries(set_index);
  out.entries_.assign(set.begin(), set.end());
  out.begin_[1] = static_cast<std::uint32_t>(set.size());
  return out;
}

void AbstractCacheState::clear() noexcept {
  entries_.clear();
  std::fill(begin_.begin(), begin_.end(), 0u);
}

namespace {

/// splitmix64 finalizer (same avalanche stage core/parallel.hpp uses;
/// replicated locally so the cache layer stays free of core dependencies).
constexpr std::uint64_t hash_mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

std::size_t AbstractCacheState::hash() const noexcept {
  // Entries are kept sorted by (set, line), so iterating them yields a
  // canonical sequence: equal states (operator==) produce identical streams.
  const std::uint64_t kind_tag = kind_ == Kind::must ? 1u : 2u;
  std::uint64_t h = 0x8f1bbcdcbfa53e0bull ^ kind_tag;
  h = hash_mix(h ^ sets_);
  for (const LineAge& e : entries_) {
    const std::uint64_t s = set_of(e.line);
    h = hash_mix(h ^ (s << 32 ^ e.age));
    h = hash_mix(h ^ e.line);
  }
  return static_cast<std::size_t>(h);
}

CachePair::CachePair(const CacheConfig& config)
    : must_(config, AbstractCacheState::Kind::must),
      persistence_(config, AbstractCacheState::Kind::persistence) {}

Classification CachePair::classify(std::uint64_t line) const noexcept {
  if (must_.contains(line)) return Classification::always_hit;
  if (persistence_.persistent(line)) return Classification::first_miss;
  return Classification::not_classified;
}

void CachePair::access(std::uint64_t line) {
  must_.access(line);
  persistence_.access(line);
}

Classification CachePair::classify_and_access(std::uint64_t line) {
  const Classification c = classify(line);
  access(line);
  return c;
}

CachePair CachePair::slice_set(std::size_t set_index) const {
  return CachePair(must_.slice_set(set_index),
                   persistence_.slice_set(set_index));
}

void CachePair::reset_persistence() { persistence_.clear(); }

void CachePair::join(const CachePair& other) {
  must_.join(other.must_);
  persistence_.join(other.persistence_);
}

std::size_t CachePair::hash() const noexcept {
  const std::uint64_t phi = 0x9e3779b97f4a7c15ull;
  return static_cast<std::size_t>(must_.hash() * phi ^ persistence_.hash());
}

}  // namespace catsched::cache
