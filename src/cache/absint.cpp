#include "cache/absint.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
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
  pow2_sets_ = (sets_ & (sets_ - 1)) == 0;
}

AbstractCacheState::AbstractCacheState(const AbstractCacheState& other) {
  copy_shape(other);
  const std::size_t used = other.used_bytes();
  if (used > kInlineBytes) {
    buf_ = static_cast<std::byte*>(::operator new(used));
    capacity_bytes_ = used;
  }
  if (is_inline()) {
    std::memcpy(inline_, other.buf_, kInlineBytes);
  } else {
    std::memcpy(buf_, other.buf_, used);
  }
}

AbstractCacheState::AbstractCacheState(AbstractCacheState&& other) noexcept {
  copy_shape(other);
  if (other.is_inline()) {
    // The whole buffer: a fixed-size copy beats a call for the used part.
    std::memcpy(inline_, other.inline_, kInlineBytes);
    return;
  }
  buf_ = other.buf_;
  capacity_bytes_ = other.capacity_bytes_;
  other.buf_ = other.inline_;
  other.capacity_bytes_ = kInlineBytes;
  other.size_ = 0;
}

AbstractCacheState& AbstractCacheState::operator=(
    const AbstractCacheState& other) {
  if (this == &other) return *this;
  const std::size_t used = other.used_bytes();
  if (used > capacity_bytes_) {
    std::byte* const grown = static_cast<std::byte*>(::operator new(used));
    if (!is_inline()) ::operator delete(buf_);
    buf_ = grown;
    capacity_bytes_ = used;
  }
  copy_shape(other);
  std::memcpy(buf_, other.buf_, used);
  return *this;
}

AbstractCacheState& AbstractCacheState::operator=(
    AbstractCacheState&& other) noexcept {
  if (this == &other) return *this;
  if (other.is_inline()) {
    // An inline buffer fits in this one, inline or heap (a heap buffer is
    // only ever larger than the inline one).
    copy_shape(other);
    std::memcpy(buf_, other.buf_, other.used_bytes());
    return *this;
  }
  if (!is_inline()) ::operator delete(buf_);
  copy_shape(other);
  buf_ = other.buf_;
  capacity_bytes_ = other.capacity_bytes_;
  other.buf_ = other.inline_;
  other.capacity_bytes_ = kInlineBytes;
  other.size_ = 0;
  return *this;
}

void AbstractCacheState::copy_shape(const AbstractCacheState& other) noexcept {
  config_ = other.config_;
  kind_ = other.kind_;
  sets_ = other.sets_;
  ways_ = other.ways_;
  pow2_sets_ = other.pow2_sets_;
  size_ = other.size_;
}

AbstractCacheState::~AbstractCacheState() {
  if (!is_inline()) ::operator delete(buf_);
}

void AbstractCacheState::reserve_entries(std::size_t n) {
  const std::size_t need = n * sizeof(LineAge);
  if (need <= capacity_bytes_) return;
  // Grow geometrically, so a run of inserts costs amortized O(1) copies.
  const std::size_t bytes = std::max(need, 2 * used_bytes());
  std::byte* const grown = static_cast<std::byte*>(::operator new(bytes));
  std::memcpy(grown, buf_, used_bytes());
  if (!is_inline()) ::operator delete(buf_);
  buf_ = grown;
  capacity_bytes_ = bytes;
}

AbstractCacheState::Range AbstractCacheState::search_range(
    std::size_t s) const noexcept {
  const LineAge* const e = entries();
  const LineAge* const first = std::partition_point(
      e, e + size_, [&](const LineAge& x) { return set_of(x.line) < s; });
  const LineAge* const last = std::partition_point(
      first, e + size_, [&](const LineAge& x) { return set_of(x.line) == s; });
  return Range{static_cast<std::uint32_t>(first - e),
               static_cast<std::uint32_t>(last - e)};
}

const LineAge* AbstractCacheState::find(std::uint64_t line) const noexcept {
  const Range r = range_of(set_of(line));
  const LineAge* const last = entries() + r.last;
  const LineAge* it = line_lower_bound(entries() + r.first, last, line);
  return (it != last && it->line == line) ? it : nullptr;
}

void AbstractCacheState::commit_set(Range range, std::size_t kept,
                                    std::optional<std::uint64_t> line) {
  const std::size_t first = range.first;
  const std::size_t last = range.last;
  std::size_t kept_end = first + kept;
  if (line.has_value()) {
    if (kept_end == last) {
      // No slot was freed: one insert, which is the whole structural change.
      reserve_entries(std::size_t{size_} + 1);
      LineAge* const e = entries();
      LineAge* const pos = line_lower_bound(e + first, e + kept_end, *line);
      std::memmove(pos + 1, pos,
                   static_cast<std::size_t>(e + size_ - pos) * sizeof(LineAge));
      *pos = LineAge{*line, 0};
      ++size_;
      return;
    }
    // Reuse the first freed slot: shift the larger survivors up by one.
    LineAge* const e = entries();
    LineAge* const pos = line_lower_bound(e + first, e + kept_end, *line);
    std::move_backward(pos, e + kept_end, e + kept_end + 1);
    *pos = LineAge{*line, 0};
    ++kept_end;
  }
  if (kept_end == last) return;
  LineAge* const e = entries();
  std::memmove(e + kept_end, e + last, (size_ - last) * sizeof(LineAge));
  size_ -= static_cast<std::uint32_t>(last - kept_end);
}

void AbstractCacheState::access(std::uint64_t line) {
  const Range range = range_of(set_of(line));
  LineAge* const first = entries() + range.first;
  LineAge* const last = entries() + range.last;
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
      commit_set(range, static_cast<std::size_t>(last - first), line);
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
      commit_set(range, 0, line);
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
  // A hit that evicts nothing is already in place.
  if (!tracked || out != last) {
    commit_set(range, static_cast<std::size_t>(out - first),
               tracked ? std::nullopt : std::optional<std::uint64_t>(line));
  }
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
  // One linear merge over both (set, line)-sorted arrays. Persistence's
  // result is a superset of this state, so an unchanged size means
  // unchanged lines, and the ages are updated in place.
  const auto before = [this](const LineAge& a, const LineAge& b) {
    const std::size_t sa = set_of(a.line);
    const std::size_t sb = set_of(b.line);
    return sa != sb ? sa < sb : a.line < b.line;
  };
  const LineAge* a = entries();
  const LineAge* const a_end = a + size_;
  const LineAge* b = other.entries();
  const LineAge* const b_end = b + other.size_;
  if (kind_ == Kind::must) {
    // Intersection with maximal (most pessimistic) age, written back in
    // place (the result is a subset of this state).
    LineAge* out = entries();
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
    size_ = static_cast<std::uint32_t>(out - entries());
    return;
  }
  // Persistence: union with MAXIMAL age (both are upper bounds on the
  // conflict count); one-sided entries survive — on the path that never
  // accessed the line the first-miss claim is vacuous — but their age is
  // bumped to at least 1: age 0 must keep certifying "most recent access of
  // this set on EVERY joined path" (access() skips its aging sweep on that
  // certificate), and the untracked side cannot vouch.
  constexpr std::uint32_t floor = 1;
  std::size_t merged = 0;
  for (const LineAge* x = a; x != a_end || b != b_end; ++merged) {
    if (b == b_end || (x != a_end && before(*x, *b))) {
      ++x;
    } else if (x == a_end || x->line != b->line) {
      ++b;
    } else {
      ++x;
      ++b;
    }
  }
  if (merged == size_) {
    // No new line: the other side's lines are all here; update in place.
    b = other.entries();
    for (LineAge* x = entries(); x != entries() + size_; ++x) {
      if (b != b_end && b->line == x->line) {
        x->age = std::max(x->age, b->age);
        ++b;
      } else {
        x->age = std::max(x->age, floor);
      }
    }
    return;
  }
  // Merge from the back into the grown buffer: the write position never
  // passes the unread part of this state's entries.
  reserve_entries(merged);
  LineAge* const e = entries();
  const LineAge* const theirs = other.entries();
  std::size_t i = size_;
  std::size_t j = other.size_;
  for (std::size_t k = merged; k-- > 0;) {
    if (j == 0 || (i != 0 && before(theirs[j - 1], e[i - 1]))) {
      --i;
      e[k] = LineAge{e[i].line, std::max(e[i].age, floor)};
    } else if (i == 0 || e[i - 1].line != theirs[j - 1].line) {
      --j;
      e[k] = LineAge{theirs[j].line, std::max(theirs[j].age, floor)};
    } else {
      --i;
      --j;
      e[k] = LineAge{e[i].line, std::max(e[i].age, theirs[j].age)};
    }
  }
  size_ = static_cast<std::uint32_t>(merged);
}

void AbstractCacheState::age_set(std::size_t set_index, std::uint32_t amount) {
  if (set_index >= sets_) {
    throw std::out_of_range("AbstractCacheState::age_set: set out of range");
  }
  if (amount == 0) return;
  const Range range = range_of(set_index);
  LineAge* const first = entries() + range.first;
  LineAge* const last = entries() + range.last;
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
  commit_set(range, static_cast<std::size_t>(out - first), std::nullopt);
}

void AbstractCacheState::clear() noexcept { size_ = 0; }

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
  // A state is a set of (line, age) pairs with distinct lines (the line
  // fixes the set), so a sum of per-pair mixes is canonical: equal states
  // (operator==) hash equal. The mixes are independent of each other, so
  // they overlap in the pipeline instead of forming one chain.
  const std::uint64_t kind_tag = kind_ == Kind::must ? 1u : 2u;
  std::uint64_t sum = 0;
  for (const LineAge& e : std::span<const LineAge>(entries(), size_)) {
    sum += hash_mix(e.line ^ (std::uint64_t{e.age} << 48));
  }
  const std::uint64_t h = hash_mix(0x8f1bbcdcbfa53e0bull ^ kind_tag ^ sets_);
  return static_cast<std::size_t>(hash_mix(h ^ sum));
}

bool AbstractCacheState::operator==(
    const AbstractCacheState& other) const noexcept {
  return kind_ == other.kind_ && config_ == other.config_ &&
         size_ == other.size_ &&
         std::equal(entries(), entries() + size_, other.entries());
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
