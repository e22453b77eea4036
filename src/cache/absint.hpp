#pragma once
/// \file absint.hpp
/// \brief Abstract-interpretation cache domains for set-associative LRU
///        caches: the classic must age analysis of Ferdinand & Wilhelm
///        (the technique behind the static WCET tools the paper cites as
///        [12]/[13]) plus a persistence ("first-miss") domain. A must state
///        underapproximates cache contents (line present => guaranteed
///        hit); a persistence state bounds, per tracked line, how many
///        conflicting accesses hit its set since the line's last access —
///        if that bound stays below the associativity the line can never
///        have been evicted after a load, so every access point to it
///        misses at most ONCE over the analyzed execution (the FM
///        classification cache/static_wcet charges as one miss plus hits).
///        The persistence state is RUN-LOCAL: every analysis starts it
///        empty (cache/static_wcet resets it at entry), because "not
///        accessed yet in this run" is true at the start of every run
///        whatever the concrete entry cache holds — see the Kind doc below
///        for why carrying it across runs would also break monotonicity.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "cache/cache_model.hpp"

namespace catsched::cache {

/// One tracked cache line with its age bound: the element of an
/// AbstractCacheState's flat entry array (see its storage note).
struct LineAge {
  std::uint64_t line = 0;
  std::uint32_t age = 0;
  bool operator==(const LineAge&) const = default;
};

/// One abstract cache state: per set, an age bound for every tracked line.
/// Kind::must        -> ages are upper bounds, join = intersection, max age.
/// Kind::persistence -> ages are upper bounds on the number of OTHER-line
///                      accesses that hit the line's set since the line's
///                      last access, saturated at the associativity (the
///                      domain top; values therefore span associativity+1
///                      ages, 0..ways). Entries are never dropped — an
///                      untracked line means "not yet accessed on any
///                      covered path of THIS run", which is what makes the
///                      first-miss claim per-execution rather than
///                      per-scope, and why the state must start empty each
///                      run: untracked is not the domain top (at joins a
///                      one-sided entry keeps a small bump while a
///                      tracked-at-top entry forces max = top), so an
///                      entry state carried in from a previous run could
///                      analyze LOOSER than the cold state and break the
///                      warm <= context <= cold ordering. Join = union
///                      with max age; a line tracked on only one side keeps
///                      its age bumped to at least 1 (the untracked path
///                      never accessed it, so the claim is vacuous there,
///                      but the bump is load-bearing: access() skips its
///                      aging sweep only for an age-0 line, which is sound
///                      only if age 0 certifies "most recently accessed in
///                      this set on EVERY path", see access()).
///
/// A line is *persistent* while its persistence age stays strictly below
/// the associativity: fewer than `ways` distinct conflicting lines touched
/// its set since its last access, so under LRU it cannot have been evicted
/// since it was last loaded. Note the deliberately unconditional aging
/// sweep: the classic must-style refinement (age only lines younger than
/// the accessed line) is UNSOUND for persistence — with 2 ways and
/// same-set lines x,y,z the trace z,x,y,z,x really misses twice on x, yet
/// conditional aging would keep age(x) < 2 and wrongly certify it.
///
/// Storage is one buffer of every tracked entry, sorted by (set, line).
/// A set's entries are one contiguous range: the whole buffer in a one-set
/// state (the states every timed walk uses, see cache/set_steady and
/// cache/schedule_wcet), else found by a binary search on the entries'
/// sets. access() and age_set() find that range once, rewrite it in place
/// and then make at most one insert or erase; join() is one linear merge
/// (in place, from the back, for the persistence union). A state of up to
/// nine entries lives in an inline buffer and never touches the heap; a
/// larger one makes a single allocation. Copy, ==, hash and destruction
/// cost what the state tracks, not one container per cache set — most
/// sets of a large cache are empty.
class AbstractCacheState {
public:
  enum class Kind { must, persistence };

  /// Cold must-state over the default CacheConfig (for default-constructed
  /// result aggregates; real analyses always pass an explicit config).
  AbstractCacheState() : AbstractCacheState(CacheConfig{}, Kind::must) {}

  /// Empty (cold) abstract cache.
  /// \throws std::invalid_argument as CacheConfig::validate does.
  AbstractCacheState(const CacheConfig& config, Kind kind);

  Kind kind() const noexcept { return kind_; }
  const CacheConfig& config() const noexcept { return config_; }

  /// Abstract LRU update for an access to \p line (Ferdinand's transfer
  /// function: must ages lines strictly younger than the accessed line;
  /// persistence ages every other tracked line of the set saturating at
  /// `ways` — unconditionally, except that an access to a line already at
  /// age 0 ages nothing, since age 0 proves the set's most recent access
  /// was this very line on every covered path, so it is already counted in
  /// every other line's bound).
  void access(std::uint64_t line);

  /// Must: line is definitely cached. Persistence: line was accessed on at
  /// least one covered path.
  bool contains(std::uint64_t line) const noexcept;

  /// Age bound of a line, or `ways` if not tracked.
  std::size_t age(std::uint64_t line) const noexcept;

  /// Persistence only: the line was provably never evicted since it was
  /// last loaded (its conflict bound never reached the associativity), so
  /// any access point to it misses at most once over the analyzed run.
  bool persistent(std::uint64_t line) const noexcept {
    return kind_ == Kind::persistence && age(line) < ways_;
  }

  /// Join with another state of the same kind and configuration.
  /// \throws std::invalid_argument on kind/config mismatch.
  void join(const AbstractCacheState& other);

  /// Age every tracked line of one set by \p amount: must drops lines
  /// whose bound reaches the associativity; persistence saturates them at
  /// the top instead (entries are never dropped — a saturated line simply
  /// stops being persistent). This is the interference transfer function
  /// of the schedule-dependent WCET derivation (cache/schedule_wcet):
  /// under LRU, `d` distinct conflicting lines inserted by other programs
  /// age a surviving line by at most `d`, so aging a MUST state by an
  /// upper bound on the interfering distinct-line count per set keeps it a
  /// sound under-approximation, and the same count bounds the growth of a
  /// persistence conflict counter.
  /// \throws std::out_of_range if set_index is not a valid set.
  void age_set(std::size_t set_index, std::uint32_t amount);

  /// Read-only view of one set's tracked (line, age) entries.
  /// \pre set_index < config().num_sets().
  std::span<const LineAge> set_entries(std::size_t set_index) const noexcept {
    const Range r = range_of(set_index);
    return {entries() + r.first, entries() + r.last};
  }

  /// Number of tracked lines over all sets.
  std::size_t tracked_lines() const noexcept { return size_; }

  /// Drop every tracked line (back to the cold state).
  void clear() noexcept;

  /// Strong hash over the exact abstract contents (kind plus every
  /// (set, line, age) entry): equal states hash equal, so states can key
  /// hash maps — the static-WCET subtree memo keys on them.
  std::size_t hash() const noexcept;

  /// Logical equality: same kind, configuration and (line, age) entries.
  bool operator==(const AbstractCacheState& other) const noexcept;

  // The buffer is owned: copies duplicate it (reusing this state's buffer
  // on assignment when it is large enough), moves of a heap buffer hand it
  // over. A moved-from state may only be assigned to or destroyed.
  AbstractCacheState(const AbstractCacheState& other);
  AbstractCacheState(AbstractCacheState&& other) noexcept;
  AbstractCacheState& operator=(const AbstractCacheState& other);
  AbstractCacheState& operator=(AbstractCacheState&& other) noexcept;
  ~AbstractCacheState();

private:
  /// Inline buffer: nine entries.
  static constexpr std::size_t kInlineBytes = 9 * sizeof(LineAge);

  /// One set's entries: [first, last) of the buffer.
  struct Range {
    std::uint32_t first = 0;
    std::uint32_t last = 0;
  };

  std::size_t set_of(std::uint64_t line) const noexcept {
    // Caches almost always have a power-of-two set count; the masked path
    // avoids a hardware divide in the innermost fixpoint loop.
    return static_cast<std::size_t>(pow2_sets_ ? (line & (sets_ - 1))
                                               : line % sets_);
  }

  const LineAge* entries() const noexcept {
    return reinterpret_cast<const LineAge*>(buf_);
  }
  LineAge* entries() noexcept { return reinterpret_cast<LineAge*>(buf_); }
  /// The entries of set \p s.
  Range range_of(std::size_t s) const noexcept {
    return sets_ == 1 ? Range{0, size_} : search_range(s);
  }
  /// range_of for a state of several sets: a binary search on set_of.
  Range search_range(std::size_t s) const noexcept;
  std::size_t used_bytes() const noexcept {
    return std::size_t{size_} * sizeof(LineAge);
  }
  bool is_inline() const noexcept { return buf_ == inline_; }

  /// Entry for \p line, or nullptr.
  const LineAge* find(std::uint64_t line) const noexcept;

  /// Copy every member but the buffer and its capacity.
  void copy_shape(const AbstractCacheState& other) noexcept;

  /// Room for \p n entries (may move the buffer).
  void reserve_entries(std::size_t n);

  /// Finish an in-place update of the set whose entries are \p range and
  /// whose first \p kept entries survive: insert \p line at age 0 in
  /// sorted position if given (it must not be among the survivors) and
  /// drop the rest of the old range.
  void commit_set(Range range, std::size_t kept,
                  std::optional<std::uint64_t> line);

  CacheConfig config_;
  Kind kind_ = Kind::must;
  std::size_t sets_ = 0;
  std::size_t ways_ = 0;
  bool pow2_sets_ = false;
  std::uint32_t size_ = 0;  ///< tracked entries
  std::size_t capacity_bytes_ = kInlineBytes;
  // The entries are canonical for the logical contents (sorted by (set,
  // line)), so == compares entries only.
  std::byte* buf_ = inline_;
  alignas(LineAge) std::byte inline_[kInlineBytes];
};

/// Static classification of one instruction-fetch access point. There is
/// no always-miss class: a WCET bound charges it exactly like NC, so no may
/// domain is carried to prove it.
enum class Classification {
  always_hit,      ///< in the must cache: guaranteed hit
  /// Persistent but not guaranteed cached: the access point misses at most
  /// once over the analyzed run (first-miss). The timing schema charges
  /// it as a hit plus a one-time miss-minus-hit penalty — see
  /// cache/static_wcet.
  first_miss,
  not_classified   ///< neither: charged a miss in WCET bounds
};

/// The must+persistence pair every analysis carries around (the
/// static-WCET memo key — see StaticAnalysisMemo — so equality and hash
/// cover both components).
class CachePair {
public:
  /// Cold pair over the default CacheConfig (see AbstractCacheState()).
  CachePair() : CachePair(CacheConfig{}) {}

  /// Cold pair (both states empty: nothing guaranteed, nothing ever
  /// accessed). "Cold" here means *no line of this program* can be cached
  /// -- the right entry assumption both for a truly empty cache and for a
  /// cache filled by other applications (the paper assumes no
  /// inter-application sharing).
  explicit CachePair(const CacheConfig& config);

  /// Classify an access *before* performing it: AH (must), else FM
  /// (persistent: not guaranteed cached now, but provably never evicted
  /// since its last load, so it misses at most once over the analyzed
  /// run), else NC.
  Classification classify(std::uint64_t line) const noexcept;

  /// Perform the access on both states.
  void access(std::uint64_t line);

  /// Classify, update, and return the classification in one step.
  Classification classify_and_access(std::uint64_t line);

  void join(const CachePair& other);

  /// Interference transfer for the schedule-dependent entry derivation:
  /// age one set of the MUST state (dropping evicted lines); see
  /// AbstractCacheState::age_set. The persistence state is untouched:
  /// it is run-local (reset at every analysis entry, see
  /// cache/static_wcet), so there is nothing interference could void.
  void age_interference_set(std::size_t set_index, std::uint32_t amount) {
    must_.age_set(set_index, amount);
  }

  /// Drop the whole persistence state back to "nothing accessed yet":
  /// analyze_static_wcet calls this on its entry state so first-miss
  /// guarantees are established per run — true for any concrete entry
  /// cache — instead of being carried (and distorted, see the
  /// AbstractCacheState kind doc) across runs.
  void reset_persistence();

  const AbstractCacheState& must() const noexcept { return must_; }
  const AbstractCacheState& persistence() const noexcept {
    return persistence_;
  }
  const CacheConfig& config() const noexcept { return must_.config(); }

  /// Combined hash of the two abstract states (AbstractCacheState::hash).
  std::size_t hash() const noexcept;

  bool operator==(const CachePair& other) const = default;

private:
  AbstractCacheState must_;
  AbstractCacheState persistence_;
};

/// Hash functor so CachePair can key std::unordered_map (the per-(app,
/// entry-state) subtree memo in cache/static_wcet).
struct CachePairHash {
  std::size_t operator()(const CachePair& p) const noexcept {
    return p.hash();
  }
};

}  // namespace catsched::cache
