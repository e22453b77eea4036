#pragma once
/// \file cache_model.hpp
/// \brief Instruction-cache timing model: a set-associative (or direct-mapped
///        or fully-associative) cache with LRU replacement, replayed against
///        instruction-fetch line traces to obtain execution cycle counts.
///
/// This is the platform substrate replacing the paper's Infineon XC23xxB +
/// static WCET analysis (see DESIGN.md, substitution table). Defaults match
/// the paper's experimental configuration: 128 lines x 16 B, 1-cycle hit,
/// 100-cycle miss, 20 MHz clock.

#include <cstdint>
#include <vector>

namespace catsched::cache {

/// Static description of the cache and processor timing.
struct CacheConfig {
  std::size_t line_bytes = 16;    ///< bytes per cache line
  std::size_t num_lines = 128;    ///< total cache lines
  std::size_t associativity = 1;  ///< ways per set; 0 means fully associative
  std::uint32_t hit_cycles = 1;   ///< cycles for a fetch that hits
  std::uint32_t miss_cycles = 100;  ///< cycles for a fetch that misses
  double clock_hz = 20.0e6;       ///< processor clock frequency

  /// Ways actually used (associativity 0 -> num_lines).
  std::size_t ways() const noexcept {
    return associativity == 0 ? num_lines : associativity;
  }
  /// Number of sets = num_lines / ways.
  /// \throws std::invalid_argument if num_lines is not divisible by ways
  ///         or any field is zero (validated by CacheSim).
  std::size_t num_sets() const noexcept { return num_lines / ways(); }

  /// Seconds per clock cycle.
  double cycle_seconds() const noexcept { return 1.0 / clock_hz; }

  /// THE set-mapping function of this cache: which set a line address
  /// falls into. CacheSim and AbstractCacheState keep private mask-based
  /// fast paths that must compute exactly this (differentially tested);
  /// everything without a hot loop (footprints in cache/schedule_wcet)
  /// should call this instead of re-deriving the formula.
  std::size_t set_of(std::uint64_t line) const noexcept {
    return static_cast<std::size_t>(line % num_sets());
  }

  bool operator==(const CacheConfig&) const = default;
};

/// A running cache: feed it line addresses, it reports hits/misses and
/// accumulates cycle counts.
class CacheSim {
public:
  /// \throws std::invalid_argument on inconsistent configuration.
  explicit CacheSim(const CacheConfig& config);

  const CacheConfig& config() const noexcept { return config_; }

  /// Fetch one cache line. Returns true on hit. Updates LRU state and the
  /// hit/miss/cycle counters.
  bool access(std::uint64_t line_addr);

  /// Fetch a whole trace of line addresses; returns cycles consumed by it.
  std::uint64_t run_trace(const std::vector<std::uint64_t>& lines);

  /// Invalidate every line (cold cache).
  void flush();

  /// True if the line is currently resident.
  bool contains(std::uint64_t line_addr) const noexcept;

  /// Number of resident lines.
  std::size_t resident_lines() const noexcept;

  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  std::uint64_t total_cycles() const noexcept { return cycles_; }

  /// Zero the hit/miss/cycle counters (cache contents untouched).
  void reset_counters() noexcept;

private:
  struct Way {
    std::uint64_t tag = 0;
    bool valid = false;
  };

  std::size_t set_of(std::uint64_t line_addr) const noexcept {
    // Masked path for power-of-two set counts: no hardware divide in the
    // trace-replay inner loop.
    return static_cast<std::size_t>(set_mask_ != 0 ? (line_addr & set_mask_)
                                                   : line_addr % sets_);
  }

  CacheConfig config_;
  std::size_t sets_ = 0;
  std::size_t ways_ = 0;
  std::uint64_t set_mask_ = 0;  ///< sets_ - 1 when sets_ is a power of two
  // sets_ x ways_ entries; within a set, index 0 is MRU, last is LRU.
  std::vector<Way> lines_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t cycles_ = 0;
};

}  // namespace catsched::cache
