#pragma once
/// \file program.hpp
/// \brief Synthetic control-program images: worst-case-path instruction
///        fetch traces over cache lines, plus generators for the layouts
///        used by the tests and the paper-calibrated case study.
///
/// A Program is the worst-case execution path of one control task, recorded
/// as the sequence of cache-line addresses its instruction fetches touch.
/// Replaying the trace through a CacheSim yields the task's execution
/// cycles; from a cold cache that is the WCET the paper's Section II-B
/// computes with static analysis.

#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache_model.hpp"

namespace catsched::cache {

/// One application's program image / worst-case path trace.
struct Program {
  std::string name;
  /// Absolute cache-line addresses, one entry per instruction-fetch group
  /// that touches a (possibly new) line on the worst-case path.
  std::vector<std::uint64_t> trace;

  /// Number of distinct lines the path touches (program footprint in lines).
  std::size_t distinct_lines() const;

  /// Footprint in bytes for the given line size.
  std::size_t footprint_bytes(std::size_t line_bytes) const {
    return distinct_lines() * line_bytes;
  }
};

/// A straight-line program: \p lines consecutive lines starting at
/// \p base_line, each fetched \p fetches_per_line times in a row.
Program make_sequential_program(std::string name, std::size_t lines,
                                std::size_t fetches_per_line,
                                std::uint64_t base_line = 0);

/// A program with an init section followed by a loop: the loop body
/// [loop_start, loop_start+loop_len) is traversed \p iterations times.
/// \throws std::invalid_argument if the loop exceeds the program.
Program make_looped_program(std::string name, std::size_t lines,
                            std::size_t loop_start, std::size_t loop_len,
                            std::size_t iterations,
                            std::uint64_t base_line = 0);

/// Parameters of the exact-calibration layout (the one the case study uses
/// to reproduce Table I; see core/case_study.cpp for the per-app numbers).
///
/// The program consists of:
///  * \p singleton_lines lines, each mapped to its own cache set (sets
///    0..S-1 relative to base): these hit on every warm re-execution and
///    are the "guaranteed cache reuse" the paper's program analysis
///    certifies;
///  * conflict groups (sizes in \p conflict_group_sizes, each >= 2), every
///    group mapped into one set (sets S, S+1, ... relative to base): these
///    self-evict and miss on every execution, cold or warm;
///  * \p extra_hit_fetches immediate re-fetches of just-accessed lines
///    (intra-line instruction fetches), distributed round-robin: always
///    hits.
///
/// With hit/miss costs (1, 100):
///   cold cycles = 100 * L + E,  warm cycles = cold - 99 * S,
/// where L = singletons + sum(group sizes), E = extra_hit_fetches.
struct CalibratedLayout {
  std::size_t singleton_lines = 0;
  std::vector<std::size_t> conflict_group_sizes;
  std::size_t extra_hit_fetches = 0;

  std::size_t total_lines() const;
  /// Sets occupied = singletons + number of conflict groups.
  std::size_t sets_used() const {
    return singleton_lines + conflict_group_sizes.size();
  }
};

/// Build a calibrated program for a cache with \p num_sets sets.
/// \p base_line must be a multiple of num_sets so that relative set
/// arithmetic holds. \throws std::invalid_argument if the layout needs more
/// sets than available, a group has size < 2, or base_line is misaligned.
Program make_calibrated_program(std::string name,
                                const CalibratedLayout& layout,
                                std::size_t num_sets,
                                std::uint64_t base_line);

/// Predicted cycle counts for a calibrated program under the given costs
/// (closed form above); used to cross-check the simulator.
struct CalibratedPrediction {
  std::uint64_t cold_cycles;
  std::uint64_t warm_cycles;
};
CalibratedPrediction predict_calibrated_cycles(const CalibratedLayout& layout,
                                               std::uint32_t hit_cycles,
                                               std::uint32_t miss_cycles);

}  // namespace catsched::cache
