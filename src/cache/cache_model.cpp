#include "cache/cache_model.hpp"

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace catsched::cache {

void CacheConfig::validate() const {
  if (line_bytes == 0 || num_lines == 0) {
    throw std::invalid_argument("CacheConfig: zero-sized configuration field");
  }
  if (num_lines % ways() != 0) {
    throw std::invalid_argument(
        "CacheConfig: num_lines must be a multiple of associativity");
  }
  // Written so that NaN fails too (every comparison with NaN is false).
  if (!(std::isfinite(clock_hz) && clock_hz > 0.0)) {
    throw std::invalid_argument("CacheConfig: clock_hz must be positive");
  }
}

CacheSim::CacheSim(const CacheConfig& config) : config_(config) {
  config.validate();
  ways_ = config.ways();
  sets_ = config.num_sets();
  if ((sets_ & (sets_ - 1)) == 0) set_mask_ = sets_ - 1;
  lines_.assign(sets_ * ways_, Way{});
}

bool CacheSim::access(std::uint64_t line_addr) {
  const std::size_t set = set_of(line_addr);
  Way* base = &lines_[set * ways_];
  // Search the set; on hit, move the way to the MRU position (index 0).
  for (std::size_t w = 0; w < ways_; ++w) {
    if (base[w].valid && base[w].tag == line_addr) {
      const Way hit_way = base[w];
      for (std::size_t k = w; k > 0; --k) base[k] = base[k - 1];
      base[0] = hit_way;
      ++hits_;
      cycles_ += config_.hit_cycles;
      return true;
    }
  }
  // Miss: evict LRU (last slot), shift, insert at MRU.
  for (std::size_t k = ways_ - 1; k > 0; --k) base[k] = base[k - 1];
  base[0] = Way{line_addr, true};
  ++misses_;
  cycles_ += config_.miss_cycles;
  return false;
}

std::uint64_t CacheSim::run_trace(const std::vector<std::uint64_t>& lines) {
  const std::uint64_t before = cycles_;
  for (std::uint64_t l : lines) access(l);
  return cycles_ - before;
}

}  // namespace catsched::cache
