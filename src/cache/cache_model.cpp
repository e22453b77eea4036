#include "cache/cache_model.hpp"

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace catsched::cache {

CacheSim::CacheSim(const CacheConfig& config) : config_(config) {
  if (config.line_bytes == 0 || config.num_lines == 0 || config.clock_hz <= 0) {
    throw std::invalid_argument("CacheSim: zero-sized configuration field");
  }
  ways_ = config.ways();
  if (ways_ == 0 || config.num_lines % ways_ != 0) {
    throw std::invalid_argument(
        "CacheSim: num_lines must be a positive multiple of associativity");
  }
  sets_ = config.num_lines / ways_;
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

void CacheSim::flush() {
  for (Way& w : lines_) w.valid = false;
}

bool CacheSim::contains(std::uint64_t line_addr) const noexcept {
  const std::size_t set = set_of(line_addr);
  const Way* base = &lines_[set * ways_];
  for (std::size_t w = 0; w < ways_; ++w) {
    if (base[w].valid && base[w].tag == line_addr) return true;
  }
  return false;
}

std::size_t CacheSim::resident_lines() const noexcept {
  std::size_t n = 0;
  for (const Way& w : lines_) n += w.valid ? 1 : 0;
  return n;
}

void CacheSim::reset_counters() noexcept {
  hits_ = 0;
  misses_ = 0;
  cycles_ = 0;
}

}  // namespace catsched::cache
