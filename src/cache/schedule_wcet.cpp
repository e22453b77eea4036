#include "cache/schedule_wcet.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>
#include <utility>

namespace catsched::cache {

namespace {

void sort_unique(std::vector<std::uint64_t>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

void collect_lines(const Stmt& stmt, CacheFootprint& out,
                   const CacheConfig& config) {
  if (stmt.kind == Stmt::Kind::block) {
    for (const std::uint64_t line : stmt.lines) {
      out.lines_per_set[config.set_of(line)].push_back(line);
    }
    return;
  }
  for (const Stmt& child : stmt.children) collect_lines(child, out, config);
}

}  // namespace

std::size_t CacheFootprint::total_lines() const noexcept {
  std::size_t n = 0;
  for (const auto& set : lines_per_set) n += set.size();
  return n;
}

CacheFootprint compute_footprint(const Program& program,
                                 const CacheConfig& config) {
  CacheFootprint out;
  out.lines_per_set.resize(config.num_sets());
  for (const std::uint64_t line : program.trace) {
    out.lines_per_set[config.set_of(line)].push_back(line);
  }
  for (auto& set : out.lines_per_set) sort_unique(set);
  return out;
}

CacheFootprint compute_footprint(const Stmt& root, const CacheConfig& config) {
  CacheFootprint out;
  out.lines_per_set.resize(config.num_sets());
  collect_lines(root, out, config);
  for (auto& set : out.lines_per_set) sort_unique(set);
  return out;
}

void merge_footprint(CacheFootprint& into, const CacheFootprint& other) {
  if (into.lines_per_set.size() < other.lines_per_set.size()) {
    into.lines_per_set.resize(other.lines_per_set.size());
  }
  for (std::size_t s = 0; s < other.lines_per_set.size(); ++s) {
    if (other.lines_per_set[s].empty()) continue;
    std::vector<std::uint64_t>& mine = into.lines_per_set[s];
    mine.insert(mine.end(), other.lines_per_set[s].begin(),
                other.lines_per_set[s].end());
    sort_unique(mine);
  }
}

void age_through_interference(CachePair& state,
                              const CacheFootprint& footprint) {
  for (std::size_t s = 0; s < footprint.lines_per_set.size(); ++s) {
    const std::size_t d = footprint.lines_per_set[s].size();
    if (d == 0) continue;
    state.age_interference_set(s, static_cast<std::uint32_t>(
                                      std::min<std::size_t>(d, UINT32_MAX)));
  }
}

ScheduleWcetAnalyzer::ScheduleWcetAnalyzer(
    std::vector<StructuredProgram> programs, const CacheConfig& config,
    FirstMiss first_miss)
    : config_(config), first_miss_(first_miss) {
  if (programs.empty()) {
    throw std::invalid_argument("ScheduleWcetAnalyzer: no programs");
  }
  if (programs.size() > 64) {
    throw std::invalid_argument(
        "ScheduleWcetAnalyzer: more than 64 apps cannot be mask-encoded");
  }
  apps_.reserve(programs.size());
  for (StructuredProgram& p : programs) {
    auto st = std::make_unique<AppState>();
    st->program = std::move(p);
    st->steady = analyze_static_steady_wcet(st->program, config_, &st->memo,
                                            64, first_miss_);
    st->footprint = compute_footprint(st->program.root, config_);
    const AbstractCacheState& must = st->steady.generic_exit.must();
    const auto ways = static_cast<std::uint32_t>(config_.ways());
    for (std::size_t s = 0; s < config_.num_sets(); ++s) {
      const std::span<const LineAge> entries = must.set_entries(s);
      if (entries.empty()) continue;
      std::uint32_t youngest = ways;
      for (const LineAge& e : entries) youngest = std::min(youngest, e.age);
      st->live.push_back(LiveSet{static_cast<std::uint32_t>(s),
                                 ways - youngest});
    }
    apps_.push_back(std::move(st));
  }
}

std::unique_ptr<ScheduleWcetAnalyzer> ScheduleWcetAnalyzer::from_traces(
    const std::vector<Program>& programs, const CacheConfig& config) {
  std::vector<StructuredProgram> structured;
  structured.reserve(programs.size());
  for (const Program& p : programs) {
    structured.push_back(StructuredProgram{p.name, Stmt::block(p.trace)});
  }
  return std::make_unique<ScheduleWcetAnalyzer>(std::move(structured),
                                                config);
}

const StaticSteadyWcet& ScheduleWcetAnalyzer::base(std::size_t app) const {
  return apps_.at(app)->steady;
}

const CacheFootprint& ScheduleWcetAnalyzer::footprint(std::size_t app) const {
  return apps_.at(app)->footprint;
}

std::vector<sched::AppWcet> ScheduleWcetAnalyzer::app_wcets() const {
  std::vector<sched::AppWcet> out;
  out.reserve(apps_.size());
  for (const auto& st : apps_) {
    out.push_back(sched::AppWcet{st->steady.cold.wcet_seconds(config_),
                                 st->steady.warm.wcet_seconds(config_)});
  }
  return out;
}

void ScheduleWcetAnalyzer::entry_key_locked(AppState& st,
                                            std::uint64_t mask) const {
  st.key.clear();
  st.amounts.clear();
  for (const LiveSet& ls : st.live) {
    // Distinct lines over the interferers' sorted lines in this set: a
    // k-way merge that stops at the cap (every entry evicted beyond it).
    st.heads.clear();
    for (std::uint64_t m = mask; m != 0; m &= m - 1) {
      const std::vector<std::uint64_t>& lines =
          apps_[static_cast<std::size_t>(std::countr_zero(m))]
              ->footprint.lines_per_set[ls.set];
      if (!lines.empty()) {
        st.heads.emplace_back(lines.data(), lines.data() + lines.size());
      }
    }
    std::uint32_t count = 0;
    for (; count < ls.cap && !st.heads.empty(); ++count) {
      std::uint64_t next = *st.heads[0].first;
      for (const auto& h : st.heads) next = std::min(next, *h.first);
      for (std::size_t i = 0; i < st.heads.size();) {
        auto& h = st.heads[i];
        if (*h.first == next && ++h.first == h.second) {
          h = st.heads.back();
          st.heads.pop_back();
        } else {
          ++i;
        }
      }
    }
    st.amounts.push_back(count);
    for (; count >= 0x80; count >>= 7) {
      st.key.push_back(static_cast<char>(0x80 | (count & 0x7f)));
    }
    st.key.push_back(static_cast<char>(count));
  }
}

const ContextWcet& ScheduleWcetAnalyzer::compute_context_locked(
    AppState& st, std::uint64_t mask) const {
  ++context_analyses_;
  // Only a fresh context is written: published ones may be read unlocked.
  const auto publish = [&](ContextWcet& out) -> const ContextWcet& {
    out.seconds = static_cast<double>(out.cycles) * config_.cycle_seconds();
    return *st.contexts.emplace(mask, &out).first->second;
  };
  if (mask == 0) {
    st.warm.analysis = st.steady.warm;
    st.warm.cycles = st.steady.warm.wcet_cycles;
    st.warm.naturally_ordered = true;
    return publish(st.warm);
  }
  entry_key_locked(st, mask);
  if (const auto it = st.classes.find(st.key); it != st.classes.end()) {
    return *st.contexts.emplace(mask, &it->second).first->second;
  }
  // Entry derivation: the app's generic exit state with every live set
  // aged by its key — the same must state as aging through the merged
  // interference footprint (see the file header) — then a full
  // re-analysis from that entry (memoized subtrees resolve through
  // st.memo).
  CachePair entry = st.steady.generic_exit;
  for (std::size_t i = 0; i < st.live.size(); ++i) {
    if (st.amounts[i] != 0) {
      entry.age_interference_set(st.live[i].set, st.amounts[i]);
    }
  }
  ContextWcet out;
  out.analysis = analyze_static_wcet(st.program, config_, entry, &st.memo,
                                     first_miss_);
  const std::uint64_t raw = out.analysis.wcet_cycles;
  const std::uint64_t warm = st.steady.warm.wcet_cycles;
  const std::uint64_t cold = st.steady.cold.wcet_cycles;
  out.naturally_ordered = raw >= warm && raw <= cold;
  out.cycles = std::min(std::max(raw, warm), cold);
  ++reanalyses_;
  return publish(st.classes.emplace(st.key, std::move(out)).first->second);
}

const ContextWcet& ScheduleWcetAnalyzer::analyze_context(
    std::size_t app, std::uint64_t mask) const {
  if (app >= apps_.size()) {
    throw std::out_of_range("ScheduleWcetAnalyzer: app out of range");
  }
  // Canonical mask: the app's own bit never interferes (its own execution
  // refreshes, not evicts) and bits beyond the app count are meaningless.
  mask &= ~(std::uint64_t{1} << app);
  if (apps_.size() < 64) mask &= (std::uint64_t{1} << apps_.size()) - 1;

  ++context_requests_;
  AppState& st = *apps_[app];
  {
    // Hot path: memoized contexts resolve under the shared side, so
    // concurrent lookups (even of the same app) never serialize.
    std::shared_lock<std::shared_mutex> lock(st.mu);
    const auto it = st.contexts.find(mask);
    if (it != st.contexts.end()) return *it->second;
  }
  std::unique_lock<std::shared_mutex> lock(st.mu);
  const auto it = st.contexts.find(mask);  // raced compute may have landed
  if (it != st.contexts.end()) return *it->second;
  // References stay valid after the lock drops: unordered_map never
  // invalidates references on rehash, entries are never erased, and the
  // warm context is written once, before its first pointer is published.
  return compute_context_locked(st, mask);
}

double ScheduleWcetAnalyzer::context_wcet_seconds(std::size_t app,
                                                  std::uint64_t mask) const {
  return analyze_context(app, mask).seconds;
}

sched::ContextWcetTable ScheduleWcetAnalyzer::full_table() const {
  const std::size_t n = apps_.size();
  if (n > 12) {
    throw std::invalid_argument(
        "ScheduleWcetAnalyzer::full_table: 2^n masks explode beyond 12 apps "
        "(use the analyzer itself as the lazy ContextWcetLookup)");
  }
  sched::ContextWcetTable table;
  table.base = app_wcets();
  table.contexts.resize(n);
  const std::uint64_t all = std::uint64_t{1} << n;
  for (std::size_t app = 0; app < n; ++app) {
    for (std::uint64_t mask = 0; mask < all; ++mask) {
      if ((mask >> app) & 1u) continue;
      table.contexts[app][mask] = analyze_context(app, mask).seconds;
    }
  }
  return table;
}

ScheduleWcetAnalyzer::Stats ScheduleWcetAnalyzer::stats() const {
  return Stats{context_requests_.load(), context_analyses_.load(),
               reanalyses_.load()};
}

}  // namespace catsched::cache
