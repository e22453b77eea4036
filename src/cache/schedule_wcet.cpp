#include "cache/schedule_wcet.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
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
    std::vector<StructuredProgram> programs, const CacheConfig& config)
    : config_(config) {
  if (programs.empty()) {
    throw std::invalid_argument("ScheduleWcetAnalyzer: no programs");
  }
  if (programs.size() > 64) {
    throw std::invalid_argument(
        "ScheduleWcetAnalyzer: more than 64 apps cannot be mask-encoded");
  }
  std::vector<SetSteady> steady = analyze_set_steady(programs, config_);
  apps_.reserve(programs.size());
  for (std::size_t i = 0; i < programs.size(); ++i) {
    auto st = std::make_unique<AppState>();
    st->program = std::move(programs[i]);
    st->steady = std::move(steady[i]);
    apps_.push_back(std::move(st));
  }
}

const SteadyPair& ScheduleWcetAnalyzer::base(std::size_t app) const {
  return apps_.at(app)->steady.pair();
}

std::vector<sched::AppWcet> ScheduleWcetAnalyzer::app_wcets() const {
  std::vector<sched::AppWcet> out;
  out.reserve(apps_.size());
  for (const auto& st : apps_) {
    const SteadyPair& pair = st->steady.pair();
    out.push_back(sched::AppWcet{pair.cold.wcet_seconds(config_),
                                 pair.warm.wcet_seconds(config_)});
  }
  return out;
}

void ScheduleWcetAnalyzer::entry_key_locked(AppState& st,
                                            std::uint64_t mask) const {
  const SetShares& sh = *st.shares;
  const std::size_t n = sh.contested.size();
  st.amounts.assign(n, 0);
  std::uint32_t* const amounts = st.amounts.data();
  for (const Group& g : sh.groups) {
    if ((mask & g.touch) == 0) continue;
    // The distinct lines the masked apps fetch: the sizes of the classes
    // the mask meets, added a whole column at a time.
    std::uint32_t* const out = amounts + g.first;
    const std::uint64_t* const classes = sh.classes.data() + g.classes;
    const std::uint32_t* col = sh.sizes.data() + g.sizes;
    for (std::uint32_t r = 0; r < g.columns; ++r, col += g.count) {
      if ((mask & classes[r]) == 0) continue;
      for (std::uint32_t k = 0; k < g.count; ++k) out[k] += col[k];
    }
    for (std::uint32_t k = 0; k < g.count; ++k) {
      out[k] = std::min(out[k], sh.contested[g.first + k].cap);
    }
  }
  st.key.clear();
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t count = amounts[i];
    for (; count >= 0x80; count >>= 7) {
      st.key.push_back(static_cast<char>(0x80 | (count & 0x7f)));
    }
    st.key.push_back(static_cast<char>(count));
  }
}

void ScheduleWcetAnalyzer::build_shares_locked(std::size_t app,
                                               AppState& st) const {
  auto shares = std::make_unique<SetShares>();
  SetShares& sh = *shares;
  // Contested sets: live sets (the generic exit's must state holds an
  // entry) that some other app's footprint touches. Every other set's
  // amount is 0 under every mask. Each goes to the group of its list of
  // owner classes.
  struct Found {
    Contested set;
    /// Its classes: masks[classes, + columns), with their sizes.
    std::uint32_t classes = 0;
    std::uint32_t columns = 0;
  };
  std::vector<Found> found;
  std::vector<std::uint64_t> masks;
  std::vector<std::uint32_t> sizes;
  // Scratch for one set: its interferers' (line, owner bit) pairs, then
  // every distinct line's owner mask.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> owned;
  std::vector<std::uint64_t> owners;
  const SetSteady& steady = st.steady;
  const auto ways = static_cast<std::uint32_t>(config_.ways());
  // Per other app, its first set not below the current one: both walks
  // ascend by set.
  std::vector<std::size_t> cursor(apps_.size(), 0);
  // Only a set the program fetches a line of can be live.
  for (const SetSteady::Set& set : steady.sets()) {
    const std::span<const LineAge> entries =
        steady.shapes()[set.shape].exit.must().set_entries(0);
    if (entries.empty()) continue;
    const std::size_t s = set.set;
    owned.clear();
    for (std::size_t j = 0; j < apps_.size(); ++j) {
      if (j == app) continue;
      // App j's footprint in the set, if it fetches a line of it.
      const SetSteady& other = apps_[j]->steady;
      const std::span<const SetSteady::Set> sets = other.sets();
      std::size_t& k = cursor[j];
      while (k < sets.size() && sets[k].set < s) ++k;
      if (k == sets.size() || sets[k].set != s) continue;
      const std::uint64_t* const lines =
          other.lines().data() + sets[k].lines_begin;
      for (std::uint32_t i = 0; i < sets[k].lines_size; ++i) {
        owned.emplace_back(lines[i], std::uint64_t{1} << j);
      }
    }
    if (owned.empty()) continue;
    // A line's class is the mask of the apps that fetch it.
    std::sort(owned.begin(), owned.end());
    owners.clear();
    for (std::size_t i = 0; i < owned.size(); ++i) {
      if (i == 0 || owned[i].first != owned[i - 1].first) {
        owners.push_back(0);
      }
      owners.back() |= owned[i].second;
    }
    std::sort(owners.begin(), owners.end());
    Found f;
    f.classes = static_cast<std::uint32_t>(masks.size());
    for (std::size_t i = 0; i < owners.size(); ++i) {
      if (i == 0 || owners[i] != owners[i - 1]) {
        masks.push_back(owners[i]);
        sizes.push_back(0);
      }
      ++sizes.back();
    }
    f.columns = static_cast<std::uint32_t>(masks.size()) - f.classes;
    std::uint32_t youngest = ways;
    for (const LineAge& e : entries) youngest = std::min(youngest, e.age);
    f.set.set = set.set;
    f.set.cap = ways - youngest;
    f.set.support_begin = set.support_begin;
    f.set.support_size = set.support_size;
    f.set.shape = set.shape;
    found.push_back(f);
  }
  // Group by class list; each group stays ascending by set.
  const auto classes_of = [&](const Found& f) {
    return std::span<const std::uint64_t>(masks).subspan(f.classes,
                                                          f.columns);
  };
  std::stable_sort(found.begin(), found.end(),
                   [&](const Found& a, const Found& b) {
                     const auto x = classes_of(a);
                     const auto y = classes_of(b);
                     return std::lexicographical_compare(x.begin(), x.end(),
                                                         y.begin(), y.end());
                   });
  for (auto f = found.begin(); f != found.end();) {
    const auto list = classes_of(*f);
    const auto end = std::find_if(f, found.end(), [&](const Found& x) {
      return !std::ranges::equal(classes_of(x), list);
    });
    Group g;
    g.first = static_cast<std::uint32_t>(sh.contested.size());
    g.count = static_cast<std::uint32_t>(end - f);
    g.classes = static_cast<std::uint32_t>(sh.classes.size());
    g.columns = f->columns;
    g.sizes = static_cast<std::uint32_t>(sh.sizes.size());
    for (const std::uint64_t mask : list) g.touch |= mask;
    sh.classes.insert(sh.classes.end(), list.begin(), list.end());
    for (std::uint32_t r = 0; r < g.columns; ++r) {
      for (auto x = f; x != end; ++x) {
        sh.sizes.push_back(std::min(sizes[x->classes + r], x->set.cap));
      }
    }
    for (; f != end; ++f) sh.contested.push_back(f->set);
    sh.groups.push_back(g);
  }
  steady.exit_leaves(sh.base);
  sh.part_at.assign(steady.shapes().size() * (std::size_t{ways} + 1), kUnset);
  st.shares = std::move(shares);
}

std::uint32_t ScheduleWcetAnalyzer::change_locked(AppState& st, std::size_t i,
                                                  std::uint32_t amount) const {
  SetShares& sh = *st.shares;
  const Contested& c = sh.contested[i];
  const SetSteady::Shape& shape = st.steady.shapes()[c.shape];
  // part(amount): the shape walked from its generic exit aged by amount.
  CachePair entry = shape.exit;
  entry.age_interference_set(0, amount);
  st.part.clear();
  const CacheConfig one = entry.config();
  analyze_static_wcet(shape.tree, one, std::move(entry), nullptr, &st.part);
  const auto at = static_cast<std::uint32_t>(sh.parts.size());
  sh.part_at[c.shape * (config_.ways() + 1) + amount] = at;
  // part(0) is warm pass 1: the walk from the unaged generic exit.
  const PassCounts* const zero =
      st.steady.walked().data() + shape.walked + shape.leaves;
  for (std::size_t j = 0; j < c.support_size; ++j) {
    PassCounts change = st.part[j];
    change -= zero[j];
    sh.parts.push_back(change);
  }
  return at;
}

StaticWcetCounts ScheduleWcetAnalyzer::sum_of_parts_locked(
    AppState& st, std::uint64_t mask) const {
  // Unsigned wrap-around cancels: each change is its set's exact change to
  // the leaf, and every leaf is then the whole analysis' leaf.
  const SetShares& sh = *st.shares;
  st.leaves = sh.base;
  const auto add = [&](std::size_t i) {
    const std::uint32_t amount = st.amounts[i];
    if (amount == 0) return;
    const Contested& c = sh.contested[i];
    std::uint32_t at = sh.part_at[c.shape * (config_.ways() + 1) + amount];
    if (at == kUnset) at = change_locked(st, i, amount);
    const PassCounts* const change = sh.parts.data() + at;
    const std::uint32_t* const support =
        st.steady.support().data() + c.support_begin;
    for (std::size_t j = 0; j < c.support_size; ++j) {
      st.leaves[support[j]] += change[j];
    }
  };
  // A group no masked app touches is all zero amounts.
  for (const Group& g : sh.groups) {
    if ((mask & g.touch) == 0) continue;
    for (std::uint32_t k = 0; k < g.count; ++k) add(g.first + k);
  }
  return fold_leaves(st.program.root, st.leaves);
}

const ContextWcet& ScheduleWcetAnalyzer::compute_context_locked(
    std::size_t app, AppState& st, std::uint64_t mask) const {
  ++context_analyses_;
  // Only a fresh context is written: published ones may be read unlocked.
  const auto publish = [&](ContextWcet& out) -> const ContextWcet& {
    out.seconds = static_cast<double>(out.cycles) * config_.cycle_seconds();
    return *st.contexts.emplace(mask, &out).first->second;
  };
  const SteadyPair& pair = st.steady.pair();
  if (mask == 0) {
    st.warm.analysis = pair.warm;
    st.warm.cycles = pair.warm.wcet_cycles;
    st.warm.naturally_ordered = true;
    return publish(st.warm);
  }
  if (!st.shares) build_shares_locked(app, st);
  entry_key_locked(st, mask);
  if (const auto it = st.classes.find(st.key); it != st.classes.end()) {
    return *st.contexts.emplace(mask, &it->second).first->second;
  }
  ContextWcet out;
  out.analysis = sum_of_parts_locked(st, mask);
  const std::uint64_t raw = out.analysis.wcet_cycles;
  const std::uint64_t warm = pair.warm.wcet_cycles;
  const std::uint64_t cold = pair.cold.wcet_cycles;
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
  return compute_context_locked(app, st, mask);
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
