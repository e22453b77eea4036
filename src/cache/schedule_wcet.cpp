#include "cache/schedule_wcet.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <stdexcept>
#include <tuple>
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

/// The subtrees of a statement that fetch a line of a slot's set, for
/// every slot it touches, ascending by slot.
using Pruned = std::vector<std::pair<std::uint32_t, Stmt>>;

/// Splits a program by contested set (`slot_of` maps a set to its slot, or
/// to -1 for a set that is not contested): each slot's pruned program and
/// support.
class SetSplitter {
public:
  SetSplitter(const std::vector<std::int32_t>& slot_of, std::size_t slots,
              const CacheConfig& config)
      : slot_of_(slot_of), config_(config), count_(slots, 0), pos_(slots, 0) {}

  /// One pass over the tree: for every slot whose set \p stmt fetches a
  /// line of, \p stmt pruned to the subtrees that do, each block
  /// restricted to the set's lines in fetch order. A pruned-away subtree
  /// leaves the set's state unchanged and adds nothing to its leaves, and
  /// a seq of one child is that child, so the pruned walk's leaves are the
  /// whole walk's leaves that fetch a line of the set, in order.
  Pruned prune(const Stmt& stmt) {
    Pruned out;
    switch (stmt.kind) {
      case Stmt::Kind::block:
        for (const std::uint64_t line : stmt.lines) {
          if (const std::int32_t slot = slot_of_[config_.set_of(line)];
              slot >= 0) {
            touch(static_cast<std::uint32_t>(slot));
          }
        }
        open(out, [](Stmt& b, std::uint32_t n) { b.lines.reserve(n); });
        for (const std::uint64_t line : stmt.lines) {
          if (const std::int32_t slot = slot_of_[config_.set_of(line)];
              slot >= 0) {
            out[pos_[static_cast<std::size_t>(slot)]].second.lines.push_back(
                line);
          }
        }
        return out;
      case Stmt::Kind::seq: {
        std::vector<Pruned> kids;
        kids.reserve(stmt.children.size());
        for (const Stmt& child : stmt.children) kids.push_back(prune(child));
        for (const Pruned& kid : kids) {
          for (const auto& p : kid) touch(p.first);
        }
        // A slot one child touches takes that child itself, the others a
        // seq of their children in program order.
        std::vector<bool> single;
        open(out, [&](Stmt& b, std::uint32_t n) {
          single.push_back(n == 1);
          if (n == 1) return;
          b.kind = Stmt::Kind::seq;
          b.children.reserve(n);
        });
        for (Pruned& kid : kids) {
          for (auto& [slot, sub] : kid) {
            const std::uint32_t i = pos_[slot];
            if (single[i]) {
              out[i].second = std::move(sub);
            } else {
              out[i].second.children.push_back(std::move(sub));
            }
          }
        }
        return out;
      }
      case Stmt::Kind::branch: {
        Pruned then_arm = prune(stmt.children[0]);
        Pruned else_arm = prune(stmt.children[1]);
        auto t = then_arm.begin();
        auto e = else_arm.begin();
        while (t != then_arm.end() || e != else_arm.end()) {
          // An arm that fetches nothing of the set is an empty seq.
          if (e == else_arm.end() ||
              (t != then_arm.end() && t->first < e->first)) {
            out.emplace_back(t->first, Stmt::branch(std::move(t->second),
                                                    Stmt::seq({})));
            ++t;
          } else if (t == then_arm.end() || e->first < t->first) {
            out.emplace_back(e->first, Stmt::branch(Stmt::seq({}),
                                                    std::move(e->second)));
            ++e;
          } else {
            out.emplace_back(t->first, Stmt::branch(std::move(t->second),
                                                    std::move(e->second)));
            ++t;
            ++e;
          }
        }
        return out;
      }
      case Stmt::Kind::loop:
        out = prune(stmt.children[0]);
        for (auto& p : out) {
          p.second = Stmt::loop(std::move(p.second), stmt.bound);
        }
        return out;
    }
    return out;
  }

  /// One walk of the whole tree's leaf order (analyze_static_wcet's): the
  /// (slot, leaf) pairs of every leaf and every slot whose set its block
  /// fetches a line of, in leaf order.
  void enumerate_support(
      const Stmt& stmt, std::uint32_t& leaf,
      std::vector<std::pair<std::uint32_t, std::uint32_t>>& out) {
    switch (stmt.kind) {
      case Stmt::Kind::block:
        for (const std::uint64_t line : stmt.lines) {
          if (const std::int32_t slot = slot_of_[config_.set_of(line)];
              slot >= 0) {
            touch(static_cast<std::uint32_t>(slot));
          }
        }
        for (const std::uint32_t slot : touched_) {
          out.emplace_back(slot, leaf);
          count_[slot] = 0;
        }
        touched_.clear();
        ++leaf;
        return;
      case Stmt::Kind::seq:
      case Stmt::Kind::branch:
        for (const Stmt& child : stmt.children) {
          enumerate_support(child, leaf, out);
        }
        return;
      case Stmt::Kind::loop:
        enumerate_support(stmt.children[0], leaf, out);
        if (stmt.bound > 1) enumerate_support(stmt.children[0], leaf, out);
        return;
    }
  }

private:
  void touch(std::uint32_t slot) {
    if (count_[slot]++ == 0) touched_.push_back(slot);
  }

  /// One entry of \p out per touched slot, ascending, each made by
  /// \p init(stmt, touch count); pos_ maps a slot to its entry. Clears the
  /// counts.
  template <typename Init>
  void open(Pruned& out, Init init) {
    std::sort(touched_.begin(), touched_.end());
    out.reserve(touched_.size());
    for (const std::uint32_t slot : touched_) {
      pos_[slot] = static_cast<std::uint32_t>(out.size());
      out.emplace_back(slot, Stmt{});
      init(out.back().second, count_[slot]);
      count_[slot] = 0;
    }
    touched_.clear();
  }

  const std::vector<std::int32_t>& slot_of_;
  const CacheConfig& config_;
  std::vector<std::uint32_t> count_;  ///< per slot; 0 between uses
  std::vector<std::uint32_t> pos_;    ///< per slot: its entry in `out`
  std::vector<std::uint32_t> touched_;
};

void append_word(std::string& out, std::uint32_t word) {
  char bytes[sizeof word];
  std::memcpy(bytes, &word, sizeof word);
  out.append(bytes, sizeof word);
}

/// The id of \p line: its index in \p ids, appended if new.
std::uint32_t rename(std::vector<std::uint64_t>& ids, std::uint64_t line) {
  const auto it = std::find(ids.begin(), ids.end(), line);
  if (it != ids.end()) return static_cast<std::uint32_t>(it - ids.begin());
  ids.push_back(line);
  return static_cast<std::uint32_t>(ids.size() - 1);
}

/// Appends \p stmt's shape to \p out: every node's kind, each loop's
/// bound, each seq's or branch's child count and each block's lines
/// renamed by \p ids, in walk order.
void append_shape(const Stmt& stmt, std::vector<std::uint64_t>& ids,
                  std::string& out) {
  append_word(out, static_cast<std::uint32_t>(stmt.kind));
  switch (stmt.kind) {
    case Stmt::Kind::block:
      append_word(out, static_cast<std::uint32_t>(stmt.lines.size()));
      for (const std::uint64_t line : stmt.lines) {
        append_word(out, rename(ids, line));
      }
      return;
    case Stmt::Kind::loop:
      append_word(out, static_cast<std::uint32_t>(stmt.bound));
      append_shape(stmt.children[0], ids, out);
      return;
    case Stmt::Kind::seq:
    case Stmt::Kind::branch:
      append_word(out, static_cast<std::uint32_t>(stmt.children.size()));
      for (const Stmt& child : stmt.children) append_shape(child, ids, out);
      return;
  }
}

/// The leaves of a set's pruned program analyzed under a one-set cache from
/// that set of \p generic_exit aged by \p amount: the set's part of every
/// leaf on its support, from the correspondingly aged entry.
void set_leaves(const CachePair& generic_exit, std::uint32_t set,
                const StructuredProgram& pruned, std::uint32_t amount,
                std::vector<PassCounts>& leaves) {
  CachePair entry = generic_exit.slice_set(set);
  entry.age_interference_set(0, amount);
  leaves.clear();
  const CacheConfig config = entry.config();
  analyze_static_wcet(pruned, config, std::move(entry), nullptr, &leaves);
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
  apps_.reserve(programs.size());
  for (StructuredProgram& p : programs) {
    auto st = std::make_unique<AppState>();
    st->program = std::move(p);
    st->steady = analyze_static_steady_wcet(st->program, config_, &st->memo);
    st->footprint = compute_footprint(st->program.root, config_);
    apps_.push_back(std::move(st));
  }
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
  const SetShares& sh = *st.shares;
  const std::size_t n = sh.contested.size();
  st.amounts.assign(n, 0);
  std::uint32_t* const amounts = st.amounts.data();
  for (const Group& g : sh.groups) {
    if ((mask & g.touch) == 0) continue;
    // Disjoint footprints: the distinct count is the sum of the sizes.
    std::uint32_t* const out = amounts + g.first;
    const std::uint32_t* col = sh.sizes.data() + g.sizes;
    for (std::uint64_t t = g.touch; t != 0; t &= t - 1, col += g.count) {
      if (((mask >> std::countr_zero(t)) & 1u) == 0) continue;
      for (std::uint32_t k = 0; k < g.count; ++k) out[k] += col[k];
    }
    for (std::uint32_t k = 0; k < g.count; ++k) {
      out[k] = std::min(out[k], sh.contested[g.first + k].cap);
    }
  }
  for (std::size_t i = sh.shared_begin; i < n; ++i) {
    // Distinct lines over the interferers' sorted lines in this set: a
    // k-way merge that stops at the cap (every entry evicted beyond it).
    const Contested& c = sh.contested[i];
    st.heads.clear();
    for (std::uint32_t k = c.first; k < c.last; ++k) {
      const Interferer& in = sh.interferers[k];
      if ((mask >> in.app) & 1u) {
        st.heads.emplace_back(in.lines, in.lines + in.size);
      }
    }
    std::uint32_t count = 0;
    for (; count < c.cap && !st.heads.empty(); ++count) {
      std::uint64_t next = *st.heads[0].first;
      for (const auto& h : st.heads) next = std::min(next, *h.first);
      for (std::size_t j = 0; j < st.heads.size();) {
        auto& h = st.heads[j];
        if (*h.first == next && ++h.first == h.second) {
          h = st.heads.back();
          st.heads.pop_back();
        } else {
          ++j;
        }
      }
    }
    amounts[i] = count;
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
  // amount is 0 under every mask. Disjoint ones go to the group of their
  // interfering apps, the others (a line shared) after all groups.
  struct Found {
    bool shared = false;
    std::uint64_t touch = 0;
    Contested set;  ///< first, last: into `in`
  };
  std::vector<Found> found;
  std::vector<Interferer> in;
  std::vector<std::uint64_t> lines;
  const AbstractCacheState& must = st.steady.generic_exit.must();
  const auto ways = static_cast<std::uint32_t>(config_.ways());
  for (std::size_t s = 0; s < config_.num_sets(); ++s) {
    const std::span<const LineAge> entries = must.set_entries(s);
    if (entries.empty()) continue;
    Found f;
    f.set.first = static_cast<std::uint32_t>(in.size());
    for (std::size_t j = 0; j < apps_.size(); ++j) {
      if (j == app) continue;
      const std::vector<std::uint64_t>& lines_j =
          apps_[j]->footprint.lines_per_set[s];
      if (lines_j.empty()) continue;
      in.push_back(Interferer{static_cast<std::uint32_t>(j),
                              static_cast<std::uint32_t>(lines_j.size()),
                              lines_j.data()});
      f.touch |= std::uint64_t{1} << j;
    }
    f.set.last = static_cast<std::uint32_t>(in.size());
    if (f.set.first == f.set.last) continue;
    std::uint32_t youngest = ways;
    for (const LineAge& e : entries) youngest = std::min(youngest, e.age);
    f.set.set = static_cast<std::uint32_t>(s);
    f.set.cap = ways - youngest;
    if (f.set.last - f.set.first > 1) {
      lines.clear();
      for (std::uint32_t k = f.set.first; k < f.set.last; ++k) {
        lines.insert(lines.end(), in[k].lines, in[k].lines + in[k].size);
      }
      std::sort(lines.begin(), lines.end());
      f.shared = std::adjacent_find(lines.begin(), lines.end()) != lines.end();
    }
    found.push_back(f);
  }
  // The groups, then the shared sets; each run stays ascending by set.
  std::stable_sort(found.begin(), found.end(),
                   [](const Found& a, const Found& b) {
                     return std::tie(a.shared, a.touch) <
                            std::tie(b.shared, b.touch);
                   });
  auto f = found.begin();
  while (f != found.end() && !f->shared) {
    const auto end = std::find_if(f, found.end(), [&](const Found& x) {
      return x.shared || x.touch != f->touch;
    });
    Group g;
    g.touch = f->touch;
    g.first = static_cast<std::uint32_t>(sh.contested.size());
    g.count = static_cast<std::uint32_t>(end - f);
    g.sizes = static_cast<std::uint32_t>(sh.sizes.size());
    const std::uint32_t apps = f->set.last - f->set.first;
    for (std::uint32_t r = 0; r < apps; ++r) {
      for (auto x = f; x != end; ++x) {
        sh.sizes.push_back(std::min(in[x->set.first + r].size, x->set.cap));
      }
    }
    for (; f != end; ++f) {
      Contested c = f->set;
      c.first = c.last = 0;
      sh.contested.push_back(c);
    }
    sh.groups.push_back(g);
  }
  sh.shared_begin = sh.contested.size();
  for (; f != found.end(); ++f) {
    Contested c = f->set;
    c.first = static_cast<std::uint32_t>(sh.interferers.size());
    sh.interferers.insert(sh.interferers.end(), in.begin() + f->set.first,
                          in.begin() + f->set.last);
    c.last = static_cast<std::uint32_t>(sh.interferers.size());
    sh.contested.push_back(c);
  }
  analyze_static_wcet(st.program, config_, st.steady.generic_exit, &st.memo,
                      &sh.base);
  std::vector<std::int32_t> slot_of(config_.num_sets(), -1);
  for (std::size_t i = 0; i < sh.contested.size(); ++i) {
    slot_of[sh.contested[i].set] = static_cast<std::int32_t>(i);
  }
  SetSplitter splitter(slot_of, sh.contested.size(), config_);
  // The supports, grouped by slot with a counting sort (stable: each stays
  // in leaf order).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  std::uint32_t leaf = 0;
  splitter.enumerate_support(st.program.root, leaf, pairs);
  std::vector<std::uint32_t> begin(sh.contested.size() + 1, 0);
  for (const auto& p : pairs) ++begin[p.first + 1];
  for (std::size_t i = 0; i < sh.contested.size(); ++i) {
    begin[i + 1] += begin[i];
  }
  sh.support.resize(pairs.size());
  std::vector<std::uint32_t> next(begin.begin(), begin.end() - 1);
  for (const auto& [slot, l] : pairs) sh.support[next[slot]++] = l;
  sh.programs.resize(sh.contested.size());
  for (auto& [slot, pruned] : splitter.prune(st.program.root)) {
    sh.programs[slot].root = std::move(pruned);
  }
  std::unordered_map<std::string, std::uint32_t> shapes;
  std::vector<std::uint64_t> ids;
  std::string shape;
  for (std::size_t i = 0; i < sh.contested.size(); ++i) {
    Contested& c = sh.contested[i];
    c.support_begin = begin[i];
    c.support_size = begin[i + 1] - begin[i];
    c.parts_begin = static_cast<std::uint32_t>(sh.part_at.size());
    sh.part_at.resize(sh.part_at.size() + c.cap + 1, kUnset);
    ids.clear();
    shape.clear();
    append_shape(sh.programs[i].root, ids, shape);
    c.shape = shapes
                  .try_emplace(shape,
                               static_cast<std::uint32_t>(shapes.size()))
                  .first->second;
    c.must_begin = static_cast<std::uint32_t>(sh.must.size());
    for (const LineAge& e : must.set_entries(c.set)) {
      sh.must.push_back(LineAge{rename(ids, e.line), e.age});
    }
    c.must_size = static_cast<std::uint32_t>(sh.must.size()) - c.must_begin;
    std::sort(
        sh.must.begin() + c.must_begin, sh.must.end(),
        [](const LineAge& a, const LineAge& b) { return a.line < b.line; });
  }
  st.shares = std::move(shares);
}

std::uint32_t ScheduleWcetAnalyzer::change_locked(AppState& st, std::size_t i,
                                                  std::uint32_t amount) const {
  SetShares& sh = *st.shares;
  const Contested& c = sh.contested[i];
  const auto walk = [&](std::uint32_t a) {
    set_leaves(st.steady.generic_exit, c.set, sh.programs[i], a, st.part);
    if (st.part.size() != c.support_size) {
      throw std::logic_error(
          "ScheduleWcetAnalyzer: a set's part left its support");
    }
  };
  // part(a)'s leaves in `walked`: walked once per renamed shape and aged
  // must entries.
  const auto part = [&](std::uint32_t a) {
    const auto ways = static_cast<std::uint32_t>(config_.ways());
    st.walk_key.clear();
    append_word(st.walk_key, c.shape);
    for (std::uint32_t k = 0; k < c.must_size; ++k) {
      const LineAge& e = sh.must[c.must_begin + k];
      if (e.age + a >= ways) continue;  // evicted by the aging
      append_word(st.walk_key, static_cast<std::uint32_t>(e.line));
      append_word(st.walk_key, e.age + a);
    }
    const auto [it, fresh] = sh.walks.try_emplace(
        st.walk_key, static_cast<std::uint32_t>(sh.walked.size()));
    if (fresh) {
      walk(a);
      sh.walked.insert(sh.walked.end(), st.part.begin(), st.part.end());
    }
    return it->second;
  };
  std::uint32_t* const slots = sh.part_at.data() + c.parts_begin;
  if (slots[0] == kUnset) slots[0] = part(0);
  const std::uint32_t aged = part(amount);
  slots[amount] = static_cast<std::uint32_t>(sh.parts.size());
  for (std::size_t j = 0; j < c.support_size; ++j) {
    PassCounts change = sh.walked[aged + j];
    change -= sh.walked[slots[0] + j];
    sh.parts.push_back(change);
  }
  return slots[amount];
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
    std::uint32_t at = sh.part_at[c.parts_begin + amount];
    if (at == kUnset) at = change_locked(st, i, amount);
    const PassCounts* const change = sh.parts.data() + at;
    const std::uint32_t* const support = sh.support.data() + c.support_begin;
    for (std::size_t j = 0; j < c.support_size; ++j) {
      st.leaves[support[j]] += change[j];
    }
  };
  // A group no masked app touches is all zero amounts.
  for (const Group& g : sh.groups) {
    if ((mask & g.touch) == 0) continue;
    for (std::uint32_t k = 0; k < g.count; ++k) add(g.first + k);
  }
  for (std::size_t i = sh.shared_begin; i < sh.contested.size(); ++i) add(i);
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
  if (mask == 0) {
    st.warm.analysis = st.steady.warm;
    st.warm.cycles = st.steady.warm.wcet_cycles;
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
