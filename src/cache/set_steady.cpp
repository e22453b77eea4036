#include "cache/set_steady.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace catsched::cache {

namespace {

/// Cap on one set's warm passes: analyze_static_steady_wcet's.
constexpr std::uint32_t kWarmPassCap = 64;

/// A set's pruned tree is written in postfix: a block is its header then
/// its renamed lines; a seq of n >= 2 children, a branch and a loop follow
/// their children with their header (a branch's count has bit 0 for a
/// then arm, bit 1 for an else arm; a loop's header is followed by its
/// bound). A header's kind sits in its low two bits, its count above.
enum Tag : std::uint32_t { kBlock = 0, kSeq = 1, kBranch = 2, kLoop = 3 };

constexpr std::uint32_t header(Tag tag, std::uint32_t count) {
  return count << 2 | tag;
}

/// Splits programs by cache set, one at a time, reusing its buffers. A
/// set gets a slot on its program's first fetch of one of its lines.
class Splitter {
public:
  explicit Splitter(const CacheConfig& config)
      : sets_(config.num_sets()),
        pow2_((sets_ & (sets_ - 1)) == 0),
        slot_of_(sets_, kNone),
        count_(sets_, 0),
        at_(sets_, 0) {}

  /// One pass over \p root: every touched set's renamed pruned tree
  /// (encoding()) and lines in order of first use (lines()), and every
  /// (slot, leaf) pair of the supports in leaf order (pairs()).
  void split(const Stmt& root) {
    for (const std::uint32_t set : set_of_slot_) slot_of_[set] = kNone;
    set_of_slot_.clear();
    slot_rec_.clear();
    word_rec_.clear();
    pairs_.clear();
    leaf_ = 0;
    visit(root);
    list_.clear();
    group();
  }

  std::size_t slots() const noexcept { return set_of_slot_.size(); }
  std::uint32_t set(std::size_t k) const noexcept { return set_of_slot_[k]; }
  std::span<const std::uint32_t> encoding(std::size_t k) const noexcept {
    return std::span<const std::uint32_t>(enc_).subspan(
        enc_at_[k], enc_at_[k + 1] - enc_at_[k]);
  }
  std::span<const std::uint64_t> lines(std::size_t k) const noexcept {
    return std::span<const std::uint64_t>(ids_).subspan(
        ids_at_[k], ids_at_[k + 1] - ids_at_[k]);
  }
  const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs()
      const noexcept {
    return pairs_;
  }
  std::uint32_t leaves() const noexcept { return leaf_; }

private:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  std::uint32_t slot(std::uint64_t line) {
    const auto set =
        static_cast<std::uint32_t>(pow2_ ? line & (sets_ - 1) : line % sets_);
    std::uint32_t& k = slot_of_[set];
    if (k == kNone) {
      k = static_cast<std::uint32_t>(set_of_slot_.size());
      set_of_slot_.push_back(set);
    }
    return k;
  }

  /// Appends one word of slot \p k's encoding (a line not yet renamed).
  void emit(std::uint32_t k, std::uint64_t word) {
    slot_rec_.push_back(k);
    word_rec_.push_back(word);
  }

  /// Appends the slots \p stmt touches to list_, each once, and emits
  /// their encodings.
  void visit(const Stmt& stmt) {
    const std::size_t first = list_.size();
    switch (stmt.kind) {
      case Stmt::Kind::block:
        for (const std::uint64_t line : stmt.lines) {
          const std::uint32_t k = slot(line);
          if (count_[k]++ == 0) {
            list_.push_back(k);
            at_[k] = static_cast<std::uint32_t>(word_rec_.size());
            emit(k, 0);  // the header, once the count is known
          }
          emit(k, line);
        }
        for (std::size_t i = first; i < list_.size(); ++i) {
          const std::uint32_t k = list_[i];
          word_rec_[at_[k]] = header(kBlock, count_[k]);
          count_[k] = 0;
          pairs_.emplace_back(k, leaf_);
        }
        ++leaf_;
        return;
      case Stmt::Kind::seq:
        for (const Stmt& child : stmt.children) visit(child);
        // The children's lists, one after another, each without repeats:
        // a slot's count is the number of children that touch its set.
        for (std::size_t i = first; i < list_.size(); ++i) ++count_[list_[i]];
        close(first, [&](std::uint32_t k, std::uint32_t children) {
          if (children > 1) emit(k, header(kSeq, children));
        });
        return;
      case Stmt::Kind::branch: {
        visit(stmt.children[0]);
        const std::size_t mid = list_.size();
        visit(stmt.children[1]);
        for (std::size_t i = first; i < list_.size(); ++i) {
          count_[list_[i]] |= i < mid ? 1u : 2u;
        }
        close(first, [&](std::uint32_t k, std::uint32_t arms) {
          emit(k, header(kBranch, arms));
        });
        return;
      }
      case Stmt::Kind::loop: {
        const std::size_t pairs = pairs_.size();
        const std::uint32_t leaf = leaf_;
        visit(stmt.children[0]);
        for (std::size_t i = first; i < list_.size(); ++i) {
          emit(list_[i], header(kLoop, 0));
          emit(list_[i], static_cast<std::uint32_t>(stmt.bound));
        }
        if (stmt.bound != 1) {
          // The steady pass walks the body's leaves again.
          const std::uint32_t n = leaf_ - leaf;
          const std::size_t end = pairs_.size();
          pairs_.resize(end + (end - pairs));
          for (std::size_t i = pairs; i < end; ++i) {
            pairs_[end + (i - pairs)] = {pairs_[i].first, pairs_[i].second + n};
          }
          leaf_ += n;
        }
        return;
      }
    }
  }

  /// Keeps each slot of list_[first, end) once, calling \p emit with its
  /// count, and clears the counts.
  template <typename Emit>
  void close(std::size_t first, Emit emit) {
    std::size_t kept = first;
    for (std::size_t i = first; i < list_.size(); ++i) {
      const std::uint32_t k = list_[i];
      if (count_[k] == 0) continue;  // a repeat of a kept slot
      emit(k, count_[k]);
      count_[k] = 0;
      list_[kept++] = k;
    }
    list_.resize(kept);
  }

  /// Groups the emitted words by slot (a stable counting sort, so each
  /// slot's stay in emission order), then renames each slot's lines in
  /// order of first use.
  void group() {
    const std::size_t slots = set_of_slot_.size();
    enc_at_.assign(slots + 1, 0);
    for (const std::uint32_t k : slot_rec_) ++enc_at_[k + 1];
    for (std::size_t k = 0; k < slots; ++k) enc_at_[k + 1] += enc_at_[k];
    next_.assign(enc_at_.begin(), enc_at_.end() - 1);
    grouped_.resize(word_rec_.size());
    for (std::size_t r = 0; r < word_rec_.size(); ++r) {
      grouped_[next_[slot_rec_[r]]++] = word_rec_[r];
    }
    enc_.resize(grouped_.size());
    ids_.clear();
    ids_at_.resize(slots + 1);
    for (std::size_t k = 0; k < slots; ++k) {
      ids_at_[k] = static_cast<std::uint32_t>(ids_.size());
      for (std::uint32_t i = enc_at_[k]; i < enc_at_[k + 1];) {
        const auto word = static_cast<std::uint32_t>(grouped_[i]);
        enc_[i++] = word;
        switch (static_cast<Tag>(word & 3u)) {
          case kBlock:
            for (const std::uint32_t end = i + (word >> 2); i < end; ++i) {
              enc_[i] = rename(grouped_[i], ids_at_[k]);
            }
            break;
          case kLoop:
            enc_[i] = static_cast<std::uint32_t>(grouped_[i]);  // the bound
            ++i;
            break;
          case kSeq:
          case kBranch:
            break;
        }
      }
    }
    ids_at_[slots] = static_cast<std::uint32_t>(ids_.size());
  }

  /// The id of \p line among the slot's lines ids_[from, end): its index
  /// there, appended if new.
  std::uint32_t rename(std::uint64_t line, std::uint32_t from) {
    const auto first = ids_.begin() + from;
    const auto id = static_cast<std::uint32_t>(
        std::find(first, ids_.end(), line) - first);
    if (from + id == ids_.size()) ids_.push_back(line);
    return id;
  }

  std::size_t sets_;
  bool pow2_;
  std::vector<std::uint32_t> slot_of_;  ///< per set
  std::vector<std::uint32_t> set_of_slot_;
  std::vector<std::uint32_t> count_;  ///< per slot; 0 between uses
  std::vector<std::uint32_t> at_;     ///< per slot: its block header
  std::vector<std::uint32_t> list_;   ///< the touched slots, per subtree
  /// The emitted words and their slots, in emission order.
  std::vector<std::uint32_t> slot_rec_;
  std::vector<std::uint64_t> word_rec_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs_;
  std::uint32_t leaf_ = 0;
  /// The words grouped by slot: slot k's at [enc_at_[k], enc_at_[k + 1]),
  /// unrenamed in grouped_, renamed in enc_; its lines in ids_ from
  /// ids_at_[k].
  std::vector<std::uint32_t> enc_at_;
  std::vector<std::uint32_t> next_;
  std::vector<std::uint64_t> grouped_;
  std::vector<std::uint32_t> enc_;
  std::vector<std::uint64_t> ids_;
  std::vector<std::uint32_t> ids_at_;
};

/// The tree an encoding writes (see Tag).
Stmt decode(std::span<const std::uint32_t> enc) {
  std::vector<Stmt> stack;
  const auto pop = [&stack] {
    Stmt top = std::move(stack.back());
    stack.pop_back();
    return top;
  };
  for (std::size_t i = 0; i < enc.size();) {
    const std::uint32_t count = enc[i] >> 2;
    switch (static_cast<Tag>(enc[i++] & 3u)) {
      case kBlock:
        stack.push_back(Stmt::block(std::vector<std::uint64_t>(
            enc.begin() + static_cast<std::ptrdiff_t>(i),
            enc.begin() + static_cast<std::ptrdiff_t>(i + count))));
        i += count;
        break;
      case kSeq: {
        std::vector<Stmt> children(
            std::make_move_iterator(stack.end() - count),
            std::make_move_iterator(stack.end()));
        stack.resize(stack.size() - count);
        stack.push_back(Stmt::seq(std::move(children)));
        break;
      }
      case kBranch: {
        Stmt else_arm = (count & 2u) != 0 ? pop() : Stmt::seq({});
        Stmt then_arm = (count & 1u) != 0 ? pop() : Stmt::seq({});
        stack.push_back(Stmt::branch(std::move(then_arm), std::move(else_arm)));
        break;
      }
      case kLoop:
        stack.push_back(Stmt::loop(pop(), static_cast<int>(enc[i++])));
        break;
    }
  }
  return pop();
}

/// Walks one renamed pruned tree under the one-set cache \p one: cold,
/// then the warm chain until its exit maps to itself, each pass's leaves
/// appended to \p walked. The cold exit is the generic exit (see the
/// file header).
SetSteady::Shape walk_shape(Stmt tree, const CacheConfig& one,
                            std::vector<PassCounts>& walked) {
  SetSteady::Shape shape;
  shape.tree.root = std::move(tree);
  shape.walked = static_cast<std::uint32_t>(walked.size());
  StaticWcetResult pass =
      analyze_static_wcet(shape.tree, one, std::nullopt, nullptr, &walked);
  shape.leaves = static_cast<std::uint32_t>(walked.size()) - shape.walked;
  shape.exit = pass.exit_state;
  CachePair entry = std::move(pass.exit_state);
  for (shape.passes = 1;; ++shape.passes) {
    if (shape.passes > kWarmPassCap) {
      throw std::runtime_error(
          "analyze_set_steady: warm exit state did not stabilize");
    }
    pass = analyze_static_wcet(shape.tree, one, entry, nullptr, &walked);
    if (pass.exit_state == entry) break;
    entry = std::move(pass.exit_state);
  }
  return shape;
}

}  // namespace

void SetSteady::scatter(std::uint32_t pass,
                        std::vector<PassCounts>& out) const {
  out.assign(leaf_count_, PassCounts{});
  for (const Set& set : sets_) {
    const Shape& shape = shapes_[set.shape];
    const PassCounts* const leaves =
        walked_.data() + shape.walked +
        std::min(pass, shape.passes) * shape.leaves;
    const std::uint32_t* const to = support_.data() + set.support_begin;
    for (std::uint32_t j = 0; j < set.support_size; ++j) {
      out[to[j]] += leaves[j];
    }
  }
}

void SetSteady::exit_leaves(std::vector<PassCounts>& out) const {
  scatter(1, out);
}

SetSteady::SetExit SetSteady::set_exit(std::size_t i) const {
  const Set& set = sets_.at(i);
  const CachePair& exit = shapes_[set.shape].exit;
  const auto own_lines = [&](const AbstractCacheState& state) {
    std::vector<LineAge> out;
    for (const LineAge& e : state.set_entries(0)) {
      const std::uint32_t at = ids_[set.lines_begin + e.line];
      out.push_back(LineAge{lines_[set.lines_begin + at], e.age});
    }
    std::sort(out.begin(), out.end(),
              [](const LineAge& a, const LineAge& b) { return a.line < b.line; });
    return out;
  };
  return SetExit{own_lines(exit.must()), own_lines(exit.persistence())};
}

std::vector<SetSteady> analyze_set_steady(
    std::span<const StructuredProgram> programs, const CacheConfig& config) {
  config.validate();
  // A one-set cache of the same ways and cycle costs.
  CacheConfig one = config;
  one.num_lines = config.ways();
  one.associativity = config.ways();
  Splitter splitter(config);
  std::unordered_map<std::string_view, std::uint32_t> shape_of;
  std::vector<std::uint32_t> shape_of_slot;
  std::vector<std::uint32_t> begin;
  std::vector<PassCounts> leaves;
  std::vector<SetSteady> out(programs.size());
  for (std::size_t p = 0; p < programs.size(); ++p) {
    const Stmt& root = programs[p].root;
    SetSteady& st = out[p];
    splitter.split(root);
    const std::size_t slots = splitter.slots();
    st.leaf_count_ = splitter.leaves();

    // Each distinct encoding is decoded and walked once. The keys view
    // the splitter's encodings, which stay put until the next program.
    shape_of.clear();
    shape_of_slot.resize(slots);
    for (std::size_t k = 0; k < slots; ++k) {
      const std::span<const std::uint32_t> enc = splitter.encoding(k);
      const std::string_view key(reinterpret_cast<const char*>(enc.data()),
                                 enc.size() * sizeof(std::uint32_t));
      const auto [it, fresh] = shape_of.try_emplace(
          key, static_cast<std::uint32_t>(st.shapes_.size()));
      if (fresh) st.shapes_.push_back(walk_shape(decode(enc), one, st.walked_));
      shape_of_slot[k] = it->second;
    }

    // The supports: the pairs grouped by slot with a counting sort
    // (stable, so each stays in leaf order).
    const auto& pairs = splitter.pairs();
    begin.assign(slots + 1, 0);
    for (const auto& pr : pairs) ++begin[pr.first + 1];
    for (std::size_t k = 0; k < slots; ++k) begin[k + 1] += begin[k];
    st.support_.resize(pairs.size());
    for (const auto& [k, leaf] : pairs) st.support_[begin[k]++] = leaf;

    // begin[k] now ends slot k's support.
    st.sets_.resize(slots);
    for (std::size_t k = 0; k < slots; ++k) {
      SetSteady::Set& set = st.sets_[k];
      set.set = splitter.set(k);
      set.shape = shape_of_slot[k];
      set.support_begin = k == 0 ? 0 : begin[k - 1];
      set.support_size = begin[k] - set.support_begin;
      // The lines ascending, and where each renamed line sits among them.
      const std::span<const std::uint64_t> ids = splitter.lines(k);
      set.lines_begin = static_cast<std::uint32_t>(st.lines_.size());
      set.lines_size = static_cast<std::uint32_t>(ids.size());
      st.lines_.insert(st.lines_.end(), ids.begin(), ids.end());
      const auto sorted = st.lines_.begin() + set.lines_begin;
      std::sort(sorted, st.lines_.end());
      for (const std::uint64_t line : ids) {
        st.ids_.push_back(static_cast<std::uint32_t>(
            std::lower_bound(sorted, st.lines_.end(), line) - sorted));
      }
      if (set.support_size != st.shapes_[set.shape].leaves) {
        throw std::logic_error(
            "analyze_set_steady: a set's walk left its support");
      }
    }
    std::sort(st.sets_.begin(), st.sets_.end(),
              [](const SetSteady::Set& a, const SetSteady::Set& b) {
                return a.set < b.set;
              });

    // Cold is pass 0 of every set; whole warm pass k is every set's pass
    // min(k, K_s), and the whole chain stops after the longest set's.
    st.scatter(0, leaves);
    st.pair_.cold = fold_leaves(root, leaves);
    std::uint32_t passes = 1;
    for (const SetSteady::Shape& shape : st.shapes_) {
      passes = std::max(passes, shape.passes);
    }
    for (std::uint32_t k = 1; k <= passes; ++k) {
      st.scatter(k, leaves);
      const StaticWcetCounts pass = fold_leaves(root, leaves);
      if (k == 1 || pass.wcet_cycles > st.pair_.warm.wcet_cycles) {
        st.pair_.warm = pass;
      }
    }
  }
  return out;
}

}  // namespace catsched::cache
