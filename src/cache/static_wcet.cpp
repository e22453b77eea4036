#include "cache/static_wcet.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>

namespace catsched::cache {

namespace {

constexpr int kFixpointCap = 4096;
/// Cap on the warm passes of analyze_static_steady_wcet.
constexpr int kWarmPassCap = 64;

/// Timing schema at a branch join: every column takes its own maximum.
/// The scalable cycle columns and the one-time penalty must NOT be maxed
/// jointly — k executions of the branch cost at most k*max(cycles) +
/// max(penalty) whatever mix of arms runs, while max(cycles+penalty)
/// under-counts the cycle-heavy arm once an enclosing loop scales it.
/// Classification counts are reported from the costlier arm (they are
/// what the scalable bound is made of; a tie goes to the then arm); with
/// no first-miss points the per-field max degenerates to exactly that
/// arm's counts. Shared by the walk and fold_leaves.
PassCounts join_arms(const PassCounts& then_counts,
                     const PassCounts& else_counts) {
  PassCounts picked =
      then_counts.cycles >= else_counts.cycles ? then_counts : else_counts;
  picked.cycles = std::max(then_counts.cycles, else_counts.cycles);
  picked.penalty = std::max(then_counts.penalty, else_counts.penalty);
  picked.am_cycles = std::max(then_counts.am_cycles, else_counts.am_cycles);
  return picked;
}

/// Timing schema of a loop of bound > 1: the first pass plus the steady
/// pass scaled by the remaining iterations (the penalty is not scaled).
/// Shared by the walk and fold_leaves.
PassCounts loop_total(PassCounts first, PassCounts steady, int bound) {
  steady.scale(static_cast<std::uint64_t>(bound) - 1);
  first += steady;
  return first;
}

/// The reported counts of a whole walk: the bound is the tighter of the
/// two independently sound compositions, so first-miss can never loosen
/// it (see the header).
StaticWcetCounts to_counts(const PassCounts& counts) {
  StaticWcetCounts res;
  res.wcet_cycles = std::min(counts.cycles + counts.penalty, counts.am_cycles);
  res.am_only_cycles = counts.am_cycles;
  res.fm_penalty_cycles = counts.penalty;
  res.always_hit = counts.ah;
  res.first_miss = counts.fm;
  res.not_classified = counts.nc;
  return res;
}

PassCounts analyze(const Stmt& stmt, CachePair& state,
                   const CacheConfig& config, StaticAnalysisMemo* memo,
                   std::vector<PassCounts>* leaves);

/// Analyze a loop body through the subtree memo when one is present: a
/// body re-entered from an abstract state it was already analyzed from
/// (the steady-state pass after a stabilized fixpoint, warm-pass revisits,
/// nested-loop repeats) hands back the memoized counts and exit state.
/// A counted pass under a leaf sink walks directly: a hit carries no
/// leaves.
PassCounts analyze_body(const Stmt& body, CachePair& state,
                        const CacheConfig& config, StaticAnalysisMemo* memo,
                        std::vector<PassCounts>* leaves) {
  if (memo == nullptr || leaves != nullptr) {
    return analyze(body, state, config, memo, leaves);
  }
  StaticAnalysisMemo::Key key{&body, state};
  if (const StaticAnalysisMemo::SubtreeResult* cached = memo->find(key)) {
    state = cached->exit;
    return cached->counts;
  }
  const PassCounts counts = analyze(body, state, config, memo, nullptr);
  memo->store(std::move(key), StaticAnalysisMemo::SubtreeResult{counts, state});
  return counts;
}

/// Walk the tree, mutating `state` to the exit abstract cache and returning
/// the worst-case cycle/classification counts (each counted block
/// instance also appended to `leaves` when non-null).
PassCounts analyze(const Stmt& stmt, CachePair& state,
                   const CacheConfig& config, StaticAnalysisMemo* memo,
                   std::vector<PassCounts>* leaves) {
  PassCounts out;
  switch (stmt.kind) {
    case Stmt::Kind::block: {
      for (const std::uint64_t line : stmt.lines) {
        switch (state.classify_and_access(line)) {
          case Classification::always_hit:
            ++out.ah;
            out.cycles += config.hit_cycles;
            out.am_cycles += config.hit_cycles;
            break;
          case Classification::first_miss: {
            // At most one real miss at this point over the whole
            // execution: charge a hit in the scalable column and park the
            // miss-hit difference in the one-time penalty (guarded so a
            // degenerate miss <= hit configuration never underflows and
            // never exceeds the AM-only charge).
            ++out.fm;
            const std::uint64_t base =
                std::min(config.hit_cycles, config.miss_cycles);
            out.cycles += base;
            out.penalty += config.miss_cycles - base;
            out.am_cycles += config.miss_cycles;
            break;
          }
          case Classification::not_classified:
            ++out.nc;
            out.cycles += config.miss_cycles;  // pessimistic for the bound
            out.am_cycles += config.miss_cycles;
            break;
        }
      }
      if (leaves != nullptr) leaves->push_back(out);
      return out;
    }
    case Stmt::Kind::seq: {
      for (const auto& child : stmt.children) {
        out += analyze(child, state, config, memo, leaves);
      }
      return out;
    }
    case Stmt::Kind::branch: {
      CachePair else_state = state;
      const PassCounts then_counts =
          analyze(stmt.children[0], state, config, memo, leaves);
      const PassCounts else_counts =
          analyze(stmt.children[1], else_state, config, memo, leaves);
      state.join(else_state);
      return join_arms(then_counts, else_counts);
    }
    case Stmt::Kind::loop: {
      // First iteration runs from the incoming state (cold misses happen
      // here); remaining iterations run from the loop fixpoint (steady
      // state), the "virtual unrolling" first/rest distinction.
      const Stmt& body = stmt.children[0];
      const PassCounts first = analyze_body(body, state, config, memo, leaves);
      if (stmt.bound == 1) return first;

      // `state` is rewritten with the steady exit below, so the fixpoint
      // starts from it moved, and each probe joins the previous iterate
      // into itself (join commutes). The probe is one scratch state that
      // carries each new iterate into the next round, and `fix` takes a
      // copy of it in its own buffer.
      CachePair fix = std::move(state);
      CachePair probe = fix;
      bool stable = false;
      for (int it = 0; it < kFixpointCap; ++it) {
        analyze_body(body, probe, config, memo, nullptr);  // counts unused
        probe.join(fix);
        if (probe == fix) {
          stable = true;
          break;
        }
        fix = probe;
      }
      if (!stable) {
        throw std::runtime_error(
            "analyze_static_wcet: loop fixpoint did not stabilize");
      }
      // The steady pass re-analyzes the body from the stabilized fixpoint —
      // with a memo this is a guaranteed hit (the final probe ran from the
      // same state).
      const PassCounts steady = analyze_body(body, fix, config, memo, leaves);
      state = std::move(fix);
      return loop_total(first, steady, stmt.bound);
    }
  }
  return out;
}

/// fold_leaves' walk: consumes the leaves of `stmt` from `next` on.
PassCounts fold(const Stmt& stmt, const PassCounts*& next,
                const PassCounts* end) {
  switch (stmt.kind) {
    case Stmt::Kind::block:
      if (next == end) {
        throw std::invalid_argument("fold_leaves: too few leaves");
      }
      return *next++;
    case Stmt::Kind::seq: {
      PassCounts out;
      for (const Stmt& child : stmt.children) out += fold(child, next, end);
      return out;
    }
    case Stmt::Kind::branch: {
      const PassCounts then_counts = fold(stmt.children[0], next, end);
      return join_arms(then_counts, fold(stmt.children[1], next, end));
    }
    case Stmt::Kind::loop: {
      const PassCounts first = fold(stmt.children[0], next, end);
      if (stmt.bound == 1) return first;
      return loop_total(first, fold(stmt.children[0], next, end), stmt.bound);
    }
  }
  return PassCounts{};
}

}  // namespace

StaticWcetResult analyze_static_wcet(const StructuredProgram& program,
                                     const CacheConfig& config,
                                     std::optional<CachePair> entry,
                                     StaticAnalysisMemo* memo,
                                     std::vector<PassCounts>* leaves) {
  CachePair& state = entry ? *entry : entry.emplace(config);
  // First-miss guarantees are per run: "not accessed yet" is true for
  // every line at run start whatever the entry cache holds, and a
  // persistence state carried across runs can analyze LOOSER than the
  // cold one (see the AbstractCacheState kind doc), so each analysis
  // starts the domain empty.
  state.reset_persistence();
  const PassCounts counts = analyze(program.root, state, config, memo, leaves);
  return StaticWcetResult{to_counts(counts), std::move(state)};
}

StaticWcetCounts fold_leaves(const Stmt& root,
                             std::span<const PassCounts> leaves) {
  const PassCounts* next = leaves.data();
  const PassCounts* const end = next + leaves.size();
  const PassCounts counts = fold(root, next, end);
  if (next != end) throw std::invalid_argument("fold_leaves: too many leaves");
  return to_counts(counts);
}

StaticSteadyWcet analyze_static_steady_wcet(const StructuredProgram& program,
                                            const CacheConfig& config,
                                            StaticAnalysisMemo* memo) {
  StaticSteadyWcet out;
  out.cold = analyze_static_wcet(program, config, std::nullopt, memo);
  out.generic_exit = out.cold.exit_state;
  CachePair entry = out.cold.exit_state;
  bool steady = false;
  for (int it = 0; it < kWarmPassCap; ++it) {
    const StaticWcetResult pass =
        analyze_static_wcet(program, config, entry, memo);
    out.generic_exit.join(pass.exit_state);
    // The warm bound must cover EVERY run >= 2 of a burst, whose entry is
    // only guaranteed to refine the cold exit — so keep the WORST pass of
    // the chain, not the fixpoint pass. Entries grow monotonically along
    // the chain (entry_{i+1} = F(entry_i) >= entry_i since entry_1 =
    // F(bottom)), so per-pass bounds are non-increasing and the max is the
    // first pass; taking the running max stays sound regardless.
    if (it == 0 || pass.wcet_cycles > out.warm.wcet_cycles) out.warm = pass;
    if (pass.exit_state == entry) {
      steady = true;
      break;
    }
    entry = pass.exit_state;
  }
  if (!steady) {
    throw std::runtime_error(
        "analyze_static_steady_wcet: warm exit state did not stabilize");
  }
  return out;
}

}  // namespace catsched::cache
