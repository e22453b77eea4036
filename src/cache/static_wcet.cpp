#include "cache/static_wcet.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>

namespace catsched::cache {

namespace {

/// Both cycle columns of one pass (see the header: `cycles` + one-time
/// `penalty` is the first-miss composition, `am_cycles` the classic AM-only
/// one), plus classification counts.
struct PassCounts {
  std::uint64_t cycles = 0;     ///< FM-mode scalable column
  std::uint64_t penalty = 0;    ///< one-time FM penalty: NEVER scaled
  std::uint64_t am_cycles = 0;  ///< AM-only column (penalty-free)
  std::uint64_t ah = 0;
  std::uint64_t fm = 0;
  std::uint64_t nc = 0;

  PassCounts& operator+=(const PassCounts& rhs) {
    cycles += rhs.cycles;
    penalty += rhs.penalty;
    am_cycles += rhs.am_cycles;
    ah += rhs.ah;
    fm += rhs.fm;
    nc += rhs.nc;
    return *this;
  }
  /// Loop steady-pass scaling: a first-miss point misses at most once over
  /// the WHOLE execution, so its penalty is charged once per pass, not per
  /// iteration — everything scales except `penalty`.
  PassCounts& scale(std::uint64_t n) {
    cycles *= n;
    am_cycles *= n;
    ah *= n;
    fm *= n;
    nc *= n;
    return *this;
  }
};

constexpr int kFixpointCap = 4096;
/// Cap on the warm passes of analyze_static_steady_wcet.
constexpr int kWarmPassCap = 64;

PassCounts analyze(const Stmt& stmt, CachePair& state,
                   const CacheConfig& config, StaticAnalysisMemo* memo);

/// Analyze a loop body through the subtree memo when one is present: a
/// body re-entered from an abstract state it was already analyzed from
/// (the steady-state pass after a stabilized fixpoint, warm-pass revisits,
/// nested-loop repeats) hands back the memoized counts and exit state.
PassCounts analyze_body(const Stmt& body, CachePair& state,
                        const CacheConfig& config, StaticAnalysisMemo* memo) {
  if (memo == nullptr) return analyze(body, state, config, memo);
  StaticAnalysisMemo::Key key{&body, state};
  if (const StaticAnalysisMemo::SubtreeResult* cached = memo->find(key)) {
    state = cached->exit;
    return PassCounts{cached->cycles,         cached->fm_penalty,
                      cached->am_only_cycles, cached->always_hit,
                      cached->first_miss,     cached->not_classified};
  }
  const PassCounts counts = analyze(body, state, config, memo);
  memo->store(std::move(key), StaticAnalysisMemo::SubtreeResult{
                                  counts.cycles, counts.penalty,
                                  counts.am_cycles, counts.ah, counts.fm,
                                  counts.nc, state});
  return counts;
}

/// Walk the tree, mutating `state` to the exit abstract cache and returning
/// the worst-case cycle/classification counts.
PassCounts analyze(const Stmt& stmt, CachePair& state,
                   const CacheConfig& config, StaticAnalysisMemo* memo) {
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
      return out;
    }
    case Stmt::Kind::seq: {
      for (const auto& child : stmt.children) {
        out += analyze(child, state, config, memo);
      }
      return out;
    }
    case Stmt::Kind::branch: {
      CachePair else_state = state;
      const PassCounts then_counts =
          analyze(stmt.children[0], state, config, memo);
      const PassCounts else_counts =
          analyze(stmt.children[1], else_state, config, memo);
      state.join(else_state);
      // Timing schema: every column takes its own maximum. The scalable
      // cycle columns and the one-time penalty must NOT be maxed jointly —
      // k executions of the branch cost at most k*max(cycles) +
      // max(penalty) whatever mix of arms runs, while max(cycles+penalty)
      // under-counts the cycle-heavy arm once an enclosing loop scales it.
      // Classification counts are reported from the costlier arm (they are
      // what the scalable bound is made of); with no first-miss points the
      // per-field max degenerates to exactly that arm's counts.
      PassCounts picked = then_counts.cycles >= else_counts.cycles
                              ? then_counts
                              : else_counts;
      picked.cycles = std::max(then_counts.cycles, else_counts.cycles);
      picked.penalty = std::max(then_counts.penalty, else_counts.penalty);
      picked.am_cycles =
          std::max(then_counts.am_cycles, else_counts.am_cycles);
      return picked;
    }
    case Stmt::Kind::loop: {
      // First iteration runs from the incoming state (cold misses happen
      // here); remaining iterations run from the loop fixpoint (steady
      // state), the "virtual unrolling" first/rest distinction.
      const PassCounts first = analyze_body(stmt.children[0], state, config,
                                            memo);
      out += first;
      if (stmt.bound == 1) return out;

      CachePair fix = state;
      bool stable = false;
      for (int it = 0; it < kFixpointCap; ++it) {
        CachePair probe = fix;
        analyze_body(stmt.children[0], probe, config, memo);  // counts unused
        CachePair joined = fix;
        joined.join(probe);
        if (joined == fix) {
          stable = true;
          break;
        }
        fix = std::move(joined);
      }
      if (!stable) {
        throw std::runtime_error(
            "analyze_static_wcet: loop fixpoint did not stabilize");
      }
      // The steady pass re-analyzes the body from the stabilized fixpoint —
      // with a memo this is a guaranteed hit (the final probe ran from the
      // same state).
      CachePair steady_state = fix;
      PassCounts steady =
          analyze_body(stmt.children[0], steady_state, config, memo);
      steady.scale(static_cast<std::uint64_t>(stmt.bound) - 1);
      out += steady;
      state = std::move(steady_state);
      return out;
    }
  }
  return out;
}

}  // namespace

StaticWcetResult analyze_static_wcet(const StructuredProgram& program,
                                     const CacheConfig& config,
                                     const std::optional<CachePair>& entry,
                                     StaticAnalysisMemo* memo) {
  CachePair state = entry ? *entry : CachePair(config);
  // First-miss guarantees are per run: "not accessed yet" is true for
  // every line at run start whatever the entry cache holds, and a
  // persistence state carried across runs can analyze LOOSER than the
  // cold one (see the AbstractCacheState kind doc), so each analysis
  // starts the domain empty.
  state.reset_persistence();
  const PassCounts counts = analyze(program.root, state, config, memo);
  StaticWcetResult res;
  // The reported bound is the tighter of the two independently sound
  // compositions, so first-miss can never loosen it (see the header).
  res.wcet_cycles = std::min(counts.cycles + counts.penalty, counts.am_cycles);
  res.am_only_cycles = counts.am_cycles;
  res.fm_penalty_cycles = counts.penalty;
  res.always_hit = counts.ah;
  res.first_miss = counts.fm;
  res.not_classified = counts.nc;
  res.exit_state = std::move(state);
  return res;
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
