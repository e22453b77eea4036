#include "opt/discrete_search.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/snapshot.hpp"
#include "opt/portfolio.hpp"

namespace catsched::opt {

std::vector<std::uint8_t> encode_evaluation_table(const EvaluationTable& table) {
  core::SnapshotWriter w;
  w.put_u64(table.size());
  for (const auto& [point, out] : table) {
    w.put_int_vector(point);
    w.put_f64(out.value);
    w.put_u8(out.feasible ? 1 : 0);
  }
  return w.take();
}

EvaluationTable decode_evaluation_table(
    const std::vector<std::uint8_t>& payload) {
  core::SnapshotReader r(payload);
  const std::uint64_t count = r.get_u64();
  EvaluationTable table;
  table.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::vector<int> point = r.get_int_vector();
    EvalOutcome out;
    out.value = r.get_f64();
    out.feasible = r.get_u8() != 0;
    table.emplace_back(std::move(point), out);
  }
  return table;
}

const EvalOutcome& EvalCache::evaluate(const std::vector<int>& p,
                                       std::atomic<int>* misses) {
  bool computed = false;
  const EvalOutcome& out = cache_.get_or_compute(p, [&] {
    computed = true;
    return objective_(p);
  });
  if (computed) {
    if (misses != nullptr) misses->fetch_add(1);
    record(p, out);
  }
  return out;
}

const EvalOutcome& EvalCache::evaluate_neighbor_of(
    const std::vector<int>& base, const std::vector<int>& p,
    std::atomic<int>* misses) {
  if (!neighbor_) return evaluate(p, misses);
  bool computed = false;
  // The neighbor objective is bit-identical to the plain one (its
  // contract), so whichever path wins the memo slot stores the same value.
  const EvalOutcome& out = cache_.get_or_compute(p, [&] {
    computed = true;
    return neighbor_(base, p);
  });
  if (computed) {
    if (misses != nullptr) misses->fetch_add(1);
    record(p, out);
  }
  return out;
}

std::vector<const EvalOutcome*> EvalCache::evaluate_batch(
    const std::vector<const std::vector<int>*>& points, core::ThreadPool* pool,
    std::atomic<int>* misses, const std::vector<int>* base,
    const core::RunBudget* budget) {
  std::vector<const EvalOutcome*> out(points.size(), nullptr);
  core::parallel_for(
      pool, points.size(), 0,
      [&](std::size_t i) {
        out[i] = base != nullptr
                     ? &evaluate_neighbor_of(*base, *points[i], misses)
                     : &evaluate(*points[i], misses);
      },
      budget);
  return out;
}

void EvalCache::enable_checkpoints(std::string path, int every,
                                   core::FaultPlan* fault) {
  std::lock_guard<std::mutex> lock(journal_mu_);
  if (!path_.empty()) return;  // first configuration wins
  path_ = std::move(path);
  every_ = every < 1 ? 1 : every;
  fault_ = fault;
}

bool EvalCache::try_resume(bool* used_fallback) {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(journal_mu_);
    path = path_;
  }
  if (path.empty() || !core::snapshot_exists(path)) {
    if (used_fallback != nullptr) *used_fallback = false;
    return false;
  }
  const std::vector<std::uint8_t> payload = core::load_snapshot_file(
      path, core::kSnapshotKindEvaluationTable, used_fallback);
  preload(decode_evaluation_table(payload));
  return true;
}

void EvalCache::preload(const EvaluationTable& table) {
  for (const auto& [point, outcome] : table) {
    bool inserted = false;
    cache_.get_or_compute(point, [&] {
      inserted = true;
      return outcome;
    });
    if (inserted) {
      std::lock_guard<std::mutex> lock(journal_mu_);
      journal_.emplace_back(point, outcome);
      // Preloaded entries count as already saved — they came from disk.
      ++last_saved_;
    }
  }
}

void EvalCache::record(const std::vector<int>& p, const EvalOutcome& out) {
  std::lock_guard<std::mutex> lock(journal_mu_);
  journal_.emplace_back(p, out);
  if (!path_.empty() && journal_.size() - last_saved_ >=
                            static_cast<std::size_t>(every_)) {
    save_locked();
  }
}

void EvalCache::save_locked() {
  core::write_snapshot_file(path_, core::kSnapshotKindEvaluationTable,
                            encode_evaluation_table(journal_), fault_);
  last_saved_ = journal_.size();
  ++writes_;
}

void EvalCache::save_checkpoint() {
  std::lock_guard<std::mutex> lock(journal_mu_);
  if (path_.empty() || journal_.size() == last_saved_) return;
  save_locked();
}

EvaluationTable EvalCache::dump_table() const {
  std::lock_guard<std::mutex> lock(journal_mu_);
  return journal_;
}

int EvalCache::checkpoints_written() const {
  std::lock_guard<std::mutex> lock(journal_mu_);
  return writes_;
}

namespace {

bool in_bounds(const std::vector<int>& p, const HybridOptions& opts) {
  for (int v : p) {
    if (v < opts.min_value || v > opts.max_value) return false;
  }
  return true;
}

}  // namespace

HybridResult hybrid_search(EvalCache& cache, const CheapFeasible& cheap,
                           const std::vector<int>& start,
                           const HybridOptions& opts, core::ThreadPool* pool) {
  if (start.empty()) {
    throw std::invalid_argument("hybrid_search: empty start");
  }
  if (!in_bounds(start, opts) || !cheap(start)) {
    throw std::invalid_argument("hybrid_search: start point infeasible");
  }
  const std::size_t n = start.size();
  // Count the points THIS run computes (memo misses it wins), not a global
  // cache-size delta — under parallel multistart the latter would absorb
  // other runs' concurrent insertions.
  std::atomic<int> run_misses{0};
  core::RunBudget* budget = opts.anytime.budget;

  HybridResult res;
  if (budget != nullptr && budget->cancelled()) {
    // Fired before this run started (e.g. a later start in a cancelled
    // multistart): report the reason, do no work.
    res.telemetry.stop = budget->reason();
    return res;
  }
  std::vector<int> cur = start;
  EvalOutcome cur_out = cache.evaluate(cur, &run_misses);
  if (budget != nullptr) {  // the start's miss is charged like a step's
    budget->note_evaluations(static_cast<std::uint64_t>(run_misses.load()));
  }
  res.path.push_back(cur);
  std::unordered_set<std::vector<int>, core::VectorHash> visited{cur};

  auto consider_best = [&](const std::vector<int>& p, const EvalOutcome& o) {
    if (o.feasible && (!res.found_feasible || o.value > res.best_value)) {
      res.found_feasible = true;
      res.best_value = o.value;
      res.best = p;
    }
  };
  consider_best(cur, cur_out);

  for (int step = 0; step < opts.max_steps; ++step) {
    // Anytime check, quantized to the step boundary: stop-flag and
    // evaluation-cap trips land here deterministically (evaluations are
    // noted only at the end of a completed step), so a run cut short after
    // k steps matches a max_steps = k run bit for bit.
    if (budget != nullptr && budget->cancelled()) {
      res.telemetry.stop = budget->reason();
      break;
    }
    // Build the per-dimension 1-D quadratic models: evaluate both discrete
    // neighbors where feasible; the model's gradient at the current point
    // is the central (or one-sided) difference. All candidate neighbors of
    // the step are batched through the pool; the order of consider_best and
    // the step decision below are serial, keeping the run bit-identical to
    // a pool-less one.
    struct Neighbor {
      std::size_t dim;
      int dir;
      std::vector<int> point;
    };
    std::vector<Neighbor> neighbors;
    neighbors.reserve(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<int> pm = cur;
      pm[i] -= 1;
      if (in_bounds(pm, opts) && cheap(pm)) {
        neighbors.push_back(Neighbor{i, -1, std::move(pm)});
      }
      std::vector<int> pp = cur;
      pp[i] += 1;
      if (in_bounds(pp, opts) && cheap(pp)) {
        neighbors.push_back(Neighbor{i, +1, std::move(pp)});
      }
    }
    std::vector<const std::vector<int>*> batch;
    batch.reserve(neighbors.size());
    for (const Neighbor& nb : neighbors) batch.push_back(&nb.point);
    // Every candidate is a +-1 neighbor of cur: memo misses take the
    // delta-aware path when the cache has one (bit-identical results).
    const int misses_before = run_misses.load();
    const std::vector<const EvalOutcome*> outcomes =
        cache.evaluate_batch(batch, pool, &run_misses, &cur, budget);
    if (budget != nullptr && budget->cancelled()) {
      // A deadline (or external stop) fired mid-batch: some slots are
      // null. Discard the whole batch — finished evaluations stay in the
      // cache, but no decision is made from a partial neighborhood, so the
      // result is exactly the last completed step's.
      res.telemetry.stop = budget->reason();
      break;
    }
    if (budget != nullptr) {
      budget->note_evaluations(
          static_cast<std::uint64_t>(run_misses.load() - misses_before));
    }

    std::vector<std::optional<double>> f_minus(n);
    std::vector<std::optional<double>> f_plus(n);
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      consider_best(neighbors[k].point, *outcomes[k]);
      (neighbors[k].dir < 0 ? f_minus : f_plus)[neighbors[k].dim] =
          outcomes[k]->value;
    }

    struct Move {
      std::size_t dim;
      int dir;
      double gradient;  // predicted improvement per unit step
    };
    std::vector<Move> moves;
    for (std::size_t i = 0; i < n; ++i) {
      double grad;
      if (f_minus[i] && f_plus[i]) {
        grad = (*f_plus[i] - *f_minus[i]) / 2.0;
      } else if (f_plus[i]) {
        grad = *f_plus[i] - cur_out.value;
      } else if (f_minus[i]) {
        grad = cur_out.value - *f_minus[i];
      } else {
        continue;
      }
      // Propose every existing neighbor, scored by the model's predicted
      // gain along that direction; negative-gain moves stay in the list so
      // the tolerance (the simulated-annealing feature) can take them when
      // nothing better exists.
      if (f_plus[i]) moves.push_back(Move{i, +1, grad});
      if (f_minus[i]) moves.push_back(Move{i, -1, -grad});
    }
    std::sort(moves.begin(), moves.end(), [](const Move& a, const Move& b) {
      return a.gradient > b.gradient;
    });

    // Take the best-gradient direction whose target is feasible, unvisited
    // and not worse than the tolerance allows (Sec. IV: feasibility first,
    // then second-best direction and so on).
    bool moved = false;
    for (const Move& mv : moves) {
      std::vector<int> next = cur;
      next[mv.dim] += mv.dir;
      if (visited.count(next)) continue;
      // Memo hit (batched above), but count defensively via run_misses.
      const EvalOutcome& out = cache.evaluate(next, &run_misses);
      consider_best(next, out);
      if (!out.feasible) continue;  // eq. (3) violated: try next direction
      if (out.value + opts.tolerance < cur_out.value) continue;
      cur = next;
      cur_out = out;
      visited.insert(cur);
      res.path.push_back(cur);
      ++res.steps;
      moved = true;
      break;
    }
    if (!moved) break;
  }

  res.new_evaluations = run_misses.load();
  return res;
}

MultiStartResult hybrid_search_multistart(
    const DiscreteObjective& objective, const CheapFeasible& cheap,
    const std::vector<std::vector<int>>& starts, const HybridOptions& opts,
    core::ThreadPool* pool, const NeighborObjective& neighbor) {
  EvalCache cache(objective, neighbor);
  MultiStartResult res;
  if (!opts.anytime.checkpoint_path.empty()) {
    cache.enable_checkpoints(opts.anytime.checkpoint_path,
                             opts.anytime.checkpoint_every, opts.anytime.fault);
    // Resume-by-replay: preload the table and rerun every start — memo
    // hits fast-forward each run to where the previous process died, so
    // the final combined result (and the unique-evaluation total) is
    // bit-identical to an uninterrupted run. Only the per-run
    // `new_evaluations` split shifts (preloaded points cost nobody).
    res.telemetry.resumed = cache.try_resume(&res.telemetry.used_fallback);
  }
  res.runs.resize(starts.size());
  core::parallel_for(pool, starts.size(), [&](std::size_t i) {
    res.runs[i] = hybrid_search(cache, cheap, starts[i], opts, pool);
  });
  // Deterministic reduction: combine in start order regardless of which
  // run finished first.
  for (const HybridResult& r : res.runs) {
    if (r.found_feasible &&
        (!res.combined.found_feasible ||
         r.best_value > res.combined.best_value)) {
      res.combined = r;
    }
  }
  if (opts.anytime.budget != nullptr && opts.anytime.budget->cancelled()) {
    res.telemetry.stop = opts.anytime.budget->reason();
    res.combined.telemetry.stop = res.telemetry.stop;
  }
  cache.save_checkpoint();
  res.telemetry.checkpoints_written = cache.checkpoints_written();
  res.unique_evaluations = cache.unique_evaluations();
  return res;
}

namespace {

void scan_rec(const CheapFeasible& cheap, int lo, int hi,
              std::vector<int>& p, std::size_t dim, bool& hit_boundary,
              std::vector<std::vector<int>>& out) {
  if (dim == p.size()) {
    if (cheap(p)) {
      out.push_back(p);
      for (int v : p) {
        if (v == hi) hit_boundary = true;
      }
    }
    return;
  }
  for (int v = lo; v <= hi; ++v) {
    p[dim] = v;
    scan_rec(cheap, lo, hi, p, dim + 1, hit_boundary, out);
  }
  p[dim] = lo;
}

}  // namespace

std::vector<std::vector<int>> enumerate_feasible(const CheapFeasible& cheap,
                                                 std::size_t dims,
                                                 const HybridOptions& opts) {
  if (dims == 0) {
    throw std::invalid_argument("enumerate_feasible: dims == 0");
  }
  // The cache-aware feasible region is NOT downward-closed: raising m_i
  // from 1 to 2 swaps app i's idle-gap task from the cold to the warm WCET
  // and can make an infeasible point feasible (e.g. (2,6,1) infeasible but
  // (2,6,2) feasible in the DATE'18 case study). We therefore scan a
  // rectangle exactly, growing its side until no feasible point touches the
  // boundary (monotonicity *does* hold far from 1: for m_i >= 2 the app's
  // own h_max is constant in m_i while everyone else's grows).
  int hi = std::min(opts.max_value, std::max(opts.min_value + 7, 8));
  while (true) {
    std::vector<int> p(dims, opts.min_value);
    std::vector<std::vector<int>> out;
    bool hit_boundary = false;
    scan_rec(cheap, opts.min_value, hi, p, 0, hit_boundary, out);
    if (!hit_boundary || hi >= opts.max_value) return out;
    hi = std::min(opts.max_value, hi * 2);
  }
}

namespace {

/// The exhaustive baseline as a SearchDriver: proposes the enumerated
/// region in fixed 256-point blocks, in enumeration order (the anytime
/// quantum — a budget trip discards the partial block), and reduces each
/// observed block into \p out's table and counters in the same order.
class BlockEnumerationDriver final : public SearchDriver {
 public:
  static constexpr std::size_t kBlock = 256;

  BlockEnumerationDriver(std::vector<std::vector<int>> region,
                         ExhaustiveResult& out)
      : SearchDriver("exhaustive"), region_(std::move(region)), out_(out) {
    out_.all.reserve(region_.size());
  }

  int blocks() const {
    return static_cast<int>((region_.size() + kBlock - 1) / kBlock);
  }

 protected:
  std::vector<std::vector<int>> propose() override {
    const auto begin = region_.begin() + static_cast<std::ptrdiff_t>(next_);
    const std::size_t end = std::min(next_ + kBlock, region_.size());
    return {begin, region_.begin() + static_cast<std::ptrdiff_t>(end)};
  }

  void observe(const std::vector<std::vector<int>>& points,
               const std::vector<const EvalOutcome*>& outcomes) override {
    for (std::size_t k = 0; k < points.size(); ++k) {
      note(points[k], *outcomes[k]);
      ++out_.enumerated;
      if (outcomes[k]->feasible) ++out_.control_feasible;
      out_.all.emplace_back(points[k], *outcomes[k]);
    }
    next_ += points.size();
    if (next_ == region_.size()) finish();
  }

 private:
  std::vector<std::vector<int>> region_;
  ExhaustiveResult& out_;
  std::size_t next_ = 0;  ///< first region index not yet observed
};

}  // namespace

ExhaustiveResult exhaustive_search(const DiscreteObjective& objective,
                                   const CheapFeasible& cheap,
                                   std::size_t dims,
                                   const HybridOptions& opts,
                                   core::ThreadPool* pool) {
  // Enumerate serially (cheap), then race the block driver alone through
  // the portfolio's round loop: each block is fanned across the pool into
  // index-addressed slots and reduced serially in enumeration order —
  // bit-identical to the serial scan. The round cap is the block count,
  // so no region is ever cut short by the default cap.
  ExhaustiveResult res;
  BlockEnumerationDriver driver(enumerate_feasible(cheap, dims, opts), res);
  PortfolioOptions race;
  race.max_rounds = driver.blocks();
  race.elimination_rounds = 0;
  race.anytime = opts.anytime;
  EvalCache cache(objective);
  PortfolioResult raced = race_drivers({&driver}, cache, race, pool);
  res.best = std::move(raced.best);
  res.best_value = raced.best_value;
  res.found_feasible = raced.found_feasible;
  res.telemetry = raced.telemetry;
  res.unique_evaluations = raced.unique_evaluations;
  return res;
}

}  // namespace catsched::opt
