#include "opt/discrete_search.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
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
  // Smallest entry: an empty point's u64 count, the f64 value and the u8
  // flag. Bound the forged-count case before reserving (division avoids
  // overflow), as get_int_vector does.
  constexpr std::size_t kMinEntryBytes = 8 + 8 + 1;
  if (count > r.remaining() / kMinEntryBytes) {
    throw core::SnapshotError(core::SnapshotErrc::truncated,
                              "evaluation table count exceeds payload");
  }
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

PointCheck has_dims(std::size_t dims) {
  return [dims](const std::vector<int>& p) { return p.size() == dims; };
}

const EvalOutcome& EvalCache::evaluate_one(const std::vector<int>* base,
                                           const std::vector<int>& p,
                                           bool& missed) {
  // The neighbor objective is bit-identical to the plain one (its
  // contract), so whichever path wins the memo slot stores the same value.
  const EvalOutcome& out = cache_.get_or_compute(p, [&] {
    missed = true;
    return base != nullptr && neighbor_ ? neighbor_(*base, p) : objective_(p);
  });
  if (missed) record(p, out);
  return out;
}

std::vector<EvalCache::BatchSlot> EvalCache::evaluate_batch(
    const std::vector<const std::vector<int>*>& points,
    const std::vector<const std::vector<int>*>& bases, core::ThreadPool* pool,
    const core::RunBudget* budget) {
  if (bases.size() != points.size()) {
    throw std::invalid_argument("evaluate_batch: one base per point");
  }
  std::vector<BatchSlot> out(points.size());
  core::parallel_for(
      pool, points.size(), 0,
      [&](std::size_t i) {
        out[i].outcome = &evaluate_one(bases[i], *points[i], out[i].missed);
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
  const EvaluationTable table = decode_evaluation_table(payload);
  if (fits_) {
    for (const auto& entry : table) {
      if (!fits_(entry.first)) {
        throw core::SnapshotError(
            core::SnapshotErrc::bad_kind,
            "checkpoint holds a point of another search space: " + path);
      }
    }
  }
  preload(table);
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

/// One lane's walk as a HybridResult: bests and cost from its race report,
/// path and step count from the driver itself.
HybridResult lane_result(const HybridDriver& lane,
                         const StrategyReport& report) {
  HybridResult r;
  r.best = report.best;
  r.best_value = report.best_value;
  r.found_feasible = report.found_feasible;
  r.steps = lane.steps();
  r.new_evaluations = report.new_evaluations;
  r.path = lane.path();
  return r;
}

/// Runner options for hybrid lanes: round 0 evaluates the starts, then one
/// round per step, never retiring a lane.
PortfolioOptions lane_race(const HybridOptions& opts) {
  PortfolioOptions race;
  race.max_rounds = std::max(opts.max_steps, 0) + 1;
  race.elimination_rounds = 0;
  race.anytime = opts.anytime;
  return race;
}

}  // namespace

HybridResult hybrid_search(EvalCache& cache, const CheapFeasible& cheap,
                           const std::vector<int>& start,
                           const HybridOptions& opts, core::ThreadPool* pool) {
  HybridDriver lane("hybrid", cheap, start, opts);
  PortfolioOptions race = lane_race(opts);
  race.anytime.checkpoint_path.clear();  // the caller owns the cache
  const PortfolioResult raced = race_drivers({&lane}, cache, race, pool);
  HybridResult res = lane_result(lane, raced.strategies.front());
  res.telemetry.stop = raced.telemetry.stop;
  return res;
}

MultiStartResult hybrid_search_multistart(
    const DiscreteObjective& objective, const CheapFeasible& cheap,
    const std::vector<std::vector<int>>& starts, const HybridOptions& opts,
    core::ThreadPool* pool, const NeighborObjective& neighbor) {
  // Every start is validated (bounds + cheap filter) before any cache
  // state exists.
  std::vector<std::unique_ptr<HybridDriver>> lanes;
  std::vector<SearchDriver*> roster;
  for (std::size_t i = 0; i < starts.size(); ++i) {
    lanes.push_back(std::make_unique<HybridDriver>(
        "hybrid:" + std::to_string(i), cheap, starts[i], opts));
    roster.push_back(lanes.back().get());
  }
  EvalCache cache(objective, neighbor,
                  starts.empty() ? nullptr : has_dims(starts.front().size()));
  const PortfolioResult raced =
      race_drivers(roster, cache, lane_race(opts), pool);

  MultiStartResult res;
  res.telemetry = raced.telemetry;
  res.unique_evaluations = raced.unique_evaluations;
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    res.runs.push_back(lane_result(*lanes[i], raced.strategies[i]));
    // A lane still walking when the budget fired was cut short.
    if (!lanes[i]->finished()) {
      res.runs.back().telemetry.stop = res.telemetry.stop;
    }
  }
  // Deterministic reduction in start order (strict >: the earliest start
  // keeps a tie).
  for (const HybridResult& r : res.runs) {
    if (r.found_feasible &&
        (!res.combined.found_feasible ||
         r.best_value > res.combined.best_value)) {
      res.combined = r;
    }
  }
  res.combined.telemetry.stop = res.telemetry.stop;
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
  EvalCache cache(objective, nullptr, has_dims(dims));
  PortfolioResult raced = race_drivers({&driver}, cache, race, pool);
  res.best = std::move(raced.best);
  res.best_value = raced.best_value;
  res.found_feasible = raced.found_feasible;
  res.telemetry = raced.telemetry;
  res.unique_evaluations = raced.unique_evaluations;
  return res;
}

}  // namespace catsched::opt
