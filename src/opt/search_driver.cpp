#include "opt/search_driver.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "core/parallel.hpp"
#include "testgen/rng.hpp"

namespace catsched::opt {

std::vector<std::vector<int>> SearchDriver::propose_batch() {
  if (finished_) return {};
  std::vector<std::vector<int>> batch = propose();
  if (batch.empty()) {
    finished_ = true;  // latched: an empty proposal means converged
    return {};
  }
  proposals_ += static_cast<int>(batch.size());
  return batch;
}

void SearchDriver::observe_batch(
    const std::vector<std::vector<int>>& points,
    const std::vector<const EvalOutcome*>& outcomes) {
  observe(points, outcomes);
}

void SearchDriver::note(const std::vector<int>& point,
                        const EvalOutcome& out) {
  if (out.feasible && (!found_ || out.value > best_value_)) {
    found_ = true;
    best_value_ = out.value;
    best_ = point;
  }
}

namespace {

/// Fixed driver shapes: the anneal's resamples per cheap-feasible proposal,
/// then the GA's crossover probability, per-gene +-1 mutation probability,
/// contestants per parent selection and best individuals copied unchanged.
constexpr int kProposalTries = 32;
constexpr double kCrossoverRate = 0.9;
constexpr double kMutationRate = 0.3;
constexpr int kTournament = 3;
constexpr std::size_t kElites = 2;

bool in_box(const std::vector<int>& p, int lo, int hi) {
  for (int v : p) {
    if (v < lo || v > hi) return false;
  }
  return true;
}

void require_start(const char* who, const CheapFeasible& cheap,
                   const std::vector<int>& start, int lo, int hi) {
  if (start.empty()) {
    throw std::invalid_argument(std::string(who) + ": empty start");
  }
  if (!in_box(start, lo, hi) || !cheap(start)) {
    throw std::invalid_argument(std::string(who) +
                                ": start point infeasible");
  }
}

/// Rank proposal indices by a score, descending, proposal order breaking
/// ties — the shared fully-specified ordering for top-k selections.
std::vector<std::size_t> rank_desc(const std::vector<double>& score) {
  std::vector<std::size_t> order(score.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (score[a] != score[b]) return score[a] > score[b];
    return a < b;
  });
  return order;
}

// ---------------------------------------------------------------------------
// Anneal: batch-synchronous SA, first-accepted-move-wins per round.
// ---------------------------------------------------------------------------

class AnnealDriver final : public SearchDriver {
 public:
  AnnealDriver(std::string name, CheapFeasible cheap, std::vector<int> start,
               const AnnealDriverOptions& opts)
      : SearchDriver(std::move(name)),
        cheap_(std::move(cheap)),
        opts_(opts),
        cur_(std::move(start)),
        temperature_(opts.initial_temperature),
        remaining_(opts.iterations),
        rng_(opts.seed) {
    require_start("anneal driver", cheap_, cur_, opts_.min_value,
                  opts_.max_value);
  }

  const std::vector<int>* anchor() const override {
    return seeded_ ? &cur_ : nullptr;
  }

 protected:
  std::vector<std::vector<int>> propose() override {
    if (!seeded_) return {cur_};
    if (remaining_ <= 0) return {};
    const int want = std::min(opts_.batch, remaining_);
    remaining_ -= want;  // resample failures still consume the budget
    std::vector<std::vector<int>> batch;
    batch.reserve(static_cast<std::size_t>(want));
    for (int j = 0; j < want; ++j) {
      for (int tries = 0; tries < kProposalTries; ++tries) {
        std::vector<int> p = cur_;
        const std::size_t dim = rng_.index(p.size());
        p[dim] += rng_.chance(0.5) ? 1 : -1;
        if (!in_box(p, opts_.min_value, opts_.max_value) || !cheap_(p)) {
          continue;
        }
        batch.push_back(std::move(p));
        break;
      }
    }
    return batch;  // empty = every resample failed: treat as converged
  }

  void observe(const std::vector<std::vector<int>>& points,
               const std::vector<const EvalOutcome*>& outcomes) override {
    if (!seeded_) {
      cur_walk_ = walk_value(*outcomes[0]);
      note(points[0], *outcomes[0]);
      seeded_ = true;
      return;
    }
    // All proposals were anchored at the round's starting point; the first
    // accepted one moves the walk and the rest only feed best-tracking (a
    // batch-synchronous SA variant — acceptance order is proposal order,
    // so the walk is independent of evaluation concurrency).
    bool accepted = false;
    for (std::size_t k = 0; k < points.size(); ++k) {
      note(points[k], *outcomes[k]);
      if (!accepted) {
        const double walk = walk_value(*outcomes[k]);
        const double delta = walk - cur_walk_;
        if (delta >= 0.0 ||
            rng_.chance(std::exp(delta / temperature_))) {
          cur_ = points[k];
          cur_walk_ = walk;
          accepted = true;
        }
      }
      temperature_ *= opts_.cooling;  // one cooling step per proposal
    }
  }

 private:
  CheapFeasible cheap_;
  AnnealDriverOptions opts_;
  std::vector<int> cur_;
  double cur_walk_ = 0.0;
  double temperature_;
  int remaining_;
  bool seeded_ = false;
  testgen::SplitMix64 rng_;
};

// ---------------------------------------------------------------------------
// Genetic: one generation per round.
// ---------------------------------------------------------------------------

class GeneticDriver final : public SearchDriver {
 public:
  GeneticDriver(std::string name, CheapFeasible cheap, std::size_t dims,
                const GeneticDriverOptions& opts)
      : SearchDriver(std::move(name)),
        cheap_(std::move(cheap)),
        opts_(opts),
        dims_(dims),
        rng_(opts.seed) {
    if (dims_ == 0) {
      throw std::invalid_argument("genetic driver: dims == 0");
    }
    if (opts_.population < 2) {
      throw std::invalid_argument("genetic driver: population < 2");
    }
    const int low_hi = std::min(opts_.min_value + 3, opts_.max_value);
    for (int i = 0; i < opts_.population; ++i) {
      const bool low = i < opts_.population / 2;
      std::vector<int> chrom(dims_, opts_.min_value);
      bool ok = false;
      for (int tries = 0; tries < opts_.max_repair_tries && !ok; ++tries) {
        for (std::size_t g = 0; g < dims_; ++g) {
          chrom[g] = static_cast<int>(
              rng_.range(opts_.min_value, low ? low_hi : opts_.max_value));
        }
        ok = cheap_(chrom);
      }
      if (!ok) {
        // The deterministic backstop for a tight region — but never a
        // proposal the filter rejects (the filter is not downward-closed).
        std::fill(chrom.begin(), chrom.end(), opts_.min_value);
        if (!cheap_(chrom)) {
          throw std::runtime_error(
              "genetic driver: could not draw a cheap-feasible population");
        }
      }
      population_.push_back(std::move(chrom));
    }
  }

 protected:
  std::vector<std::vector<int>> propose() override {
    if (generation_ >= opts_.generations) return {};
    return population_;
  }

  void observe(const std::vector<std::vector<int>>& points,
               const std::vector<const EvalOutcome*>& outcomes) override {
    std::vector<double> fitness(points.size());
    for (std::size_t k = 0; k < points.size(); ++k) {
      note(points[k], *outcomes[k]);
      fitness[k] = walk_value(*outcomes[k]);
    }
    ++generation_;
    if (generation_ >= opts_.generations) return;  // no wasted final breed
    const std::vector<std::size_t> order = rank_desc(fitness);
    std::vector<std::vector<int>> next;
    next.reserve(points.size());
    const std::size_t elites = std::min(kElites, order.size());
    for (std::size_t j = 0; j < elites; ++j) {
      next.push_back(points[order[j]]);
    }
    const auto tournament = [&]() -> const std::vector<int>& {
      std::size_t best = rng_.index(points.size());
      for (int c = 1; c < kTournament; ++c) {
        const std::size_t cand = rng_.index(points.size());
        if (fitness[cand] > fitness[best]) best = cand;
      }
      return points[best];
    };
    while (next.size() < points.size()) {
      const std::vector<int>& p1 = tournament();
      const std::vector<int>& p2 = tournament();
      std::vector<int> base = p1;
      if (rng_.chance(kCrossoverRate)) {
        for (std::size_t g = 0; g < dims_; ++g) {
          base[g] = rng_.chance(0.5) ? p1[g] : p2[g];
        }
      }
      std::vector<int> child;
      bool ok = false;
      for (int tries = 0; tries < opts_.max_repair_tries && !ok; ++tries) {
        child = base;
        for (std::size_t g = 0; g < dims_; ++g) {
          if (rng_.chance(kMutationRate)) {
            child[g] += rng_.chance(0.5) ? 1 : -1;
            child[g] = std::clamp(child[g], opts_.min_value, opts_.max_value);
          }
        }
        ok = cheap_(child);
      }
      next.push_back(ok ? std::move(child) : p1);  // repair failed: clone
    }
    population_ = std::move(next);
  }

 private:
  CheapFeasible cheap_;
  GeneticDriverOptions opts_;
  std::size_t dims_;
  int generation_ = 0;
  std::vector<std::vector<int>> population_;
  testgen::SplitMix64 rng_;
};

// ---------------------------------------------------------------------------
// Pattern: deterministic integer compass search with step halving.
// ---------------------------------------------------------------------------

class PatternDriver final : public SearchDriver {
 public:
  PatternDriver(std::string name, CheapFeasible cheap, std::vector<int> start,
                const PatternDriverOptions& opts)
      : SearchDriver(std::move(name)),
        cheap_(std::move(cheap)),
        opts_(opts),
        cur_(std::move(start)),
        step_(std::max(opts.initial_step, 1)) {
    require_start("pattern driver", cheap_, cur_, opts_.min_value,
                  opts_.max_value);
  }

  const std::vector<int>* anchor() const override {
    // Only the final step size proposes +-1 neighbors (the delta contract).
    return seeded_ && step_ == 1 ? &cur_ : nullptr;
  }

 protected:
  std::vector<std::vector<int>> propose() override {
    if (!seeded_) return {cur_};
    if (rounds_ >= opts_.max_rounds) return {};
    while (step_ >= 1) {
      std::vector<std::vector<int>> batch;
      for (std::size_t i = 0; i < cur_.size(); ++i) {
        for (int dir : {-1, +1}) {
          std::vector<int> p = cur_;
          p[i] += dir * step_;
          if (in_box(p, opts_.min_value, opts_.max_value) && cheap_(p)) {
            batch.push_back(std::move(p));
          }
        }
      }
      if (!batch.empty()) return batch;
      step_ /= 2;  // nothing reachable at this radius: contract
    }
    return {};  // step underflowed: converged
  }

  void observe(const std::vector<std::vector<int>>& points,
               const std::vector<const EvalOutcome*>& outcomes) override {
    if (!seeded_) {
      cur_walk_ = walk_value(*outcomes[0]);
      note(points[0], *outcomes[0]);
      seeded_ = true;
      return;
    }
    std::vector<double> walk(points.size());
    for (std::size_t k = 0; k < points.size(); ++k) {
      note(points[k], *outcomes[k]);
      walk[k] = walk_value(*outcomes[k]);
    }
    const std::size_t top = rank_desc(walk).front();
    ++rounds_;
    if (walk[top] > cur_walk_) {
      cur_ = points[top];
      cur_walk_ = walk[top];
    } else {
      step_ /= 2;  // full compass sweep failed: halve (0 finishes)
      if (step_ < 1) finish();
    }
  }

 private:
  CheapFeasible cheap_;
  PatternDriverOptions opts_;
  std::vector<int> cur_;
  double cur_walk_ = 0.0;
  int step_;
  int rounds_ = 0;
  bool seeded_ = false;
};

}  // namespace

// ---------------------------------------------------------------------------
// Hybrid: the paper's gradient walk, one neighborhood per round.
// ---------------------------------------------------------------------------

HybridDriver::HybridDriver(std::string name, CheapFeasible cheap,
                           std::vector<int> start, const HybridOptions& opts)
    : SearchDriver(std::move(name)),
      cheap_(std::move(cheap)),
      opts_(opts),
      cur_(std::move(start)) {
  require_start("hybrid driver", cheap_, cur_, opts_.min_value,
                opts_.max_value);
  visited_.insert(cur_);
}

std::vector<std::vector<int>> HybridDriver::propose() {
  if (!seeded_) return {cur_};  // round 0: evaluate the start itself
  if (steps_ >= opts_.max_steps) return {};
  pending_.clear();
  std::vector<std::vector<int>> batch;
  const std::size_t n = cur_.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (int dir : {-1, +1}) {
      std::vector<int> p = cur_;
      p[i] += dir;
      if (!in_box(p, opts_.min_value, opts_.max_value) || !cheap_(p)) {
        continue;
      }
      pending_.push_back(Pending{i, dir});
      batch.push_back(std::move(p));
    }
  }
  return batch;  // empty = boxed in: converged
}

void HybridDriver::observe(const std::vector<std::vector<int>>& points,
                           const std::vector<const EvalOutcome*>& outcomes) {
  if (!seeded_) {
    cur_out_ = *outcomes[0];
    note(points[0], cur_out_);
    path_.push_back(cur_);
    seeded_ = true;
    return;
  }
  const std::size_t n = cur_.size();
  std::vector<const EvalOutcome*> minus_out(n, nullptr);
  std::vector<const EvalOutcome*> plus_out(n, nullptr);
  for (std::size_t k = 0; k < points.size(); ++k) {
    note(points[k], *outcomes[k]);
    (pending_[k].dir < 0 ? minus_out : plus_out)[pending_[k].dim] =
        outcomes[k];
  }
  struct Move {
    std::size_t dim;
    int dir;
    double gradient;  // predicted improvement per unit step
  };
  std::vector<Move> moves;
  for (std::size_t i = 0; i < n; ++i) {
    const EvalOutcome* minus = minus_out[i];
    const EvalOutcome* plus = plus_out[i];
    double grad;
    if (minus != nullptr && plus != nullptr) {
      grad = (plus->value - minus->value) / 2.0;
    } else if (plus != nullptr) {
      grad = plus->value - cur_out_.value;
    } else if (minus != nullptr) {
      grad = cur_out_.value - minus->value;
    } else {
      continue;
    }
    // Negative-gain moves stay in the list so the tolerance (the
    // simulated-annealing feature) can take them when nothing better
    // exists.
    if (plus != nullptr) moves.push_back(Move{i, +1, grad});
    if (minus != nullptr) moves.push_back(Move{i, -1, -grad});
  }
  std::stable_sort(moves.begin(), moves.end(),
                   [](const Move& a, const Move& b) {
                     return a.gradient > b.gradient;
                   });
  // Sec. IV: feasibility first, then the second-best direction and so on.
  for (const Move& mv : moves) {
    std::vector<int> next = cur_;
    next[mv.dim] += mv.dir;
    if (visited_.count(next) != 0) continue;
    const EvalOutcome& out = *(mv.dir < 0 ? minus_out : plus_out)[mv.dim];
    if (!out.feasible) continue;
    if (out.value + opts_.tolerance < cur_out_.value) continue;
    cur_ = std::move(next);
    cur_out_ = out;
    visited_.insert(cur_);
    path_.push_back(cur_);
    ++steps_;
    return;
  }
  finish();  // no acceptable move: local optimum
}

std::unique_ptr<SearchDriver> make_anneal_driver(
    std::string name, CheapFeasible cheap, std::vector<int> start,
    const AnnealDriverOptions& opts) {
  return std::make_unique<AnnealDriver>(std::move(name), std::move(cheap),
                                        std::move(start), opts);
}

std::unique_ptr<SearchDriver> make_genetic_driver(
    std::string name, CheapFeasible cheap, std::size_t dims,
    const GeneticDriverOptions& opts) {
  return std::make_unique<GeneticDriver>(std::move(name), std::move(cheap),
                                         dims, opts);
}

std::unique_ptr<SearchDriver> make_pattern_driver(
    std::string name, CheapFeasible cheap, std::vector<int> start,
    const PatternDriverOptions& opts) {
  return std::make_unique<PatternDriver>(std::move(name), std::move(cheap),
                                         std::move(start), opts);
}

}  // namespace catsched::opt
