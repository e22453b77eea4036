#include "opt/portfolio.hpp"

#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

namespace catsched::opt {

namespace {

/// Fixed roster construction — the strategy ORDER is part of the
/// determinism contract (ties in incumbent updates resolve to the
/// earliest strategy), so build it in one place.
std::vector<std::unique_ptr<SearchDriver>> build_roster(
    const CheapFeasible& cheap, const std::vector<std::vector<int>>& starts,
    const PortfolioOptions& opts) {
  std::vector<std::unique_ptr<SearchDriver>> roster;
  HybridOptions hybrid;
  hybrid.tolerance = opts.tolerance;
  hybrid.max_steps = opts.hybrid_max_steps;
  hybrid.min_value = opts.min_value;
  hybrid.max_value = opts.max_value;
  for (std::size_t i = 0; i < starts.size(); ++i) {
    roster.push_back(std::make_unique<HybridDriver>(
        "hybrid:" + std::to_string(i), cheap, starts[i], hybrid));
  }
  BeamDriverOptions beam = opts.beam;
  beam.tolerance = opts.tolerance;
  beam.min_value = opts.min_value;
  beam.max_value = opts.max_value;
  roster.push_back(make_beam_driver("beam", cheap, starts.front(), beam));
  PatternDriverOptions pattern = opts.pattern;
  pattern.min_value = opts.min_value;
  pattern.max_value = opts.max_value;
  roster.push_back(
      make_pattern_driver("pattern", cheap, starts.front(), pattern));
  AnnealDriverOptions anneal = opts.anneal;
  anneal.min_value = opts.min_value;
  anneal.max_value = opts.max_value;
  anneal.seed = opts.seed + 0x51u;  // decorrelate from the GA stream
  roster.push_back(
      make_anneal_driver("anneal", cheap, starts.front(), anneal));
  GeneticDriverOptions genetic = opts.genetic;
  genetic.min_value = opts.min_value;
  genetic.max_value = opts.max_value;
  genetic.seed = opts.seed + 0x6Au;
  roster.push_back(
      make_genetic_driver("genetic", cheap, starts.front().size(), genetic));
  return roster;
}

}  // namespace

PortfolioResult race_drivers(const std::vector<SearchDriver*>& roster,
                             EvalCache& cache, const PortfolioOptions& opts,
                             core::ThreadPool* pool) {
  PortfolioResult res;
  core::RunBudget* budget = opts.anytime.budget;
  if (!opts.anytime.checkpoint_path.empty()) {
    cache.enable_checkpoints(opts.anytime.checkpoint_path,
                             opts.anytime.checkpoint_every,
                             opts.anytime.fault);
    res.telemetry.resumed = cache.try_resume(&res.telemetry.used_fallback);
  }

  // consecutive rounds each strategy has trailed the incumbent
  std::vector<int> behind_rounds(roster.size(), 0);
  std::vector<bool> eliminated(roster.size(), false);
  std::vector<int> rounds_raced(roster.size(), 0);
  std::vector<int> new_evaluations(roster.size(), 0);
  std::vector<std::size_t> live;
  live.reserve(roster.size());
  for (std::size_t i = 0; i < roster.size(); ++i) live.push_back(i);

  const auto fold_incumbent = [&](const SearchDriver& d) {
    if (d.found_feasible() &&
        (!res.found_feasible || d.best_value() > res.best_value)) {
      res.found_feasible = true;
      res.best_value = d.best_value();
      res.best = d.best();
      res.winner = d.name();
    }
  };

  for (int round = 0; round < opts.max_rounds && !live.empty(); ++round) {
    // Anytime check, quantized to the round boundary: evaluations are
    // noted only when a completed round publishes, so a run cut short
    // after k rounds matches a max_rounds = k run bit for bit.
    if (budget != nullptr && budget->cancelled()) {
      res.telemetry.stop = budget->reason();
      break;
    }
    // Phase A (serial): every live strategy proposes. An empty batch
    // latches the driver finished; it simply leaves the race.
    struct RoundEntry {
      std::size_t idx;
      std::vector<std::vector<int>> points;
      std::vector<std::size_t> slots;  // each point's union batch slot
    };
    std::vector<RoundEntry> entries;
    entries.reserve(live.size());
    for (const std::size_t idx : live) {
      std::vector<std::vector<int>> batch = roster[idx]->propose_batch();
      if (!batch.empty()) {
        entries.push_back(RoundEntry{idx, std::move(batch), {}});
      }
    }
    if (entries.empty()) break;  // everyone converged this round

    // Phase B: one batch over the union of the round's proposals, deduped
    // in roster order, then proposal order. Each point goes through its
    // first proposer's anchor and a memo miss is charged to that
    // proposer, so misses cost once race-wide and the per-driver split is
    // the same at every thread count. A budget trip mid-phase discards the
    // whole round (finished evaluations stay in the cache for a resume).
    std::vector<const std::vector<int>*> points;
    std::vector<const std::vector<int>*> bases;
    std::vector<std::size_t> owner;  // roster index of each slot's proposer
    std::unordered_map<std::vector<int>, std::size_t, core::VectorHash> slot_of;
    for (RoundEntry& e : entries) {
      e.slots.reserve(e.points.size());
      for (const std::vector<int>& p : e.points) {
        const auto [it, fresh] = slot_of.emplace(p, points.size());
        if (fresh) {
          points.push_back(&p);
          bases.push_back(roster[e.idx]->anchor());
          owner.push_back(e.idx);
        }
        e.slots.push_back(it->second);
      }
    }
    const std::vector<EvalCache::BatchSlot> slots =
        cache.evaluate_batch(points, bases, pool, budget);
    // The shared pot: the race is charged for its memo misses only — a
    // resumed run replays at zero budget cost until new ground. Misses of
    // a discarded round still count: those points stay in the cache.
    int misses = 0;
    for (std::size_t k = 0; k < slots.size(); ++k) {
      if (slots[k].missed) {
        ++misses;
        ++new_evaluations[owner[k]];
      }
    }
    res.new_evaluations += misses;
    if (budget != nullptr && budget->cancelled()) {
      res.telemetry.stop = budget->reason();
      break;
    }
    if (budget != nullptr) {
      budget->note_evaluations(static_cast<std::uint64_t>(misses));
    }

    // Phase C (serial, fixed order): observe, fold incumbents, retire.
    for (const RoundEntry& e : entries) {
      std::vector<const EvalOutcome*> outcomes;
      outcomes.reserve(e.slots.size());
      for (const std::size_t k : e.slots) outcomes.push_back(slots[k].outcome);
      roster[e.idx]->observe_batch(e.points, outcomes);
      ++rounds_raced[e.idx];
      fold_incumbent(*roster[e.idx]);
    }
    std::vector<std::size_t> next_live;
    next_live.reserve(live.size());
    for (const std::size_t idx : live) {
      if (roster[idx]->finished()) continue;  // self-converged
      const SearchDriver& d = *roster[idx];
      const bool behind =
          res.found_feasible &&
          (!d.found_feasible() || d.best_value() < res.best_value);
      behind_rounds[idx] = behind ? behind_rounds[idx] + 1 : 0;
      if (opts.elimination_rounds > 0 &&
          behind_rounds[idx] >= opts.elimination_rounds) {
        eliminated[idx] = true;  // retired by the race
        continue;
      }
      next_live.push_back(idx);
    }
    live = std::move(next_live);
    ++res.rounds;
    res.history.push_back(PortfolioRound{
        round, static_cast<int>(live.size()), cache.unique_evaluations(),
        res.best_value, res.found_feasible});
  }

  if (!opts.anytime.checkpoint_path.empty()) {
    cache.save_checkpoint();
    res.telemetry.checkpoints_written = cache.checkpoints_written();
  }
  res.unique_evaluations = cache.unique_evaluations();
  res.strategies.reserve(roster.size());
  for (std::size_t i = 0; i < roster.size(); ++i) {
    StrategyReport rep;
    rep.name = roster[i]->name();
    rep.best = roster[i]->best();
    rep.best_value = roster[i]->best_value();
    rep.found_feasible = roster[i]->found_feasible();
    rep.rounds = rounds_raced[i];
    rep.proposals = roster[i]->proposals();
    rep.new_evaluations = new_evaluations[i];
    rep.eliminated = eliminated[i];
    res.strategies.push_back(std::move(rep));
  }
  return res;
}

PortfolioResult portfolio_search(const DiscreteObjective& objective,
                                 const CheapFeasible& cheap,
                                 const std::vector<std::vector<int>>& starts,
                                 const PortfolioOptions& opts,
                                 core::ThreadPool* pool,
                                 const NeighborObjective& neighbor) {
  if (starts.empty()) {
    throw std::invalid_argument("portfolio_search: no starts");
  }
  if (opts.anytime.budget != nullptr && opts.anytime.budget->cancelled()) {
    PortfolioResult res;
    res.telemetry.stop = opts.anytime.budget->reason();
    return res;  // fired before the race started: do no work
  }
  // The roster validates every start (bounds + cheap filter) up front, so
  // a bad input throws before any cache state exists.
  const std::vector<std::unique_ptr<SearchDriver>> roster =
      build_roster(cheap, starts, opts);
  std::vector<SearchDriver*> drivers;
  drivers.reserve(roster.size());
  for (const std::unique_ptr<SearchDriver>& d : roster) {
    drivers.push_back(d.get());
  }
  EvalCache cache(objective, neighbor, has_dims(starts.front().size()));
  return race_drivers(drivers, cache, opts, pool);
}

}  // namespace catsched::opt
