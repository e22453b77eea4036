#include "core/interleaved_codesign.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "opt/portfolio.hpp"

namespace catsched::core {

namespace {

using sched::InterleavedSchedule;
using sched::Segment;
using sched::TaskMove;

/// Merge cyclically-adjacent same-app segments so the candidate satisfies
/// the InterleavedSchedule invariant after a removal.
std::vector<Segment> merge_adjacent(std::vector<Segment> segs) {
  bool changed = true;
  while (changed && segs.size() > 1) {
    changed = false;
    for (std::size_t i = 0; i < segs.size(); ++i) {
      const std::size_t j = (i + 1) % segs.size();
      if (i != j && segs[i].app == segs[j].app) {
        segs[i].count += segs[j].count;
        segs.erase(segs.begin() + static_cast<std::ptrdiff_t>(j));
        changed = true;
        break;
      }
    }
  }
  return segs;
}

/// Keep a candidate only when it satisfies the schedule invariants,
/// checked explicitly via is_valid — the move generators legitimately
/// produce invalid shapes (a shrink can orphan an app, a swap can create
/// mergeable neighbors), and pre-checking drops exactly those while any
/// *other* std::invalid_argument still propagates as the bug it would be.
/// When the candidate is kept and a descriptor is set, it describes the
/// candidate as a one-task edit (\p move) or a block rotation (\p rot) of
/// the base sequence (the incremental evaluation paths).
void push_if_valid(std::vector<InterleavedNeighbor>& out,
                   std::vector<Segment> segs, std::size_t num_apps,
                   std::optional<TaskMove> move = std::nullopt,
                   std::optional<sched::BlockRotation> rot = std::nullopt) {
  if (!InterleavedSchedule::is_valid(segs, num_apps)) return;
  out.push_back(InterleavedNeighbor{InterleavedSchedule(std::move(segs),
                                                        num_apps),
                                    std::move(move), std::move(rot)});
}

TaskMove insert_move(std::size_t pos, std::size_t app) {
  TaskMove m;
  m.kind = TaskMove::Kind::insert;
  m.pos = pos;
  m.app = app;
  return m;
}

TaskMove remove_move(std::size_t pos, std::size_t app) {
  TaskMove m;
  m.kind = TaskMove::Kind::remove;
  m.pos = pos;
  m.app = app;
  return m;
}

}  // namespace

std::vector<InterleavedNeighbor> interleaved_neighbor_moves(
    const InterleavedSchedule& schedule, const InterleavedSearchOptions& opts) {
  const auto& segs = schedule.segments();
  const std::size_t n = schedule.num_apps();
  std::vector<InterleavedNeighbor> out;

  // Task index of each segment's first task (segments run back to back).
  std::vector<std::size_t> first_task(segs.size() + 1, 0);
  for (std::size_t s = 0; s < segs.size(); ++s) {
    first_task[s + 1] = first_task[s] + static_cast<std::size_t>(segs[s].count);
  }
  const std::vector<std::size_t> base_seq = schedule.task_sequence();

  for (std::size_t s = 0; s < segs.size(); ++s) {
    const std::size_t seg_end =
        first_task[s] + static_cast<std::size_t>(segs[s].count);
    // Grow a burst: one more task at the end of the segment (any position
    // inside the burst yields the same sequence; the end keeps the
    // successor's classification untouched).
    if (segs[s].count < opts.max_burst) {
      auto grown = segs;
      ++grown[s].count;
      push_if_valid(out, std::move(grown), n,
                    insert_move(seg_end, segs[s].app));
    }
    // Shrink a burst / remove a singleton segment.
    if (segs[s].count > 1) {
      auto shrunk = segs;
      --shrunk[s].count;
      push_if_valid(out, std::move(shrunk), n,
                    remove_move(seg_end - 1, segs[s].app));
    } else {
      auto removed = segs;
      removed.erase(removed.begin() + static_cast<std::ptrdiff_t>(s));
      // The merge can wrap around the period and rotate the canonical task
      // sequence away from "base minus one task"; the verification pass
      // below strips the descriptor from such neighbors.
      push_if_valid(out, merge_adjacent(std::move(removed)), n,
                    remove_move(first_task[s], segs[s].app));
    }
    // Swap with the cyclic successor: not a one-task edit, but a
    // non-wrapping swap IS a left rotation of the two segments' combined
    // task range by the first segment's count — the rotation descriptor
    // routes it through derive_timing_rotation. The wrap-around swap
    // (last segment with first) rotates the canonical sequence itself and
    // stays on the from-scratch fallback.
    if (segs.size() > 2) {
      auto swapped = segs;
      std::swap(swapped[s], swapped[(s + 1) % swapped.size()]);
      std::optional<sched::BlockRotation> rot;
      if (s + 1 < segs.size()) {
        rot = sched::BlockRotation{
            first_task[s],
            static_cast<std::size_t>(segs[s].count + segs[s + 1].count),
            static_cast<std::size_t>(segs[s].count)};
      }
      push_if_valid(out, std::move(swapped), n, std::nullopt, std::move(rot));
    }
  }

  // Insert a fresh count-1 segment of any app at any gap (gap g = before
  // segment g; gap segs.size() = end of the period).
  if (segs.size() < static_cast<std::size_t>(opts.max_segments)) {
    for (std::size_t app = 0; app < n; ++app) {
      for (std::size_t gap = 0; gap <= segs.size(); ++gap) {
        auto grown = segs;
        grown.insert(grown.begin() + static_cast<std::ptrdiff_t>(gap),
                     Segment{app, 1});
        push_if_valid(out, std::move(grown), n,
                      insert_move(first_task[gap], app));
      }
    }
  }

  // Safety net for the delta contract: a descriptor is only kept when the
  // candidate's canonical task sequence really is the base sequence with
  // the one edit / rotation applied (segment merges can rotate it; see
  // above).
  for (InterleavedNeighbor& nb : out) {
    if (nb.move && sched::apply_move(base_seq, *nb.move) !=
                       nb.schedule.task_sequence()) {
      nb.move.reset();
    }
    if (nb.rotation && sched::apply_rotation(base_seq, *nb.rotation) !=
                           nb.schedule.task_sequence()) {
      nb.rotation.reset();
    }
  }
  return out;
}

std::vector<InterleavedSchedule> interleaved_neighbors(
    const InterleavedSchedule& schedule, const InterleavedSearchOptions& opts) {
  std::vector<InterleavedNeighbor> moves =
      interleaved_neighbor_moves(schedule, opts);
  std::vector<InterleavedSchedule> out;
  out.reserve(moves.size());
  for (InterleavedNeighbor& nb : moves) {
    out.push_back(std::move(nb.schedule));
  }
  return out;
}

std::vector<int> encode_interleaved(const InterleavedSchedule& s) {
  std::vector<int> point;
  point.reserve(2 * s.segments().size());
  for (const Segment& seg : s.segments()) {
    point.push_back(static_cast<int>(seg.app));
    point.push_back(seg.count);
  }
  return point;
}

namespace {

/// The (app, count) pairs of an even-length point as segments. A negative
/// app index wraps to a huge one, which the schedule's own validation
/// rejects.
std::vector<Segment> point_segments(const std::vector<int>& point) {
  std::vector<Segment> segs;
  segs.reserve(point.size() / 2);
  for (std::size_t k = 0; k + 1 < point.size(); k += 2) {
    segs.push_back(Segment{static_cast<std::size_t>(point[k]), point[k + 1]});
  }
  return segs;
}

}  // namespace

InterleavedSchedule decode_interleaved(const std::vector<int>& point,
                                       std::size_t num_apps) {
  if (point.size() % 2 != 0) {
    throw std::invalid_argument("decode_interleaved: odd point length");
  }
  return InterleavedSchedule(point_segments(point), num_apps);
}

opt::PointCheck interleaved_point_check(std::size_t num_apps) {
  return [num_apps](const std::vector<int>& point) {
    return point.size() % 2 == 0 &&
           InterleavedSchedule::is_valid(point_segments(point), num_apps);
  };
}

opt::DiscreteObjective make_interleaved_objective(Evaluator& evaluator) {
  return [&evaluator](const std::vector<int>& point) {
    const ScheduleEvaluation& ev = evaluator.evaluate_cached(
        decode_interleaved(point, evaluator.model().num_apps()));
    return opt::EvalOutcome{ev.pall, ev.feasible()};
  };
}

opt::CheapFeasible make_interleaved_cheap_feasible(const Evaluator& evaluator) {
  return [&evaluator](const std::vector<int>& point) {
    return evaluator.idle_feasible(
        decode_interleaved(point, evaluator.model().num_apps()));
  };
}

InterleavedDriver::InterleavedDriver(std::string name,
                                     opt::CheapFeasible cheap,
                                     const InterleavedSchedule& start,
                                     const InterleavedSearchOptions& opts)
    : SearchDriver(std::move(name)),
      cheap_(std::move(cheap)),
      opts_(opts),
      num_apps_(start.num_apps()),
      cur_(encode_interleaved(start)) {
  if (!cheap_(cur_)) {
    throw std::invalid_argument(
        "interleaved driver: start violates the idle-time constraint");
  }
}

std::vector<std::vector<int>> InterleavedDriver::propose() {
  if (!seeded_) return {cur_};  // round 0: evaluate the start itself
  if (steps_ >= opts_.max_steps) return {};
  std::vector<std::vector<int>> batch;
  for (const InterleavedSchedule& nb :
       interleaved_neighbors(decode_interleaved(cur_, num_apps_), opts_)) {
    std::vector<int> p = encode_interleaved(nb);
    if (cheap_(p)) batch.push_back(std::move(p));
  }
  return batch;  // empty = every neighbor idle-infeasible: converged
}

void InterleavedDriver::observe(
    const std::vector<std::vector<int>>& points,
    const std::vector<const opt::EvalOutcome*>& outcomes) {
  if (!seeded_) {
    cur_out_ = *outcomes[0];
    note(points[0], cur_out_);
    path_.push_back(cur_);
    seeded_ = true;
    return;
  }
  // Steepest ascent, reduced in neighbor order (strict >: the first of
  // equal neighbors wins) — the order is fixed by propose(), so the move
  // never depends on evaluation order or thread count.
  const opt::EvalOutcome* next = nullptr;
  std::size_t next_k = 0;
  for (std::size_t k = 0; k < points.size(); ++k) {
    if (!outcomes[k]->feasible) continue;
    if (next == nullptr || outcomes[k]->value > next->value) {
      next = outcomes[k];
      next_k = k;
    }
  }
  if (next == nullptr) {
    finish();
    return;
  }
  const double gain = next->value - cur_out_.value;
  if (gain <= 0.0 &&
      (-gain > opts_.tolerance || points[next_k] == cur_)) {
    finish();  // local optimum
    return;
  }
  cur_ = points[next_k];
  cur_out_ = *next;
  path_.push_back(cur_);
  ++steps_;
  note(cur_, cur_out_);
  if (gain <= 0.0 && opts_.tolerance == 0.0) finish();
}

InterleavedSearchResult interleaved_search(
    Evaluator& evaluator, const InterleavedSchedule& start,
    const InterleavedSearchOptions& opts, ThreadPool* pool) {
  InterleavedDriver lane("interleaved",
                         make_interleaved_cheap_feasible(evaluator), start,
                         opts);
  // Round 0 evaluates the start, then one round per step.
  opt::PortfolioOptions race;
  race.max_rounds = std::max(opts.max_steps, 0) + 1;
  race.elimination_rounds = 0;
  race.anytime = opts.anytime;
  opt::EvalCache cache(make_interleaved_objective(evaluator), nullptr,
                       interleaved_point_check(lane.num_apps()));
  const opt::PortfolioResult raced =
      opt::race_drivers({&lane}, cache, race, pool);

  InterleavedSearchResult res;
  res.telemetry = raced.telemetry;
  res.steps = lane.steps();
  res.unique_evaluations = raced.unique_evaluations;
  for (const std::vector<int>& p : lane.path()) {
    res.path.push_back(decode_interleaved(p, lane.num_apps()).to_string());
  }
  if (lane.found_feasible()) {
    res.found = true;
    res.best = decode_interleaved(lane.best(), lane.num_apps());
    // A memo hit, except on a resume whose best came from the checkpoint.
    res.best_evaluation = evaluator.evaluate_cached(res.best);
  }
  return res;
}

}  // namespace catsched::core
