#include "core/interleaved_codesign.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/snapshot.hpp"

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

namespace {

/// Published search state as a snapshot payload: per entry the canonical
/// key, the Pall bits, and the two feasibility flags — exactly what the
/// serial reduction reads, so a resumed run can consume the entry without
/// re-running its controller designs.
std::vector<std::uint8_t> encode_interleaved_state(
    const std::unordered_map<std::string, const ScheduleEvaluation*>& seen) {
  SnapshotWriter w;
  w.put_u64(seen.size());
  // Emit in sorted key order: the payload bytes must not depend on the
  // hash map's (implementation-defined) iteration order, so identical
  // search states always produce identical snapshot files.
  std::vector<const std::string*> keys;
  keys.reserve(seen.size());
  for (const auto& entry : seen)  // determinism-ok: sorted below
    keys.push_back(&entry.first);
  std::sort(keys.begin(), keys.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  for (const std::string* key : keys) {
    const ScheduleEvaluation* eval = seen.at(*key);
    w.put_string(*key);
    w.put_f64(eval->pall);
    w.put_u8(eval->idle_feasible ? 1 : 0);
    w.put_u8(eval->control_feasible ? 1 : 0);
  }
  return w.take();
}

/// Inverse of encode_interleaved_state. The reconstructed evaluations are
/// *synthetic*: apps stays empty (the marker the search upgrades on), but
/// pall and the feasibility bits round-trip bit-exactly — all the
/// reduction ever compares.
std::unordered_map<std::string, ScheduleEvaluation> decode_interleaved_state(
    const std::vector<std::uint8_t>& payload) {
  SnapshotReader r(payload);
  const std::uint64_t count = r.get_u64();
  std::unordered_map<std::string, ScheduleEvaluation> overlay;
  overlay.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string key = r.get_string();
    ScheduleEvaluation ev;
    ev.pall = r.get_f64();
    ev.idle_feasible = r.get_u8() != 0;
    ev.control_feasible = r.get_u8() != 0;
    overlay.emplace(std::move(key), std::move(ev));
  }
  return overlay;
}

}  // namespace

InterleavedSearchResult interleaved_search(
    Evaluator& evaluator, const InterleavedSchedule& start,
    const InterleavedSearchOptions& opts, ThreadPool* pool) {
  if (!evaluator.idle_feasible(start)) {
    throw std::invalid_argument(
        "interleaved_search: start violates the idle-time constraint");
  }

  InterleavedSearchResult res;
  RunBudget* budget = opts.anytime.budget;
  if (budget != nullptr && budget->cancelled()) {
    res.telemetry.stop = budget->reason();
    return res;
  }

  // Resume: preload the previous process's published evaluations. They
  // enter `seen` below as overlay values owned here — the batch shortcut
  // serves them without touching the evaluator, so replaying the search
  // fast-forwards to the kill point at reduction speed.
  std::unordered_map<std::string, ScheduleEvaluation> overlay;
  if (!opts.anytime.checkpoint_path.empty() &&
      snapshot_exists(opts.anytime.checkpoint_path)) {
    overlay = decode_interleaved_state(
        load_snapshot_file(opts.anytime.checkpoint_path,
                           kSnapshotKindInterleaved,
                           &res.telemetry.used_fallback));
    res.telemetry.resumed = true;
  }
  // Dedup on the canonical string so re-visits cost nothing and the
  // evaluation count matches "distinct schedules evaluated" for THIS
  // search. The values point into the evaluator's own schedule memo, so
  // patterns shared with other searches (or earlier steps) are still
  // computed only once process-wide. Both maps are sharded compute-once
  // structures, so concurrent batch evaluation below needs no extra locks.
  ConcurrentMemoMap<std::string, const ScheduleEvaluation*> memo;
  const auto evaluate =
      [&](const InterleavedSchedule& s) -> const ScheduleEvaluation& {
    const std::string key = s.to_string();
    return *memo.get_or_compute(
        key, [&] { return &evaluator.evaluate_cached(s, key); });
  };

  // Schedules already evaluated in earlier steps, keyed by canonical
  // string: neighborhoods of consecutive steps overlap heavily, and a
  // re-visited neighbor needs no timing derivation at all — only the
  // finished evaluation for the reduction. Mutated ONLY between batches
  // (serial), read-only inside them, so the batch needs no locks; values
  // point into the evaluator's schedule memo (valid for its lifetime) or
  // into the resume overlay above (owned by this frame, never mutated).
  std::unordered_map<std::string, const ScheduleEvaluation*> seen;
  seen.reserve(overlay.size());
  for (const auto& [key, eval] : overlay)  // determinism-ok: order-free copy
    seen.emplace(key, &eval);

  // Snapshots are written at the serial publish points only (so a
  // checkpoint never contains a half-published batch), every
  // opts.checkpoint_every iterations and once more on exit; unchanged
  // state is never rewritten.
  std::size_t saved_seen_size = seen.size();
  const auto save_checkpoint = [&] {
    if (opts.anytime.checkpoint_path.empty() ||
        seen.size() == saved_seen_size) {
      return;
    }
    write_snapshot_file(opts.anytime.checkpoint_path, kSnapshotKindInterleaved,
                        encode_interleaved_state(seen), opts.anytime.fault);
    saved_seen_size = seen.size();
    ++res.telemetry.checkpoints_written;
  };

  InterleavedSchedule current = start;
  std::string current_key = current.to_string();
  ScheduleEvaluation current_eval = evaluate(current);
  seen.emplace(current_key, &evaluator.evaluate_cached(current, current_key));
  res.path.push_back(current_key);
  if (current_eval.feasible()) {
    res.best = current;
    res.best_evaluation = current_eval;
    res.found = true;
  }

  int last_saved_step = 0;
  for (int step = 0; step < opts.max_steps; ++step) {
    // Anytime check, quantized to the step boundary: stop-flag and
    // evaluation-cap trips land here deterministically (evaluations are
    // noted only when a completed batch publishes), so a run cut short
    // after k accepted steps matches a max_steps = k run bit for bit.
    if (budget != nullptr && budget->cancelled()) {
      res.telemetry.stop = budget->reason();
      break;
    }
    auto neighbors = interleaved_neighbor_moves(current, opts);
    const sched::TimingPattern* pattern =
        opts.incremental ? &evaluator.timing_pattern(current, current_key)
                         : nullptr;
    // Steepest ascent: derive each neighbor's timing, idle pre-filter it,
    // and evaluate the survivors, all inside one batch fanned over the
    // pool into index-addressed slots (idle-infeasible neighbors leave
    // their slot null and never touch the schedule memo). In incremental
    // mode delta-representable neighbors derive through the evaluator's
    // mode dispatch — the partial delta re-derivation under binary WCETs,
    // a from-scratch context-sensitive derivation under context WCETs —
    // and carry the result into the evaluation so it is not re-derived.
    // Memo hits return instantly, misses run the delta completion or the
    // full WCET + design pipeline — high variance, hence the small
    // chunks. The reduction below walks the slots serially in neighbor
    // order, so the chosen move — and with it the whole accepted path —
    // is bit-identical to the serial run AND to the from-scratch
    // (incremental=false) run.
    std::vector<const ScheduleEvaluation*> evals(neighbors.size(), nullptr);
    std::vector<std::string> keys(neighbors.size());
    parallel_for(pool, neighbors.size(), opts.chunk, [&](std::size_t k) {
      InterleavedNeighbor& cand = neighbors[k];
      const std::string& key = keys[k] = cand.schedule.to_string();
      // Step-overlap shortcut: a neighbor evaluated in an earlier step
      // skips derivation and idle-filtering entirely (the reduction only
      // consults eval.feasible(); idle-infeasible schedules never made it
      // into `seen`, so they re-derive and re-filter — same outcome).
      if (const auto it = seen.find(key); it != seen.end()) {
        evals[k] = it->second;
        return;
      }
      if (pattern != nullptr && (cand.move || cand.rotation)) {
        std::vector<bool> unchanged;
        sched::ScheduleTiming timing =
            cand.move ? evaluator.derive_neighbor_timing(*pattern, *cand.move,
                                                         &unchanged)
                      : evaluator.derive_neighbor_timing(
                            *pattern, *cand.rotation, &unchanged);
        if (!evaluator.idle_feasible(timing)) return;
        evals[k] = memo.get_or_compute(key, [&] {
          return &evaluator.evaluate_neighbor_cached(
              current_eval, std::move(timing), unchanged, key);
        });
        return;
      }
      if (!evaluator.idle_feasible(cand.schedule)) return;
      if (pattern == nullptr) {
        evals[k] = memo.get_or_compute(
            key, [&] { return &evaluator.evaluate_cached(cand.schedule, key); });
        return;
      }
      // Descriptor-free fallback (incremental mode; wrap-around swaps and
      // merge-rotated removals): full timing derivation, but apps whose
      // patterns survive the edit reuse the current evaluations
      // (bit-identical to the plain path for any hint).
      evals[k] = memo.get_or_compute(key, [&] {
        return &evaluator.evaluate_cached(cand.schedule, key, current_eval);
      });
    }, budget);
    if (budget != nullptr && budget->cancelled()) {
      // A deadline (or external stop) fired mid-batch: slots are only
      // partially filled. Discard the batch without publishing — finished
      // evaluations stay in the evaluator's memo, but the returned state
      // is exactly the last completed step's.
      res.telemetry.stop = budget->reason();
      break;
    }
    // Serial (between batches): publish this step's evaluations for the
    // next step's shortcut.
    std::size_t published = 0;
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      if (evals[k] != nullptr &&
          seen.emplace(std::move(keys[k]), evals[k]).second) {
        ++published;
      }
    }
    if (budget != nullptr) {
      budget->note_evaluations(static_cast<std::uint64_t>(published));
    }
    if (step - last_saved_step >= opts.anytime.checkpoint_every) {
      save_checkpoint();
      last_saved_step = step;
    }
    const InterleavedSchedule* next = nullptr;
    ScheduleEvaluation next_eval;
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      if (evals[k] == nullptr) continue;  // idle-infeasible
      const ScheduleEvaluation& eval = *evals[k];
      if (!eval.feasible()) continue;
      if (next == nullptr || eval.pall > next_eval.pall) {
        next = &neighbors[k].schedule;
        next_eval = eval;
      }
    }
    if (next == nullptr) break;
    const double gain = next_eval.pall - current_eval.pall;
    if (gain <= 0.0 && -gain > opts.tolerance) break;  // local optimum
    if (gain <= 0.0 && next->to_string() == current_key) break;
    current = *next;
    current_key = current.to_string();
    current_eval = next_eval;
    if (current_eval.apps.empty()) {
      // The accepted neighbor was served by the resume overlay (synthetic:
      // Pall + feasibility only). The next step's delta evaluations anchor
      // on the current schedule's full per-app state, so upgrade it here —
      // a deterministic re-evaluation that cannot change the accepted path
      // (the overlay's Pall bits are exact).
      current_eval = evaluator.evaluate_cached(current, current_key);
    }
    res.path.push_back(current_key);
    ++res.steps;
    if (current_eval.feasible() &&
        (!res.found || current_eval.pall > res.best_evaluation.pall)) {
      res.best = current;
      res.best_evaluation = current_eval;
      res.found = true;
    }
    if (gain <= 0.0 && opts.tolerance == 0.0) break;
  }
  save_checkpoint();
  // Published entries, not memo.size(): the memo can hold a discarded
  // partial batch (mid-batch cancellation) and misses overlay-served
  // entries on a resume — `seen` is the same set on every path, so the
  // count is bit-identical between a fresh run, a cut-short run at the
  // same step, and a resumed run at completion.
  res.unique_evaluations = static_cast<int>(seen.size());
  return res;
}

}  // namespace catsched::core
