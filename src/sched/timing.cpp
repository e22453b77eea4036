#include "sched/timing.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace catsched::sched {

namespace {

void validate_wcets(const std::vector<AppWcet>& wcets, std::size_t num_apps) {
  if (wcets.size() != num_apps) {
    throw std::invalid_argument("derive_timing: wcets/app count mismatch");
  }
  for (const AppWcet& w : wcets) {
    if (w.cold_seconds <= 0.0 || w.warm_seconds <= 0.0 ||
        w.warm_seconds > w.cold_seconds) {
      throw std::invalid_argument(
          "derive_timing: need 0 < warm <= cold for every app");
    }
  }
}

/// Steady-state cache classification of every task: a task is warm iff the
/// cyclically-previous task is the same application. (With one app and one
/// segment, every task is warm in steady state.)
void classify_sequence(const std::vector<AppWcet>& wcets,
                       const std::vector<std::size_t>& seq,
                       std::vector<unsigned char>& warm,
                       std::vector<double>& exec) {
  const std::size_t t_count = seq.size();
  warm.resize(t_count);
  exec.resize(t_count);
  for (std::size_t k = 0; k < t_count; ++k) {
    const std::size_t prev = (k + t_count - 1) % t_count;
    warm[k] = seq[prev] == seq[k] ? 1 : 0;
    exec[k] = warm[k] ? wcets[seq[k]].warm_seconds : wcets[seq[k]].cold_seconds;
  }
}

/// Start time of each task within the period (tasks run back-to-back).
/// The accumulation order here is THE definition of the timing bits: the
/// incremental path replays exactly this recurrence over its dirty tail.
double accumulate_starts(const std::vector<double>& exec,
                         std::vector<double>& start) {
  start.resize(exec.size());
  double period = 0.0;
  for (std::size_t k = 0; k < exec.size(); ++k) {
    start[k] = period;
    period += exec[k];
  }
  return period;
}

/// Collect each app's task indices and build the interval lists; sampling
/// period = distance to the app's next task start (cyclic).
ScheduleTiming build_intervals(std::size_t num_apps,
                               const std::vector<std::size_t>& seq,
                               const std::vector<unsigned char>& warm,
                               const std::vector<double>& exec,
                               const std::vector<double>& start,
                               double period) {
  ScheduleTiming out;
  out.period = period;
  out.apps.resize(num_apps);
  std::vector<std::vector<std::size_t>> own(num_apps);
  for (std::size_t k = 0; k < seq.size(); ++k) own[seq[k]].push_back(k);
  for (std::size_t app = 0; app < num_apps; ++app) {
    AppTiming& at = out.apps[app];
    const std::vector<std::size_t>& mine = own[app];
    at.intervals.reserve(mine.size());
    for (std::size_t j = 0; j < mine.size(); ++j) {
      const std::size_t k = mine[j];
      Interval iv;
      iv.tau = exec[k];
      iv.warm = warm[k] != 0;
      if (j + 1 < mine.size()) {
        iv.h = start[mine[j + 1]] - start[k];
      } else {
        iv.h = period - start[k] + start[mine[0]];
      }
      at.intervals.push_back(iv);
    }
  }
  return out;
}

/// Context-sensitive classification: warm tasks keep the warm bound,
/// burst-opening tasks get their bound from the lookup, validated into
/// [warm, cold] so an out-of-contract lookup cannot smuggle an unsound
/// (or ordering-breaking) execution time into the schedule.
void classify_sequence_contexts(const std::vector<AppWcet>& wcets,
                                const ContextWcetLookup& contexts,
                                const std::vector<std::size_t>& seq,
                                std::size_t num_apps,
                                std::vector<unsigned char>& warm,
                                std::vector<double>& exec) {
  const std::vector<std::uint64_t> masks = compute_context_masks(seq, num_apps);
  const std::size_t t_count = seq.size();
  warm.resize(t_count);
  exec.resize(t_count);
  for (std::size_t k = 0; k < t_count; ++k) {
    const AppWcet& w = wcets[seq[k]];
    warm[k] = masks[k] == 0 ? 1 : 0;
    if (warm[k]) {
      exec[k] = w.warm_seconds;
      continue;
    }
    const double e = contexts.context_wcet_seconds(seq[k], masks[k]);
    if (!(e >= w.warm_seconds && e <= w.cold_seconds)) {
      throw std::invalid_argument(
          "derive_timing: context WCET outside [warm, cold]");
    }
    exec[k] = e;
  }
}

void validate_sequence(const std::vector<std::size_t>& seq,
                       std::size_t num_apps) {
  if (seq.empty() || num_apps == 0) {
    throw std::invalid_argument("derive_timing: empty task sequence");
  }
  std::vector<bool> used(num_apps, false);
  for (const std::size_t app : seq) {
    if (app >= num_apps) {
      throw std::invalid_argument("derive_timing: app index out of range");
    }
    used[app] = true;
  }
  for (std::size_t a = 0; a < num_apps; ++a) {
    if (!used[a]) {
      throw std::invalid_argument(
          "derive_timing: every app needs at least one task");
    }
  }
}

}  // namespace

double ContextWcetTable::context_wcet_seconds(std::size_t app,
                                              std::uint64_t mask) const {
  if (app >= base.size()) {
    throw std::invalid_argument("ContextWcetTable: app out of range");
  }
  if (mask == 0) return base[app].warm_seconds;
  if (app < contexts.size()) {
    const auto it = contexts[app].find(mask);
    if (it != contexts[app].end()) return it->second;
  }
  // Unknown context: the cold bound is sound for any interference.
  return base[app].cold_seconds;
}

std::vector<std::uint64_t> compute_context_masks(
    const std::vector<std::size_t>& seq, std::size_t num_apps) {
  validate_sequence(seq, num_apps);
  if (num_apps > 64) {
    throw std::invalid_argument(
        "compute_context_masks: more than 64 apps cannot be mask-encoded");
  }
  const std::size_t t_count = seq.size();
  std::vector<std::uint64_t> masks(t_count, 0);
  // acc[a] accumulates the apps seen since app a's most recent task. Two
  // cyclic passes: the first initializes the wrap-around state (what ran
  // after a's last task of the previous period), the second records.
  std::vector<std::uint64_t> acc(num_apps, 0);
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t k = 0; k < t_count; ++k) {
      const std::size_t app = seq[k];
      if (pass == 1) masks[k] = acc[app];
      const std::uint64_t bit = std::uint64_t{1} << app;
      for (std::size_t a = 0; a < num_apps; ++a) {
        if (a != app) acc[a] |= bit;
      }
      acc[app] = 0;
    }
  }
  return masks;
}

double AppTiming::h_max() const {
  double best = 0.0;
  for (const Interval& iv : intervals) best = std::max(best, iv.h);
  return best;
}

std::size_t AppTiming::longest_interval() const {
  std::size_t best = 0;
  for (std::size_t j = 1; j < intervals.size(); ++j) {
    if (intervals[j].h > intervals[best].h) best = j;
  }
  return best;
}

double AppTiming::period() const {
  double p = 0.0;
  for (const Interval& iv : intervals) p += iv.h;
  return p;
}

double AppTiming::idle_total() const {
  double busy = 0.0;
  for (const Interval& iv : intervals) busy += iv.tau;
  return period() - busy;
}

ScheduleTiming derive_timing(const std::vector<AppWcet>& wcets,
                             const PeriodicSchedule& schedule) {
  return derive_timing(wcets, InterleavedSchedule::from_periodic(schedule));
}

ScheduleTiming derive_timing(const std::vector<AppWcet>& wcets,
                             const InterleavedSchedule& schedule) {
  return derive_timing(wcets, schedule.task_sequence(), schedule.num_apps());
}

ScheduleTiming derive_timing(const std::vector<AppWcet>& wcets,
                             const std::vector<std::size_t>& seq,
                             std::size_t num_apps) {
  validate_wcets(wcets, num_apps);
  validate_sequence(seq, num_apps);
  std::vector<unsigned char> warm;
  std::vector<double> exec;
  std::vector<double> start;
  classify_sequence(wcets, seq, warm, exec);
  const double period = accumulate_starts(exec, start);
  return build_intervals(num_apps, seq, warm, exec, start, period);
}

ScheduleTiming derive_timing(const std::vector<AppWcet>& wcets,
                             const ContextWcetLookup& contexts,
                             const InterleavedSchedule& schedule) {
  return derive_timing(wcets, contexts, schedule.task_sequence(),
                       schedule.num_apps());
}

ScheduleTiming derive_timing(const std::vector<AppWcet>& wcets,
                             const ContextWcetLookup& contexts,
                             const std::vector<std::size_t>& seq,
                             std::size_t num_apps) {
  validate_wcets(wcets, num_apps);
  std::vector<unsigned char> warm;
  std::vector<double> exec;
  std::vector<double> start;
  classify_sequence_contexts(wcets, contexts, seq, num_apps, warm, exec);
  const double period = accumulate_starts(exec, start);
  return build_intervals(num_apps, seq, warm, exec, start, period);
}

TimingPattern expand_timing(const std::vector<AppWcet>& wcets,
                            const InterleavedSchedule& schedule) {
  return expand_timing(wcets, schedule.task_sequence(), schedule.num_apps());
}

TimingPattern expand_timing(const std::vector<AppWcet>& wcets,
                            const std::vector<std::size_t>& seq,
                            std::size_t num_apps) {
  validate_wcets(wcets, num_apps);
  validate_sequence(seq, num_apps);
  TimingPattern p;
  p.seq = seq;
  classify_sequence(wcets, p.seq, p.warm, p.exec);
  p.period = accumulate_starts(p.exec, p.start);
  p.timing =
      build_intervals(num_apps, p.seq, p.warm, p.exec, p.start, p.period);
  return p;
}

std::vector<std::size_t> apply_move(const std::vector<std::size_t>& seq,
                                    const TaskMove& move) {
  std::vector<std::size_t> out;
  if (move.kind == TaskMove::Kind::insert) {
    if (move.pos > seq.size()) {
      throw std::invalid_argument("apply_move: insert position out of range");
    }
    out.reserve(seq.size() + 1);
    out.insert(out.end(), seq.begin(),
               seq.begin() + static_cast<std::ptrdiff_t>(move.pos));
    out.push_back(move.app);
    out.insert(out.end(), seq.begin() + static_cast<std::ptrdiff_t>(move.pos),
               seq.end());
  } else {
    if (move.pos >= seq.size()) {
      throw std::invalid_argument("apply_move: remove position out of range");
    }
    out.reserve(seq.size() - 1);
    out.insert(out.end(), seq.begin(),
               seq.begin() + static_cast<std::ptrdiff_t>(move.pos));
    out.insert(out.end(),
               seq.begin() + static_cast<std::ptrdiff_t>(move.pos) + 1,
               seq.end());
  }
  return out;
}

ScheduleTiming derive_timing_delta(const std::vector<AppWcet>& wcets,
                                   const TimingPattern& base,
                                   const TaskMove& move,
                                   std::vector<bool>* app_unchanged) {
  const std::size_t t = base.seq.size();
  const std::size_t num_apps = base.timing.apps.size();
  if (wcets.size() != num_apps) {
    throw std::invalid_argument(
        "derive_timing_delta: wcets/app count mismatch");
  }
  const bool inserting = move.kind == TaskMove::Kind::insert;
  if (inserting) {
    if (move.pos > t) {
      throw std::invalid_argument(
          "derive_timing_delta: insert position out of range");
    }
    if (move.app >= num_apps) {
      throw std::invalid_argument("derive_timing_delta: app out of range");
    }
  } else {
    if (move.pos >= t) {
      throw std::invalid_argument(
          "derive_timing_delta: remove position out of range");
    }
    if (t < 2 ||
        base.timing.apps[base.seq[move.pos]].intervals.size() < 2) {
      throw std::invalid_argument(
          "derive_timing_delta: removal would leave an app without tasks");
    }
  }

  const std::size_t tn = inserting ? t + 1 : t - 1;
  const std::size_t pos = move.pos;
  const std::size_t moved_app = inserting ? move.app : base.seq[pos];

  // The new sequence is the base sequence with one index shift; it is never
  // materialized — tasks are read through this mapping (NEW index -> app).
  const auto seq_at = [&](std::size_t k) -> std::size_t {
    if (inserting) {
      if (k == pos) return move.app;
      return base.seq[k < pos ? k : k - 1];
    }
    return base.seq[k < pos ? k : k + 1];
  };

  // Only two classifications can change: the edited position itself (insert
  // only) and the task that now follows it (its cyclic predecessor changed
  // identity); every other task kept its predecessor's app, warm flag and
  // WCET. Those two are computed as scalar patches.
  const std::size_t succ = inserting ? (pos + 1) % tn : pos % tn;
  const auto classify_at = [&](std::size_t k, unsigned char& w, double& e) {
    const std::size_t app = seq_at(k);
    w = seq_at((k + tn - 1) % tn) == app ? 1 : 0;
    e = w ? wcets[app].warm_seconds : wcets[app].cold_seconds;
  };
  unsigned char ins_warm = 0;
  double ins_exec = 0.0;
  if (inserting) classify_at(pos, ins_warm, ins_exec);
  unsigned char succ_warm;
  double succ_exec;
  classify_at(succ, succ_warm, succ_exec);
  const std::size_t succ_base = [&] {  // base index the successor came from
    if (inserting) return succ == 0 ? std::size_t{0} : pos;
    return pos + 1 == t ? std::size_t{0} : pos + 1;
  }();
  const bool succ_patched = succ_warm != base.warm[succ_base] ||
                            succ_exec != base.exec[succ_base];

  const auto warm_at = [&](std::size_t k) -> unsigned char {
    if (inserting && k == pos) return ins_warm;
    if (succ_patched && k == succ) return succ_warm;
    if (inserting) return base.warm[k < pos ? k : k - 1];
    return base.warm[k < pos ? k : k + 1];
  };
  const auto exec_at = [&](std::size_t k) -> double {
    if (inserting && k == pos) return ins_exec;
    if (succ_patched && k == succ) return succ_exec;
    if (inserting) return base.exec[k < pos ? k : k - 1];
    return base.exec[k < pos ? k : k + 1];
  };

  // First start offset whose value can differ from the base pattern's.
  const std::size_t dirty = succ_patched && succ < pos ? succ : pos;

  // Reuse the clean start prefix verbatim; replay the accumulation
  // recurrence (identical operation order to accumulate_starts) over the
  // dirty tail so every start offset and the period are bit-identical to a
  // from-scratch derivation.
  std::vector<double> start(tn);
  const std::size_t clean = dirty < tn ? dirty : tn;
  for (std::size_t k = 0; k < clean; ++k) start[k] = base.start[k];
  double period = dirty < t ? base.start[dirty] : base.period;
  for (std::size_t k = dirty; k < tn; ++k) {
    start[k] = period;
    period += exec_at(k);
  }

  // Interval lists: every app except the moved one keeps its interval
  // COUNT and (except at the patched successor) every tau/warm, and only h
  // values with an endpoint in the dirty region can change bits — so its
  // base list is copied wholesale and patched in place. The moved app's
  // list is rebuilt (its size changed). One pass over the new sequence
  // drives both, tracking per-app occurrence counts.
  ScheduleTiming out;
  out.period = period;
  out.apps.resize(num_apps);
  if (app_unchanged != nullptr) app_unchanged->assign(num_apps, true);
  const auto mark_changed = [&](std::size_t app) {
    if (app_unchanged != nullptr) (*app_unchanged)[app] = false;
  };
  for (std::size_t app = 0; app < num_apps; ++app) {
    if (app == moved_app) {
      const std::size_t base_size = base.timing.apps[app].intervals.size();
      out.apps[app].intervals.resize(inserting ? base_size + 1
                                               : base_size - 1);
      mark_changed(app);
    } else {
      out.apps[app].intervals = base.timing.apps[app].intervals;
    }
  }

  struct Tracker {
    std::size_t cnt = 0;
    std::size_t first = 0;
    std::size_t last = 0;
  };
  std::vector<Tracker> track(num_apps);
  const auto set_h = [&](std::size_t app, std::size_t j, double h) {
    Interval& iv = out.apps[app].intervals[j];
    if (iv.h != h) {
      iv.h = h;
      mark_changed(app);
    }
  };
  for (std::size_t k = 0; k < tn; ++k) {
    const std::size_t app = seq_at(k);
    Tracker& tr = track[app];
    if (tr.cnt == 0) {
      tr.first = k;
    } else if (k >= dirty || app == moved_app) {
      // Interval cnt-1 of this app ends here; its h can only have changed
      // bits if an endpoint start was re-accumulated (k >= dirty implies
      // the earlier endpoint case too, since last < k).
      set_h(app, tr.cnt - 1, start[k] - start[tr.last]);
    }
    if (app == moved_app || (succ_patched && k == succ) ||
        (inserting && k == pos)) {
      Interval& iv = out.apps[app].intervals[tr.cnt];
      const double tau = exec_at(k);
      const bool warm = warm_at(k) != 0;
      if (iv.tau != tau || iv.warm != warm) {
        iv.tau = tau;
        iv.warm = warm;
        mark_changed(app);
      }
    }
    tr.last = k;
    ++tr.cnt;
  }
  // Wrap interval of every app: its h reads the period, which an insert or
  // remove always moves.
  for (std::size_t app = 0; app < num_apps; ++app) {
    const Tracker& tr = track[app];
    set_h(app, tr.cnt - 1, period - start[tr.last] + start[tr.first]);
  }
  return out;
}

namespace {

void validate_rotation(const BlockRotation& rot, std::size_t t) {
  if (rot.len < 2 || rot.pos + rot.len > t ||
      rot.shift == 0 || rot.shift >= rot.len) {
    throw std::invalid_argument(
        "block rotation: need pos + len <= size, 2 <= len, 0 < shift < len");
  }
}

}  // namespace

std::vector<std::size_t> apply_rotation(const std::vector<std::size_t>& seq,
                                        const BlockRotation& rot) {
  validate_rotation(rot, seq.size());
  std::vector<std::size_t> out = seq;
  std::rotate(out.begin() + static_cast<std::ptrdiff_t>(rot.pos),
              out.begin() + static_cast<std::ptrdiff_t>(rot.pos + rot.shift),
              out.begin() + static_cast<std::ptrdiff_t>(rot.pos + rot.len));
  return out;
}

ScheduleTiming derive_timing_rotation(const std::vector<AppWcet>& wcets,
                                      const TimingPattern& base,
                                      const BlockRotation& rot,
                                      std::vector<bool>* app_unchanged) {
  const std::size_t t = base.seq.size();
  const std::size_t num_apps = base.timing.apps.size();
  if (wcets.size() != num_apps) {
    throw std::invalid_argument(
        "derive_timing_rotation: wcets/app count mismatch");
  }
  validate_rotation(rot, t);
  const std::size_t pos = rot.pos;
  const std::size_t len = rot.len;

  // The rotated sequence is never materialized — tasks are read through
  // this mapping (NEW index -> base index). Outside the range it is the
  // identity; inside, the two blocks X = [pos, pos+shift) and
  // Y = [pos+shift, pos+len) trade places (Y first).
  const auto base_index = [&](std::size_t k) -> std::size_t {
    if (k < pos || k >= pos + len) return k;
    return pos + (k - pos + rot.shift) % len;
  };
  const auto seq_at = [&](std::size_t k) -> std::size_t {
    return base.seq[base_index(k)];
  };

  // A rotation preserves every (predecessor, task) adjacency except three
  // seams: the head of block Y (new index pos — predecessor is now the
  // task before the range), the head of block X (new index
  // pos + (len - shift) — predecessor is now Y's tail), and the first
  // task after the range (its predecessor is now X's tail). Everything
  // else keeps its warm flag and WCET, so those three are scalar patches.
  struct Patch {
    std::size_t k = 0;        ///< new index
    unsigned char warm = 0;
    double exec = 0.0;
    bool changed = false;     ///< differs from the base task's bits
  };
  Patch patches[3];
  std::size_t patch_count = 0;
  const auto add_patch = [&](std::size_t k) {
    for (std::size_t i = 0; i < patch_count; ++i) {
      if (patches[i].k == k) return;  // len == t folds seams together
    }
    Patch& p = patches[patch_count++];
    p.k = k;
    const std::size_t app = seq_at(k);
    p.warm = seq_at((k + t - 1) % t) == app ? 1 : 0;
    p.exec = p.warm ? wcets[app].warm_seconds : wcets[app].cold_seconds;
    const std::size_t b = base_index(k);
    p.changed = p.warm != base.warm[b] || p.exec != base.exec[b];
  };
  add_patch(pos);
  add_patch(pos + (len - rot.shift));
  add_patch((pos + len) % t);

  const auto find_patch = [&](std::size_t k) -> const Patch* {
    for (std::size_t i = 0; i < patch_count; ++i) {
      if (patches[i].k == k) return &patches[i];
    }
    return nullptr;
  };
  const auto warm_at = [&](std::size_t k) -> unsigned char {
    const Patch* p = find_patch(k);
    return p != nullptr ? p->warm : base.warm[base_index(k)];
  };
  const auto exec_at = [&](std::size_t k) -> double {
    const Patch* p = find_patch(k);
    return p != nullptr ? p->exec : base.exec[base_index(k)];
  };

  // First start offset whose value can differ: execs are permuted from
  // `pos` on, and a changed patch at a wrapped after-range seam (new index
  // 0 when pos + len == t) dirties the prefix before `pos` too.
  std::size_t dirty = pos;
  for (std::size_t i = 0; i < patch_count; ++i) {
    if (patches[i].changed && patches[i].k < dirty) dirty = patches[i].k;
  }

  // Reuse the clean start prefix verbatim; replay the accumulation
  // recurrence (identical operation order to accumulate_starts) over the
  // dirty tail so every start offset and the period are bit-identical to
  // a from-scratch derivation.
  std::vector<double> start(t);
  for (std::size_t k = 0; k < dirty; ++k) start[k] = base.start[k];
  double period = base.start[dirty];
  for (std::size_t k = dirty; k < t; ++k) {
    start[k] = period;
    period += exec_at(k);
  }

  // Interval lists: a rotation never changes any app's task COUNT, so
  // every base list is copied wholesale and patched in place. Inside the
  // rotated range an app's occurrence ORDER can change (its j-th task is a
  // different base task), so tau/warm are re-read there and at the
  // after-range seam; h values can only change bits when an endpoint start
  // was re-accumulated (k >= dirty). One pass over the new sequence drives
  // both, tracking per-app occurrence counts.
  ScheduleTiming out;
  out.period = period;
  out.apps.resize(num_apps);
  if (app_unchanged != nullptr) app_unchanged->assign(num_apps, true);
  const auto mark_changed = [&](std::size_t app) {
    if (app_unchanged != nullptr) (*app_unchanged)[app] = false;
  };
  for (std::size_t app = 0; app < num_apps; ++app) {
    out.apps[app].intervals = base.timing.apps[app].intervals;
  }

  struct Tracker {
    std::size_t cnt = 0;
    std::size_t first = 0;
    std::size_t last = 0;
  };
  std::vector<Tracker> track(num_apps);
  const auto set_h = [&](std::size_t app, std::size_t j, double h) {
    Interval& iv = out.apps[app].intervals[j];
    if (iv.h != h) {
      iv.h = h;
      mark_changed(app);
    }
  };
  for (std::size_t k = 0; k < t; ++k) {
    const std::size_t app = seq_at(k);
    Tracker& tr = track[app];
    if (tr.cnt == 0) {
      tr.first = k;
    } else if (k >= dirty) {
      set_h(app, tr.cnt - 1, start[k] - start[tr.last]);
    }
    if ((k >= pos && k < pos + len) || find_patch(k) != nullptr) {
      Interval& iv = out.apps[app].intervals[tr.cnt];
      const double tau = exec_at(k);
      const bool warm = warm_at(k) != 0;
      if (iv.tau != tau || iv.warm != warm) {
        iv.tau = tau;
        iv.warm = warm;
        mark_changed(app);
      }
    }
    tr.last = k;
    ++tr.cnt;
  }
  // Wrap interval of every app: its h reads the period, which a changed
  // classification (or reassociated accumulation) can move.
  for (std::size_t app = 0; app < num_apps; ++app) {
    const Tracker& tr = track[app];
    set_h(app, tr.cnt - 1, period - start[tr.last] + start[tr.first]);
  }
  return out;
}

bool idle_feasible(const ScheduleTiming& timing,
                   const std::vector<double>& tidle) {
  if (tidle.size() != timing.apps.size()) {
    throw std::invalid_argument("idle_feasible: tidle size mismatch");
  }
  for (std::size_t i = 0; i < timing.apps.size(); ++i) {
    if (timing.apps[i].h_max() > tidle[i]) return false;
  }
  return true;
}

}  // namespace catsched::sched
