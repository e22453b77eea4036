// Checkpoint-overhead benchmark for the anytime search layer.
//
// Two measurements (docs/BENCHMARKS.md, "Checkpoint overhead"):
//   1. raw snapshot cost — encode + crash-consistent write (tmp/rotate/
//      rename) + read-back of evaluation tables at several sizes;
//   2. end-to-end search overhead — the reduced two-app multistart run
//      with checkpointing off vs. every completed evaluation vs. the
//      default cadence, reporting the wall-clock delta the journal and
//      file rotation actually cost.
//
// Usage:  bench_snapshot [--fast]
//   --fast   smoke mode for the CI matrix: smallest table size and a
//            single overhead comparison
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "cache/program.hpp"
#include "core/case_study.hpp"
#include "core/codesign.hpp"
#include "core/snapshot.hpp"
#include "opt/discrete_search.hpp"

using namespace catsched;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

core::SystemModel reduced_system() {
  core::SystemModel sys;
  sys.cache_config = core::date18_cache_config();
  const std::size_t sets = sys.cache_config.num_sets();

  auto make_app = [&](const char* name, std::size_t singles,
                      std::size_t groups, std::uint64_t base, double w0,
                      double weight) {
    core::Application a;
    a.name = name;
    cache::CalibratedLayout lay;
    lay.singleton_lines = singles;
    lay.conflict_group_sizes.assign(groups, 2);
    lay.extra_hit_fetches = 10;
    a.program = cache::make_calibrated_program(name, lay, sets, base);
    control::ContinuousLTI p;
    p.a = linalg::Matrix{{0.0, 1.0}, {-w0 * w0, -0.4 * w0}};
    p.b = linalg::Matrix{{0.0}, {3.0e6}};
    p.c = linalg::Matrix{{1.0, 0.0}};
    a.plant = p;
    a.weight = weight;
    a.smax = 25e-3;
    a.tidle = 9e-3;
    a.umax = 80.0;
    a.r = 1000.0;
    a.y0 = 0.0;
    return a;
  };
  sys.apps = {make_app("A", 100, 16, 0, 110.0, 0.6),
              make_app("B", 90, 22, 1024, 140.0, 0.4)};
  return sys;
}

control::DesignOptions fast_options() {
  control::DesignOptions o = core::date18_design_options();
  o.pso.particles = 10;
  o.pso.iterations = 12;
  o.pso.stall_iterations = 6;
  o.pso_restarts = 1;
  o.scale_budget_with_dims = false;
  return o;
}

/// Synthetic evaluation table of \p n entries (3-burst points).
opt::EvaluationTable make_table(int n) {
  opt::EvaluationTable table;
  table.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    table.push_back({{1 + i % 7, 1 + (i / 7) % 7, 1 + (i / 49) % 7},
                     opt::EvalOutcome{0.5 + 1e-6 * i, i % 3 != 0}});
  }
  return table;
}

std::string temp_path(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("catsched_bench_snap_") + tag + ".bin"))
      .string();
}

void cleanup(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(path + ".tmp", ec);
  std::filesystem::remove(path + ".prev", ec);
}

void raw_snapshot_cost(int entries, int repeats) {
  const opt::EvaluationTable table = make_table(entries);
  const std::string path = temp_path("raw");
  const std::vector<std::uint8_t> payload =
      opt::encode_evaluation_table(table);

  const auto t_write = Clock::now();
  for (int r = 0; r < repeats; ++r) {
    core::write_snapshot_file(path, core::kSnapshotKindEvaluationTable,
                              payload);
  }
  const double write_s = seconds_since(t_write);

  const auto t_read = Clock::now();
  std::size_t decoded = 0;
  for (int r = 0; r < repeats; ++r) {
    decoded = opt::decode_evaluation_table(core::read_snapshot_file(
                  path, core::kSnapshotKindEvaluationTable))
                  .size();
  }
  const double read_s = seconds_since(t_read);
  cleanup(path);

  std::printf("  %6d entries: %7zu bytes framed, write %8.1f us, "
              "read+decode %8.1f us  (%zu round-tripped)\n",
              entries, payload.size() + 28,
              1e6 * write_s / repeats, 1e6 * read_s / repeats, decoded);
}

double timed_multistart(core::Evaluator& ev, const std::string& ck_path,
                        int every, int* checkpoints) {
  opt::HybridOptions o;
  o.max_value = 6;
  if (!ck_path.empty()) {
    o.anytime.checkpoint_path = ck_path;
    o.anytime.checkpoint_every = every;
  }
  const auto t0 = Clock::now();
  const auto res =
      core::find_optimal_schedule(ev, {{1, 1}, {4, 4}, {1, 6}}, o);
  const double s = seconds_since(t0);
  if (checkpoints != nullptr) *checkpoints = res.search.telemetry.checkpoints_written;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const bool fast = argc == 2 && std::strcmp(argv[1], "--fast") == 0;
  if (argc > 1 && !fast) {
    std::fprintf(stderr, "usage: %s [--fast]\n", argv[0]);
    return 2;
  }

  std::printf("== Snapshot / checkpoint overhead ==%s\n\n",
              fast ? "   (--fast smoke)" : "");

  std::printf("raw snapshot cost (encode once, crash-consistent write + "
              "validated read per repeat):\n");
  if (fast) {
    raw_snapshot_cost(64, 20);
  } else {
    raw_snapshot_cost(64, 200);
    raw_snapshot_cost(1024, 200);
    raw_snapshot_cost(16384, 50);
  }

  std::printf("\nend-to-end multistart overhead (reduced two-app system, "
              "fresh evaluator per run):\n");
  const std::string ck = temp_path("search");

  cleanup(ck);
  core::Evaluator ev_off(reduced_system(), fast_options());
  const double base_s = timed_multistart(ev_off, "", 0, nullptr);
  std::printf("  checkpoints off:      %7.3f s\n", base_s);

  cleanup(ck);
  int written_every1 = 0;
  core::Evaluator ev_e1(reduced_system(), fast_options());
  const double every1_s = timed_multistart(ev_e1, ck, 1, &written_every1);
  std::printf("  every evaluation:     %7.3f s  (%d snapshots, %+.2f%%)\n",
              every1_s, written_every1,
              100.0 * (every1_s - base_s) / base_s);

  if (!fast) {
    cleanup(ck);
    int written_default = 0;
    core::Evaluator ev_e16(reduced_system(), fast_options());
    const double def_s = timed_multistart(ev_e16, ck, 16, &written_default);
    std::printf("  every 16 (default):   %7.3f s  (%d snapshots, %+.2f%%)\n",
                def_s, written_default, 100.0 * (def_s - base_s) / base_s);
  }
  cleanup(ck);
  return 0;
}
