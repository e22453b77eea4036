// perfbench — the repository benchmark program. Runs one workload for a
// measurement window and prints one JSON result line (see README.md):
//
//   perfbench --workload population_wcet --seed 1 --seconds 45 --trace 0
//             [--record FILE] [--commit SHA]
//
// --trace 0: untraced passes fill the window (at least two; the count is
//            fixed per workload, see Workload::nominal_pass_s). A timing
//            metric takes each system's fastest pass (setup: its median
//            pass) and sums over systems; the others are pass medians.
// --trace 1: the same untraced passes, then one traced pass; the per-layer
//            metrics come from the traced pass, and the tracing overhead is
//            the traced pass's end-to-end figures minus the untraced ones.
// In both modes every pass must repeat the first pass's deterministic
// record bit for bit, and the traced pass must repeat it too.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {

std::size_t workload_participants(const std::string& name,
                                  std::size_t hardware) {
  if (name == "population_wcet") return 1;  // serial by definition
  return std::min<std::size_t>(4, std::max<std::size_t>(1, hardware));
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const RunContext& ctx) {
  if (name == "population_search") return make_population_search(ctx);
  if (name == "population_wcet") return make_population_wcet(ctx);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::map<std::string, std::string> design_stamp(
    const control::DesignOptions& d) {
  return {{"pso_particles", std::to_string(d.pso.particles)},
          {"pso_iterations", std::to_string(d.pso.iterations)},
          {"pso_stall_iterations", std::to_string(d.pso.stall_iterations)},
          {"pso_restarts", std::to_string(d.pso_restarts)},
          {"pso_seed", std::to_string(d.pso.seed)},
          {"dense_dt", std::to_string(d.dense_dt)},
          {"horizon_factor", std::to_string(d.horizon_factor)},
          {"settle_on_samples", d.settle_on_samples ? "true" : "false"},
          {"scale_budget_with_dims",
           d.scale_budget_with_dims ? "true" : "false"}};
}

std::vector<std::size_t> seeded_order(std::size_t size, std::uint64_t seed) {
  std::vector<std::size_t> order;
  for (std::size_t k = 0; k < size; ++k) {
    order.push_back(static_cast<std::size_t>((seed + k) % size));
  }
  return order;
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_object(const std::map<std::string, std::string>& fields) {
  std::string out = "{";
  for (const auto& [k, v] : fields) {
    out += (out.size() > 1 ? ", " : "") + json_string(k) + ": " + v;
  }
  return out + "}";
}

std::map<std::string, std::string> quoted(
    const std::map<std::string, std::string>& m) {
  std::map<std::string, std::string> out;
  for (const auto& [k, v] : m) out[k] = json_string(v);
  return out;
}

struct Metric {
  double value;
  const char* unit;
};

std::string metrics_json(const std::map<std::string, Metric>& metrics) {
  std::map<std::string, std::string> fields;
  for (const auto& [name, m] : metrics) {
    fields[name] = json_object({{"value", json_number(m.value)},
                                {"unit", json_string(m.unit)}});
  }
  return json_object(fields);
}

const char* layer_unit(const std::string& name) {
  auto ends_with = [&](const std::string& suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  if (ends_with("_ratio") || ends_with("occupancy")) return "ratio";
  if (ends_with("_s") || ends_with("_s.p50") || ends_with("_s.p90")) return "s";
  return "count";
}

std::string pass_json(const PassResult& p) {
  const SystemTimes t = p.total();
  return json_object({{"setup_s", json_number(t.setup_s)},
                      {"solve_s", json_number(t.solve_s)},
                      {"time_to_best_s", json_number(t.time_to_best_s)},
                      {"unique_evals", json_number(p.unique_evals)},
                      {"best_pall", json_number(p.best_pall)}});
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
  std::string record;
  std::string commit = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = std::stoi(val);
    } else if (key == "--record") {
      a.record = val;
    } else if (key == "--commit") {
      a.commit = val;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!have_workload || (a.trace != 0 && a.trace != 1) || !(a.seconds > 0)) {
    throw std::invalid_argument(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
  }
  return a;
}

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

int run(const Args& args) {
  const std::size_t hardware = core::hardware_threads();
  RunContext ctx;
  ctx.seed = args.seed;
  ctx.participants = workload_participants(args.workload, hardware);
  std::unique_ptr<core::ThreadPool> pool;
  if (ctx.participants > 1) {
    pool = std::make_unique<core::ThreadPool>(ctx.participants - 1);
    ctx.pool = pool.get();
  }
  std::unique_ptr<Workload> workload = make_workload(args.workload, ctx);

  // The window becomes a fixed number of untraced passes, from the
  // workload's pass time on the reference machine, so every run takes the
  // same number of samples per system: the fastest of N samples falls as N
  // grows. An untraced run makes at least two, so the determinism record
  // has a repeat to match; a traced run's traced pass is that repeat.
  workload->warm_up();
  const std::size_t pass_count = std::max<std::size_t>(
      args.trace == 0 ? 2 : 1,
      static_cast<std::size_t>(
          std::llround(args.seconds / workload->nominal_pass_s())));
  std::vector<PassResult> passes;
  while (passes.size() < pass_count) {
    passes.push_back(workload->run_pass(nullptr, passes.empty()));
  }

  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;
  bool deterministic = true;
  for (const PassResult& p : passes) {
    attempted += p.attempted;
    failed += p.failed;
    failures.insert(failures.end(), p.failures.begin(), p.failures.end());
    if (p.determinism != passes.front().determinism) deterministic = false;
  }
  if (!deterministic) failures.push_back("determinism: passes disagree");

  auto med = [&](const std::function<double(const PassResult&)>& f) {
    std::vector<double> v;
    for (const PassResult& p : passes) v.push_back(f(p));
    return median(v);
  };
  // One system's time moves by tens of percent from pass to pass with the
  // host's load, so solving counts each system's fastest pass: the
  // steadiest estimate of its cost. Setup counts each system's median pass.
  auto per_system = [&](double SystemTimes::*field, bool fastest) {
    std::map<int, std::vector<double>> by_system;
    for (const PassResult& p : passes) {
      for (const auto& [index, t] : p.times) by_system[index].push_back(t.*field);
    }
    double sum = 0.0;
    for (const auto& [index, v] : by_system) {
      sum += fastest ? *std::min_element(v.begin(), v.end()) : median(v);
    }
    return sum;
  };
  std::map<std::string, Metric> metrics;
  std::map<std::string, Metric> untraced{
      {"setup_s", {per_system(&SystemTimes::setup_s, false), "s"}},
      {"solve_s", {per_system(&SystemTimes::solve_s, true), "s"}},
      {"time_to_best_s",
       {per_system(&SystemTimes::time_to_best_s, true), "s"}},
      {"unique_evals",
       {med([](const PassResult& p) { return p.unique_evals; }), "count"}},
      {"best_pall",
       {med([](const PassResult& p) { return p.best_pall; }), "Pall"}},
      {"peak_rss_mb", {peak_rss_mb(), "MB"}}};

  std::string passes_json = "[";
  for (const PassResult& p : passes) {
    passes_json += (passes_json.size() > 1 ? ", " : "") + pass_json(p);
  }
  passes_json += "]";
  std::string traced_json = "null";
  std::string spans_json = "[]";
  if (args.trace == 0) {
    metrics = untraced;
  } else {
    Tracer tracer;
    const PassResult traced = workload->run_pass(&tracer, false);
    attempted += traced.attempted;
    failed += traced.failed;
    failures.insert(failures.end(), traced.failures.begin(),
                    traced.failures.end());
    if (traced.determinism != passes.front().determinism) {
      deterministic = false;
      failures.push_back("determinism: traced pass differs from untraced");
    }
    for (const auto& [name, value] :
         layer_metrics(tracer, ctx.participants)) {
      metrics[name] = Metric{value, layer_unit(name)};
    }
    traced_json = pass_json(traced);
    // Pass against pass: the traced pass's sums minus the median untraced
    // pass's.
    const SystemTimes traced_sum = traced.total();
    metrics["trace.solve_overhead_s"] = {
        traced_sum.solve_s -
            med([](const PassResult& p) { return p.total().solve_s; }),
        "s"};
    metrics["trace.time_to_best_overhead_s"] = {
        traced_sum.time_to_best_s -
            med([](const PassResult& p) { return p.total().time_to_best_s; }),
        "s"};
    std::ostringstream os;
    os << "[";
    bool first = true;
    for (const Span& s : tracer.spans()) {
      os << (first ? "" : ",\n  ")
         << json_object({{"name", json_string(s.name)},
                         {"parent", std::to_string(s.parent)},
                         {"request", std::to_string(s.request)},
                         {"start_s", json_number(s.start_s)},
                         {"end_s", json_number(s.end_s)}});
      first = false;
    }
    os << "]";
    spans_json = os.str();
  }

  std::map<std::string, std::string> stamp = workload->stamp();
  stamp["workload"] = args.workload;
  stamp["seed"] = std::to_string(args.seed);
  stamp["commit"] = args.commit;
  stamp["compiler"] = compiler_id();
  stamp["nproc"] = std::to_string(hardware);
  stamp["participants"] = std::to_string(ctx.participants);
  stamp["passes"] = std::to_string(passes.size());
  stamp["seconds"] = json_number(args.seconds);
  stamp["trace"] = std::to_string(args.trace);

  const bool correct = failures.empty();
  std::map<std::string, int> failure_counts;
  for (const std::string& f : failures) ++failure_counts[f];
  for (const auto& [f, count] : failure_counts) {
    std::fprintf(stderr, "perfbench: FAILED %s (x%d)\n", f.c_str(), count);
  }
  const std::string result = json_object(
      {{"correct", correct ? "true" : "false"},
       {"attempted", std::to_string(attempted)},
       {"failed", std::to_string(failed + (deterministic ? 0 : 1))},
       {"metrics", metrics_json(metrics)}});
  if (!args.record.empty()) {
    std::ofstream out(args.record);
    out << json_object({{"stamp", json_object(quoted(stamp))},
                        {"result", result},
                        {"untraced", metrics_json(untraced)},
                        {"passes", passes_json},
                        {"traced_pass", traced_json},
                        {"spans", spans_json}})
        << "\n";
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.record.c_str());
      return 2;
    }
  }
  std::printf("%s\n", json_object({{"stamp", json_object(quoted(stamp))}}).c_str());
  std::printf("%s\n", result.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
