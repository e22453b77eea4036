#pragma once
/// \file harness.hpp
/// \brief Shared pieces of the benchmark program: clocks and order
///        statistics, the in-memory span/metric recorder of the traced run,
///        the objective probe that times calls into the search layer, and
///        the per-pass result every workload returns.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/parallel.hpp"
#include "opt/discrete_search.hpp"

namespace catsched::cache {}
namespace catsched::control {}
namespace catsched::sched {}
namespace catsched::testgen {}

namespace perfbench {

namespace cache = catsched::cache;
namespace control = catsched::control;
namespace core = catsched::core;
namespace opt = catsched::opt;
namespace sched = catsched::sched;
namespace testgen = catsched::testgen;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// IEEE bit pattern of a double (determinism records compare bits).
inline std::uint64_t bits_of(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

/// One timed interval at a layer boundary. `request` groups the spans of
/// one system; `parent` is the index of the enclosing span (-1 = root).
struct Span {
  std::string name;
  int parent = -1;
  int request = 0;
  double start_s = 0.0;  ///< relative to the recorder's origin
  double end_s = 0.0;
};

/// Collector of the traced run: spans, per-call samples (reported as
/// p50/p90) and summed counters. Everything stays in memory until the run
/// writes its record. Thread-safe.
class Tracer {
public:
  Tracer() : origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Record a finished span; returns its index.
  int span(const std::string& name, int parent, int request,
           Clock::time_point t0, Clock::time_point t1);
  /// Open a span now and close it later (parents of nested spans).
  int open(const std::string& name, int parent, int request);
  void close(int id);

  void sample(const std::string& metric, double value);
  void add(const std::string& metric, double value);

  std::vector<Span> spans() const;
  std::map<std::string, std::vector<double>> samples() const;
  std::map<std::string, double> counters() const;

private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> counters_;
};

/// Wraps the objective and neighbor objective handed to a search. Always
/// records when the best feasible value last improved (the
/// time_to_best_s metric). With a tracer it also records one span per
/// objective call, the objective-free wall time of the search
/// (bookkeeping) and the summed call time (occupancy).
/// Must outlive the search it instruments.
class ObjectiveProbe {
public:
  ObjectiveProbe(Tracer* tracer, int parent_span, int request)
      : tracer_(tracer), parent_(parent_span), request_(request) {}
  ObjectiveProbe(const ObjectiveProbe&) = delete;
  ObjectiveProbe& operator=(const ObjectiveProbe&) = delete;

  opt::DiscreteObjective wrap(opt::DiscreteObjective f);
  opt::NeighborObjective wrap(opt::NeighborObjective f);

  void start(Clock::time_point t);
  void stop(Clock::time_point t);

  double time_to_best_s() const;  ///< since start(); 0 if nothing feasible
  double best() const { return best_; }
  double bookkeeping_s() const { return bookkeeping_s_; }
  double busy_s() const { return busy_s_; }
  double wall_s() const { return seconds_between(start_, stop_); }

private:
  Clock::time_point enter();
  opt::EvalOutcome leave(Clock::time_point t0, const opt::EvalOutcome& out);

  Tracer* tracer_;
  int parent_;
  int request_;
  mutable std::mutex mu_;
  Clock::time_point start_{};
  Clock::time_point stop_{};
  Clock::time_point last_idle_{};
  Clock::time_point best_at_{};
  int in_flight_ = 0;
  double bookkeeping_s_ = 0.0;
  double busy_s_ = 0.0;
  double best_ = 0.0;
  bool found_ = false;
};

/// Timings of one system in one pass.
struct SystemTimes {
  double setup_s = 0.0;
  double solve_s = 0.0;
  double time_to_best_s = 0.0;
};

/// End-to-end figures of one pass over a workload's inputs, plus its
/// deterministic record (must repeat bit for bit across passes and between
/// the traced and untraced runs).
struct PassResult {
  std::map<int, SystemTimes> times;  ///< by index in the population
  double unique_evals = 0.0;
  double best_pall = 0.0;
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;  ///< one line per failed check
  std::vector<std::uint64_t> determinism;

  /// The pass's timings summed over its systems.
  SystemTimes total() const;
};

/// Shared run configuration handed to every workload.
struct RunContext {
  std::uint64_t seed = 0;
  std::size_t participants = 1;    ///< threads taking part, caller included
  core::ThreadPool* pool = nullptr;  ///< participants - 1 workers
};

}  // namespace perfbench
