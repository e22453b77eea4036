#pragma once
/// \file edf.hpp
/// \brief Preemptive earliest-deadline-first simulation: the dynamic
///        scheduling policy the paper's Sec. VI contrasts with its static
///        schedules. Produces the per-job timing a dynamic schedule
///        actually delivers (releases are periodic, completions jitter);
///        the fuzz harness checks it against the preemptive response-time
///        analysis.

#include <cstddef>
#include <vector>

namespace catsched::sched {

/// One periodic task under EDF (implicit deadline = period).
struct EdfTask {
  double period = 0.0;
  double wcet = 0.0;
};

/// One simulated job.
struct EdfJob {
  std::size_t task = 0;
  std::size_t index = 0;    ///< job number within its task
  double release = 0.0;
  double finish = 0.0;      ///< completion time
  double deadline = 0.0;
  bool missed = false;      ///< finish > deadline

  /// Sensing-to-actuation delay if sensing happens at release and
  /// actuation at completion.
  double response() const noexcept { return finish - release; }
};

/// Simulation outcome.
struct EdfSimResult {
  std::vector<EdfJob> jobs;  ///< completion order
  bool any_miss = false;
  double utilization = 0.0;

  /// All jobs of one task, in release order.
  std::vector<EdfJob> jobs_of(std::size_t task) const;

  /// Min/max observed response of one task (its tau range under EDF).
  struct Range {
    double min = 0.0;
    double max = 0.0;
  };
  Range response_range(std::size_t task) const;
};

/// Event-driven preemptive EDF simulation over [0, horizon): jobs released
/// at k*period, executed earliest-deadline-first with preemption, ties by
/// task index. Jobs still running at the horizon are completed (the sim
/// runs until the last released job finishes).
/// \throws std::invalid_argument on empty tasks or nonpositive parameters.
EdfSimResult simulate_edf(const std::vector<EdfTask>& tasks, double horizon);

}  // namespace catsched::sched
