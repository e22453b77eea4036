#pragma once
/// \file workloads.hpp
/// \brief The benchmark's workloads. Each one builds its inputs once in its
///        constructor (excluded from every timing) and then runs passes over
///        them: untraced passes give the end-to-end figures, one traced pass
///        gives the per-layer figures (layers.hpp).

#include <map>
#include <memory>
#include <string>

#include "control/design.hpp"
#include "harness.hpp"

namespace perfbench {

class Workload {
public:
  virtual ~Workload() = default;

  /// One pass over the inputs. \p tracer non-null = the traced pass, which
  /// also records and replays the layers. \p verify runs the output checks
  /// that need fresh serial re-evaluation (later passes are held to the
  /// first one by the determinism record instead).
  virtual PassResult run_pass(Tracer* tracer, bool verify) = 0;

  /// Untimed work before the first pass, so that one-time costs of the
  /// process (thread start-up, first allocations) stay out of the passes.
  virtual void warm_up() {}

  /// Workload-specific stamp entries (design budget, population).
  virtual std::map<std::string, std::string> stamp() const = 0;

  /// Length of one pass on the reference machine (4 vCPUs, g++ 12.2). The
  /// measurement window is divided by it into a fixed pass count.
  virtual double nominal_pass_s() const = 0;
};

/// Threads the workload runs with (the caller counts as one), given the
/// machine's hardware threads.
std::size_t workload_participants(const std::string& name,
                                  std::size_t hardware);

/// \throws std::invalid_argument on an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const RunContext& ctx);

std::unique_ptr<Workload> make_population_search(const RunContext& ctx);
std::unique_ptr<Workload> make_population_wcet(const RunContext& ctx);

/// Stamp entries describing a controller-design budget.
std::map<std::string, std::string> design_stamp(
    const control::DesignOptions& d);

/// The rotation of a pinned population a seed selects: every pass visits the
/// same systems, starting at index seed mod size.
std::vector<std::size_t> seeded_order(std::size_t size, std::uint64_t seed);

}  // namespace perfbench
