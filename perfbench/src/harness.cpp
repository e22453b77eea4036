#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

SystemTimes PassResult::total() const {
  SystemTimes sum;
  for (const auto& [index, t] : times) {
    sum.setup_s += t.setup_s;
    sum.solve_s += t.solve_s;
    sum.time_to_best_s += t.time_to_best_s;
  }
  return sum;
}

int Tracer::span(const std::string& name, int parent, int request,
                 Clock::time_point t0, Clock::time_point t1) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, parent, request, seconds_between(origin_, t0),
                        seconds_between(origin_, t1)});
  return static_cast<int>(spans_.size()) - 1;
}

int Tracer::open(const std::string& name, int parent, int request) {
  const Clock::time_point now = Clock::now();
  return span(name, parent, request, now, now);
}

void Tracer::close(int id) {
  const double end = seconds_between(origin_, Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(static_cast<std::size_t>(id)).end_s = end;
}

void Tracer::sample(const std::string& metric, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  samples_[metric].push_back(value);
}

void Tracer::add(const std::string& metric, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[metric] += value;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, std::vector<double>> Tracer::samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_;
}

std::map<std::string, double> Tracer::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

opt::DiscreteObjective ObjectiveProbe::wrap(opt::DiscreteObjective f) {
  return [this, f = std::move(f)](const std::vector<int>& p) {
    const Clock::time_point t0 = enter();
    return leave(t0, f(p));
  };
}

opt::NeighborObjective ObjectiveProbe::wrap(opt::NeighborObjective f) {
  return [this, f = std::move(f)](const std::vector<int>& base,
                                  const std::vector<int>& p) {
    const Clock::time_point t0 = enter();
    return leave(t0, f(base, p));
  };
}

void ObjectiveProbe::start(Clock::time_point t) {
  std::lock_guard<std::mutex> lock(mu_);
  start_ = t;
  last_idle_ = t;
}

void ObjectiveProbe::stop(Clock::time_point t) {
  std::lock_guard<std::mutex> lock(mu_);
  stop_ = t;
  if (in_flight_ == 0) bookkeeping_s_ += seconds_between(last_idle_, t);
}

double ObjectiveProbe::time_to_best_s() const {
  std::lock_guard<std::mutex> lock(mu_);
  return found_ ? seconds_between(start_, best_at_) : 0.0;
}

Clock::time_point ObjectiveProbe::enter() {
  const Clock::time_point t0 = Clock::now();
  if (tracer_ != nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    if (in_flight_++ == 0) bookkeeping_s_ += seconds_between(last_idle_, t0);
  }
  return t0;
}

opt::EvalOutcome ObjectiveProbe::leave(Clock::time_point t0,
                                       const opt::EvalOutcome& out) {
  const Clock::time_point t1 = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  if (out.feasible && (!found_ || out.value > best_)) {
    found_ = true;
    best_ = out.value;
    best_at_ = t1;
  }
  if (tracer_ != nullptr) {
    busy_s_ += seconds_between(t0, t1);
    if (--in_flight_ == 0) last_idle_ = t1;
    tracer_->span("core.evaluate", parent_, request_, t0, t1);
    tracer_->sample("core.evaluate_s", seconds_between(t0, t1));
  }
  return out;
}

}  // namespace perfbench
