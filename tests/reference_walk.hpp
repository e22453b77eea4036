#pragma once
// The paper's Sec. IV hybrid walk written out plainly: one start, direct
// objective calls, no memo, pool, budget or checkpoint. It is the oracle
// the searches are differentially tested against (tests/test_opt.cpp,
// tests/test_portfolio.cpp); opt::HybridDriver is the implementation.

#include <algorithm>
#include <optional>
#include <set>
#include <vector>

#include "opt/discrete_search.hpp"

namespace catsched::testref {

struct ReferenceWalk {
  std::vector<std::vector<int>> path;  ///< accepted points, start first
  int steps = 0;                       ///< accepted moves
  std::vector<int> best;               ///< best feasible point evaluated
  double best_value = 0.0;
  bool found_feasible = false;
};

/// Walk from \p start: per step, evaluate the in-box, cheap-feasible +-1
/// neighbors of the current point (dimension ascending, -1 before +1);
/// each dimension's gradient is the central difference when both exist,
/// else the one-sided difference against the current value; every
/// neighbor is a move scored +gradient (+1) or -gradient (-1); moves are
/// sorted by score, descending, ties keeping move order (dimension
/// ascending, +1 before -1); the first unvisited, feasible target at most
/// `tolerance` below the current value is taken. No such move, or
/// max_steps accepted moves, ends the walk.
inline ReferenceWalk reference_walk(const opt::DiscreteObjective& f,
                                    const opt::CheapFeasible& cheap,
                                    const std::vector<int>& start,
                                    const opt::HybridOptions& opts) {
  const auto allowed = [&](const std::vector<int>& p) {
    for (int v : p) {
      if (v < opts.min_value || v > opts.max_value) return false;
    }
    return cheap(p);
  };
  ReferenceWalk w;
  const auto see = [&](const std::vector<int>& p, const opt::EvalOutcome& o) {
    if (o.feasible && (!w.found_feasible || o.value > w.best_value)) {
      w.found_feasible = true;
      w.best_value = o.value;
      w.best = p;
    }
  };
  std::vector<int> cur = start;
  opt::EvalOutcome here = f(cur);
  see(cur, here);
  w.path.push_back(cur);
  std::set<std::vector<int>> visited{cur};

  struct Move {
    std::vector<int> to;
    opt::EvalOutcome out;
    double gain;
  };
  while (w.steps < opts.max_steps) {
    std::vector<Move> moves;
    for (std::size_t i = 0; i < cur.size(); ++i) {
      std::vector<int> down = cur;
      std::vector<int> up = cur;
      --down[i];
      ++up[i];
      std::optional<opt::EvalOutcome> f_down;
      std::optional<opt::EvalOutcome> f_up;
      if (allowed(down)) {
        f_down = f(down);
        see(down, *f_down);
      }
      if (allowed(up)) {
        f_up = f(up);
        see(up, *f_up);
      }
      double gradient;
      if (f_down && f_up) {
        gradient = (f_up->value - f_down->value) / 2.0;
      } else if (f_up) {
        gradient = f_up->value - here.value;
      } else if (f_down) {
        gradient = here.value - f_down->value;
      } else {
        continue;
      }
      if (f_up) moves.push_back(Move{up, *f_up, gradient});
      if (f_down) moves.push_back(Move{down, *f_down, -gradient});
    }
    std::stable_sort(moves.begin(), moves.end(),
                     [](const Move& a, const Move& b) {
                       return a.gain > b.gain;
                     });
    const auto taken =
        std::find_if(moves.begin(), moves.end(), [&](const Move& m) {
          return visited.count(m.to) == 0 && m.out.feasible &&
                 m.out.value + opts.tolerance >= here.value;
        });
    if (taken == moves.end()) break;
    cur = taken->to;
    here = taken->out;
    visited.insert(cur);
    w.path.push_back(cur);
    ++w.steps;
  }
  return w;
}

}  // namespace catsched::testref
