#include "testgen/generator.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "cache/static_wcet.hpp"
#include "testgen/rng.hpp"

namespace catsched::testgen {

namespace {

void check_config(const GeneratorConfig& c) {
  if (c.set_choices.empty() || c.way_choices.empty() ||
      c.line_bytes_choices.empty()) {
    throw std::invalid_argument("generate_system: empty geometry choices");
  }
  if (c.min_apps < 1 || c.max_apps < c.min_apps) {
    throw std::invalid_argument("generate_system: bad app-count range");
  }
  if (!(c.min_footprint > 0.0) || c.max_footprint < c.min_footprint ||
      c.max_footprint > 1.0) {
    throw std::invalid_argument("generate_system: bad footprint range");
  }
  if (c.min_miss_cycles <= c.hit_cycles ||
      c.max_miss_cycles < c.min_miss_cycles) {
    throw std::invalid_argument("generate_system: bad miss-cycle range");
  }
  if (c.min_refetches < 1 || c.max_refetches < c.min_refetches ||
      c.min_loop_iterations < 1 ||
      c.max_loop_iterations < c.min_loop_iterations) {
    throw std::invalid_argument("generate_system: bad trace-shape range");
  }
  if (c.branchy_chance > 0.0 &&
      (c.min_branchy_loop_bound < 2 ||
       c.max_branchy_loop_bound < c.min_branchy_loop_bound)) {
    throw std::invalid_argument("generate_system: bad branchy-loop range");
  }
}

/// Deterministic round-half-up of a non-negative value (std::lround is
/// fine too, but keeping it explicit avoids any libm question mark).
std::size_t round_frac(double v) {
  return static_cast<std::size_t>(v + 0.5);
}

}  // namespace

GeneratedSystem generate_system(const GeneratorConfig& config,
                                std::uint64_t seed) {
  check_config(config);
  SplitMix64 rng(seed);

  GeneratedSystem out;
  out.seed = seed;

  // --- platform ---
  cache::CacheConfig& cc = out.model.cache_config;
  const std::size_t sets = rng.pick(config.set_choices);
  const std::size_t ways = rng.pick(config.way_choices);
  cc.line_bytes = rng.pick(config.line_bytes_choices);
  cc.associativity = ways;
  cc.num_lines = sets * ways;
  cc.hit_cycles = config.hit_cycles;
  cc.miss_cycles = static_cast<std::uint32_t>(
      rng.range(config.min_miss_cycles, config.max_miss_cycles));
  cc.clock_hz = config.clock_hz;

  const std::size_t n = static_cast<std::size_t>(
      rng.range(static_cast<std::int64_t>(config.min_apps),
                static_cast<std::int64_t>(config.max_apps)));
  out.overlap = config.overlap < 0.0 ? rng.real01() : config.overlap;

  // --- footprint windows: contiguous set ranges, consecutive bases
  // shifted by (1 - overlap) * previous width (mod sets) ---
  std::vector<std::size_t> bases(n, 0);
  std::vector<std::size_t> widths(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const double frac = rng.real(config.min_footprint, config.max_footprint);
    widths[i] = std::min(
        sets, std::max<std::size_t>(
                  2, round_frac(frac * static_cast<double>(sets))));
    if (i > 0) {
      const std::size_t shift =
          round_frac((1.0 - out.overlap) * static_cast<double>(widths[i - 1]));
      bases[i] = (bases[i - 1] + shift) % sets;
    }
  }

  // --- per-app programs + control parameters ---
  out.model.apps.resize(n);
  out.families.resize(n);
  std::vector<double> raw_weights(n, 0.0);
  double weight_sum = 0.0;
  double cold_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    core::Application& app = out.model.apps[i];
    app.name = "gen" + std::to_string(i);
    app.program.name = app.name;

    // Line addresses: set + bank * sets, with a per-app bank (distinct
    // apps never share a line, so all interference is via set conflicts)
    // and a second bank n + i for self-conflicting lines in the same set.
    std::vector<std::uint64_t> lines;
    for (std::size_t s = 0; s < widths[i]; ++s) {
      const std::uint64_t set = (bases[i] + s) % sets;
      lines.push_back(set + static_cast<std::uint64_t>(i) * sets);
      if (rng.chance(config.conflict_line_chance)) {
        lines.push_back(set + static_cast<std::uint64_t>(n + i) * sets);
      }
    }
    // Branchy draw behind a short-circuit: at branchy_chance == 0 (the
    // default) no RNG state is consumed, so pre-branchy seeds replay
    // bit-identically.
    bool branchy = false;
    if (config.branchy_chance > 0.0) {
      branchy = rng.chance(config.branchy_chance) && lines.size() >= 4;
    }
    if (branchy) {
      // Partition the footprint into a shared region (preamble + loop-body
      // tail) and two disjoint branch-arm banks: inside the loop each arm's
      // lines are accessed only on some paths, which is exactly where the
      // persistence domain keeps what the must domain drops at the join.
      const std::size_t shared_n = lines.size() / 2;
      const std::size_t then_n = (lines.size() - shared_n) / 2;
      std::vector<std::uint64_t> shared(lines.begin(),
                                        lines.begin() + shared_n);
      std::vector<std::uint64_t> then_bank(
          lines.begin() + shared_n, lines.begin() + shared_n + then_n);
      std::vector<std::uint64_t> else_bank(
          lines.begin() + shared_n + then_n, lines.end());
      const int bound = static_cast<int>(rng.range(
          config.min_branchy_loop_bound, config.max_branchy_loop_bound));
      std::vector<cache::Stmt> body;
      body.push_back(cache::Stmt::branch(cache::Stmt::block(then_bank),
                                         cache::Stmt::block(else_bank)));
      body.push_back(cache::Stmt::block(shared));
      std::vector<std::uint64_t> inner;
      int inner_bound = 0;
      if (rng.chance(config.nested_loop_chance)) {
        inner.assign(shared.begin(),
                     shared.begin() +
                         std::min<std::size_t>(3, shared.size()));
        inner_bound = static_cast<int>(rng.range(2, 3));
        body.push_back(
            cache::Stmt::loop(cache::Stmt::block(inner), inner_bound));
      }
      app.structured.name = app.name;
      app.structured.root = cache::Stmt::seq(
          {cache::Stmt::block(shared),
           cache::Stmt::loop(cache::Stmt::seq(std::move(body)), bound)});
      // Representative concrete path (Application::has_structured contract):
      // the preamble, then every iteration taking the larger branch arm —
      // a maximal-access path of the tree.
      const std::vector<std::uint64_t>& big =
          then_bank.size() >= else_bank.size() ? then_bank : else_bank;
      const auto append = [&app](const std::vector<std::uint64_t>& v) {
        app.program.trace.insert(app.program.trace.end(), v.begin(), v.end());
      };
      append(shared);
      for (int it = 0; it < bound; ++it) {
        append(big);
        append(shared);
        for (int k = 0; k < inner_bound; ++k) append(inner);
      }
    } else {
      const std::size_t refetches = static_cast<std::size_t>(rng.range(
          static_cast<std::int64_t>(config.min_refetches),
          static_cast<std::int64_t>(config.max_refetches)));
      for (const std::uint64_t line : lines) {
        for (std::size_t f = 0; f < refetches; ++f) {
          app.program.trace.push_back(line);
        }
      }
      // Loop suffix: re-traverse [loop_start, end) a few times — warm
      // executions hit these except where sets self-conflict.
      const std::size_t loop_start = rng.index(lines.size());
      const std::size_t iterations = static_cast<std::size_t>(rng.range(
          static_cast<std::int64_t>(config.min_loop_iterations),
          static_cast<std::int64_t>(config.max_loop_iterations)));
      for (std::size_t it = 0; it < iterations; ++it) {
        for (std::size_t j = loop_start; j < lines.size(); ++j) {
          app.program.trace.push_back(lines[j]);
        }
      }
    }

    // Control side: family instance + derived deadlines.
    const control::PlantFamily family =
        control::kAllPlantFamilies[rng.index(control::kAllPlantFamilies.size())];
    out.families[i] = family;
    const double w0 = rng.real(config.min_w0, config.max_w0);
    const double zeta = rng.real(config.min_zeta, config.max_zeta);
    const double gain = rng.real(config.min_gain, config.max_gain);
    app.plant = control::make_family_plant(family, w0, zeta, gain);
    app.smax = rng.real(config.min_smax_factor, config.max_smax_factor) *
               control::family_timescale(family, w0, zeta);
    app.r = rng.real(0.5, 2.0);
    app.y0 = 0.0;
    // DC gain >= min_gain keeps the equilibrium input r / gain <= 2, well
    // under this bound (the integrating family holds u = 0 at any level).
    app.umax = rng.real(4.0, 20.0);

    raw_weights[i] = rng.real(0.5, 2.0);
    weight_sum += raw_weights[i];

    // The same cold bound the searches will see (the cold pass of
    // SystemModel::analyze_wcets), so the tidle >= 2 * cold_sum
    // feasibility guarantee carries over.
    cold_sum += cache::analyze_static_wcet(app.analysis_program(), cc)
                    .wcet_seconds(cc);
  }
  for (std::size_t i = 0; i < n; ++i) {
    out.model.apps[i].weight = raw_weights[i] / weight_sum;
    // tidle as a multiple of the summed cold WCET: every all-ones periodic
    // schedule has h_max <= cold_sum, so factor >= 2 guarantees the
    // searches a feasible start.
    out.model.apps[i].tidle =
        rng.real(config.min_tidle_factor, config.max_tidle_factor) * cold_sum;
  }
  return out;
}

namespace {

/// FNV-1a over a canonical little-endian byte stream.
class Fnv1a {
public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      byte(static_cast<unsigned char>(v >> (8 * i)));
    }
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  std::uint64_t value() const noexcept { return h_; }

private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 1099511628211ull;
  }
  std::uint64_t h_ = 14695981039346656037ull;
};

void hash_stmt(Fnv1a& h, const cache::Stmt& s) {
  h.u64(static_cast<std::uint64_t>(s.kind));
  h.u64(static_cast<std::uint64_t>(s.bound));
  h.u64(s.lines.size());
  for (const std::uint64_t line : s.lines) h.u64(line);
  h.u64(s.children.size());
  for (const cache::Stmt& c : s.children) hash_stmt(h, c);
}

void hash_matrix(Fnv1a& h, const linalg::Matrix& m) {
  h.u64(m.rows());
  h.u64(m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) h.f64(m(r, c));
  }
}

}  // namespace

std::uint64_t system_fingerprint(const core::SystemModel& model) {
  Fnv1a h;
  const cache::CacheConfig& cc = model.cache_config;
  h.u64(cc.line_bytes);
  h.u64(cc.num_lines);
  h.u64(cc.associativity);
  h.u64(cc.hit_cycles);
  h.u64(cc.miss_cycles);
  h.f64(cc.clock_hz);
  h.u64(model.apps.size());
  for (const core::Application& a : model.apps) {
    h.str(a.name);
    h.u64(a.program.trace.size());
    for (const std::uint64_t line : a.program.trace) h.u64(line);
    if (a.has_structured()) {
      // Domain tag + tree; hashed ONLY when a tree is attached, so
      // trace-only models keep their pre-branchy fingerprints.
      h.u64(0xB2A9C417D1E5F063ull);
      hash_stmt(h, a.structured.root);
    }
    h.f64(a.weight);
    h.f64(a.smax);
    h.f64(a.tidle);
    h.f64(a.umax);
    h.f64(a.r);
    h.f64(a.y0);
    hash_matrix(h, a.plant.a);
    hash_matrix(h, a.plant.b);
    hash_matrix(h, a.plant.c);
  }
  return h.value();
}

}  // namespace catsched::testgen
