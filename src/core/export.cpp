#include "core/export.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace catsched::core {

void write_csv(const std::string& path,
               const std::vector<std::string>& headers,
               const std::vector<std::vector<double>>& columns) {
  if (headers.empty() || headers.size() != columns.size()) {
    throw std::invalid_argument(
        "write_csv: need one header per column, at least one column");
  }
  const std::size_t rows = columns.front().size();
  for (const auto& c : columns) {
    if (c.size() != rows) {
      throw std::invalid_argument("write_csv: ragged columns");
    }
  }
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("write_csv: cannot open " + path);
  }
  for (std::size_t j = 0; j < headers.size(); ++j) {
    out << (j ? "," : "") << headers[j];
  }
  out << "\n";
  char buf[32];
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < columns.size(); ++j) {
      std::snprintf(buf, sizeof buf, "%.10g", columns[j][i]);
      out << (j ? "," : "") << buf;
    }
    out << "\n";
  }
  if (!out) {
    throw std::runtime_error("write_csv: write failed for " + path);
  }
}

void write_sim_trace(const std::string& stem,
                     const control::SimTrace& trace) {
  write_csv(stem + "_dense.csv", {"t", "y"}, {trace.t, trace.y});
  write_csv(stem + "_samples.csv", {"t_k", "y_k"}, {trace.ts, trace.ys});
}

std::string write_gnuplot_script(const std::string& path,
                                 const std::string& csv_path,
                                 const std::string& title,
                                 const std::vector<std::string>& headers) {
  std::ostringstream s;
  s << "set datafile separator ','\n"
    << "set key autotitle columnhead\n"
    << "set title '" << title << "'\n"
    << "set grid\n"
    << "plot ";
  for (std::size_t j = 1; j < headers.size(); ++j) {
    if (j > 1) s << ", ";
    s << "'" << csv_path << "' using 1:" << j + 1 << " with lines";
  }
  s << "\n";
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("write_gnuplot_script: cannot open " + path);
  }
  out << s.str();
  return s.str();
}

}  // namespace catsched::core
