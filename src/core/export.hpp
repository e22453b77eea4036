#pragma once
/// \file export.hpp
/// \brief Plot-data export: CSV writers for simulation traces and sweep
///        tables, plus a matching gnuplot script generator, so every
///        figure-style bench can hand its series to external plotting
///        (the repository itself stays plot-library-free).

#include <string>
#include <vector>

#include "control/switched.hpp"

namespace catsched::core {

/// Write named columns as CSV. All columns must have equal length; short
/// numeric formatting (%.10g) keeps files diff-friendly.
/// \throws std::invalid_argument on ragged columns or empty headers,
///         std::runtime_error if the file cannot be written.
void write_csv(const std::string& path,
               const std::vector<std::string>& headers,
               const std::vector<std::vector<double>>& columns);

/// Write a dense simulation trace (t, y and the sampled instants t_k, y_k
/// as separate files "<stem>_dense.csv" / "<stem>_samples.csv").
/// \throws as write_csv.
void write_sim_trace(const std::string& stem,
                     const control::SimTrace& trace);

/// Emit a minimal gnuplot script plotting selected CSV columns against the
/// first column. Returns the script text and writes it to \p path.
/// \throws std::runtime_error if the file cannot be written.
std::string write_gnuplot_script(const std::string& path,
                                 const std::string& csv_path,
                                 const std::string& title,
                                 const std::vector<std::string>& headers);

}  // namespace catsched::core
