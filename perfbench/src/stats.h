// Order statistics used by the result report.
#pragma once

#include <cstddef>
#include <vector>

namespace pb {

// Interpolated empirical quantile, q in [0, 1]; 0 on empty input.
double quantile(std::vector<double> v, double q);
double median(const std::vector<double>& v);
double mean(const std::vector<double>& v);

// Quantile of integer-valued samples (simulated ticks) read as grouped
// data: a value v stands for the interval [v - 0.5, v + 0.5), and the
// quantile interpolates linearly inside the interval it falls in. Unlike
// the plain quantile it does not collapse onto the integer grid, so a small
// shift of the distribution shows.
double tick_quantile(std::vector<double> v, double q);

// The highest percentile of a ladder (50, 75, 90, 95, 99, 99.9, 99.99) that
// leaves at least ten samples beyond it, and its tick_quantile. 0/0 when
// there are fewer than 20 samples.
struct Tail {
  double percentile = 0;
  double value = 0;
};
Tail tail_of(const std::vector<double>& v);

}  // namespace pb
