// Streaming and batch descriptive statistics used by the benchmark harness
// (mean over 15 topologies, confidence intervals, percentiles).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace edgerep {

/// Welford's online algorithm: numerically stable running mean/variance.
class RunningStat {
 public:
  void add(double x) noexcept;

  /// Merge another accumulator (parallel reduction; Chan et al. update).
  void merge(const RunningStat& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  /// Standard error of the mean.
  [[nodiscard]] double sem() const noexcept;
  /// Half-width of the ~95% confidence interval (normal approximation).
  [[nodiscard]] double ci95_halfwidth() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Batch summary of a sample.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double max = 0.0;
};

/// Summarize a sample (copies and sorts internally; input is unmodified).
Summary summarize(std::span<const double> xs);

/// Pretty "mean ± ci95" string with the given precision.
std::string mean_ci_string(const RunningStat& s, int precision = 2);

}  // namespace edgerep
