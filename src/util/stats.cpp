#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/slo.h"

namespace edgerep {

void RunningStat::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStat::merge(const RunningStat& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double RunningStat::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStat::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStat::sem() const noexcept {
  return n_ > 0 ? stddev() / std::sqrt(static_cast<double>(n_)) : 0.0;
}

double RunningStat::ci95_halfwidth() const noexcept { return 1.96 * sem(); }

Summary summarize(std::span<const double> xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  RunningStat rs;
  for (double x : sorted) rs.add(x);
  s.mean = rs.mean();
  s.stddev = rs.stddev();
  s.min = sorted.front();
  s.max = sorted.back();
  s.p50 = obs::percentile_sorted(sorted, 50.0);
  s.p95 = obs::percentile_sorted(sorted, 95.0);
  return s;
}

std::string mean_ci_string(const RunningStat& s, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << s.mean() << " ± " << s.ci95_halfwidth();
  return os.str();
}

}  // namespace edgerep
