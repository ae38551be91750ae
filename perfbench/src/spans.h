// In-memory span log for the benchmark's traced run.
//
// The driver wraps each of its calls into a library layer in a Scope named
// "<layer>.<call>" (workload, cloud, core, stream, sim, obs); its own
// bookkeeping runs inside "bench.*" scopes.  Spans are kept in memory and
// written out once the run ends.  A span's self time is its duration minus
// the part covered by its children, so per-layer self times plus the driver's
// own time add up to the traced wall time.
//
// Every Scope measures its own duration, so the untraced run uses the same
// code for its stage timings; with the log disabled a Scope records nothing.
#pragma once

#include <chrono>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the log was created
  double end = 0.0;
  int parent = -1;     ///< index of the enclosing span, -1 at top level
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  class Scope {
   public:
    Scope(SpanLog& log, const char* name) : log_(&log), t0_(Clock::now()) {
      if (log_->enabled_) {
        index_ = static_cast<int>(log_->spans_.size());
        log_->spans_.push_back(
            {name, seconds_between(log_->origin_, t0_), 0.0, log_->open_});
        log_->open_ = index_;
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { stop(); }

    /// End the span (first call only) and return its duration in seconds.
    double stop() {
      if (!stopped_) {
        const Clock::time_point t1 = Clock::now();
        seconds_ = seconds_between(t0_, t1);
        stopped_ = true;
        if (index_ >= 0) {
          Span& s = log_->spans_[static_cast<std::size_t>(index_)];
          s.end = seconds_between(log_->origin_, t1);
          log_->open_ = s.parent;
        }
      }
      return seconds_;
    }

   private:
    SpanLog* log_;
    Clock::time_point t0_;
    int index_ = -1;
    bool stopped_ = false;
    double seconds_ = 0.0;
  };

  /// Self time summed per layer (the span name up to its first '.').
  [[nodiscard]] std::map<std::string, double> self_seconds_by_layer() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out[s.name.substr(0, s.name.find('.'))] += s.end - s.start - child[i];
    }
    return out;
  }

  /// Total duration of every span with exactly this name.
  [[nodiscard]] double total_seconds(const std::string& name) const {
    double total = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) total += s.end - s.start;
    }
    return total;
  }

  void write_json(std::ostream& os) const {
    os << "{\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i << ", \"name\": \""
         << s.name << "\", \"start_s\": " << s.start
         << ", \"end_s\": " << s.end << ", \"parent\": " << s.parent << "}";
    }
    os << "\n]}\n";
  }

 private:
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  int open_ = -1;
};

}  // namespace perfbench
