// Tiny command-line argument parser for the bench and example binaries.
// Supports `--name=value`, `--name value`, and boolean flags `--name`.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace edgerep {

class Args {
 public:
  Args(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;

  /// Typed getters with defaults; throw std::runtime_error on parse failure.
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  [[nodiscard]] long long get_int(const std::string& name,
                                  long long fallback) const;
  /// A count: an integer in [0, max], which by default is the largest
  /// count 32-bit ids can address.
  [[nodiscard]] std::uint64_t get_count(
      const std::string& name, std::uint64_t fallback,
      std::uint64_t max = std::numeric_limits<std::uint32_t>::max()) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;
  [[nodiscard]] std::uint64_t get_seed(const std::string& name,
                                       std::uint64_t fallback) const;

  /// Positional (non --) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Program name (argv[0]).
  [[nodiscard]] const std::string& program() const noexcept { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> named_;
  std::vector<std::string> positional_;
};

}  // namespace edgerep
