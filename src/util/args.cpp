#include "util/args.h"

#include <stdexcept>

namespace edgerep {

namespace {

bool looks_like_flag(const std::string& s) {
  return s.size() > 2 && s[0] == '-' && s[1] == '-';
}

}  // namespace

Args::Args(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!looks_like_flag(arg)) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      named_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && !looks_like_flag(argv[i + 1])) {
      named_[body] = argv[++i];
    } else {
      named_[body] = "true";  // bare boolean flag
    }
  }
}

bool Args::has(const std::string& name) const {
  return named_.contains(name);
}

std::string Args::get(const std::string& name,
                      const std::string& fallback) const {
  const auto it = named_.find(name);
  return it == named_.end() ? fallback : it->second;
}

long long Args::get_int(const std::string& name, long long fallback) const {
  const auto it = named_.find(name);
  if (it == named_.end()) return fallback;
  try {
    std::size_t pos = 0;
    const long long v = std::stoll(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument(it->second);
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error("--" + name + ": expected integer, got '" +
                             it->second + "'");
  }
}

std::uint64_t Args::get_count(const std::string& name,
                             std::uint64_t fallback, std::uint64_t max) const {
  if (!has(name)) return fallback;
  const long long v = get_int(name, 0);
  if (v < 0 || static_cast<std::uint64_t>(v) > max) {
    throw std::runtime_error("--" + name + ": expected an integer in [0, " +
                             std::to_string(max) + "], got '" +
                             get(name, "") + "'");
  }
  return static_cast<std::uint64_t>(v);
}

double Args::get_double(const std::string& name, double fallback) const {
  const auto it = named_.find(name);
  if (it == named_.end()) return fallback;
  try {
    std::size_t pos = 0;
    const double v = std::stod(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument(it->second);
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error("--" + name + ": expected number, got '" +
                             it->second + "'");
  }
}

bool Args::get_bool(const std::string& name, bool fallback) const {
  const auto it = named_.find(name);
  if (it == named_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::runtime_error("--" + name + ": expected boolean, got '" + v + "'");
}

std::uint64_t Args::get_seed(const std::string& name,
                             std::uint64_t fallback) const {
  const auto it = named_.find(name);
  if (it == named_.end()) return fallback;
  try {
    std::size_t pos = 0;
    const auto v = std::stoull(it->second, &pos, 0);
    if (pos != it->second.size()) throw std::invalid_argument(it->second);
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error("--" + name + ": expected seed, got '" +
                             it->second + "'");
  }
}

}  // namespace edgerep
